"""Exception types shared across the package."""


class OrbitCodesError(ValueError):
    """Base class for all validation errors raised by this package."""


class NotPrime(OrbitCodesError):
    pass


class NotPrimitive(OrbitCodesError):
    pass


class DegreeMismatch(OrbitCodesError):
    pass


class TooLarge(OrbitCodesError):
    pass


class NoDefault(OrbitCodesError):
    pass


class NotASubspace(OrbitCodesError):
    pass


class ExponentOutOfRange(OrbitCodesError):
    pass


class DuplicateExponent(OrbitCodesError):
    pass


class AllZero(OrbitCodesError):
    pass


class FieldMismatch(OrbitCodesError):
    pass


class BadModulus(OrbitCodesError):
    pass


class OddDistance(OrbitCodesError):
    pass


class NotADivisor(OrbitCodesError):
    pass


class TooSmall(OrbitCodesError):
    pass


class SameOrbit(OrbitCodesError):
    pass


class VerificationFailed(OrbitCodesError):
    pass


class ParseError(OrbitCodesError):
    pass


class CheckpointMismatch(OrbitCodesError):
    """A checkpoint file belongs to another field, polynomial, k or format."""


class ResourceLimit(RuntimeError):
    """A configured time or work budget was exceeded."""
