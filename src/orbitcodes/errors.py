"""Exception types shared across the package, one per CLI exit code.

- ParseError (exit 2): a malformed argument, polynomial or input file.
- OrbitCodesError (exit 3): input outside what the math allows, such as
  a q that is not prime, a polynomial that is not primitive or a modulus
  that does not divide q^n - 1; the base class of the two below it.
- ResourceLimit (exit 4): a time, work or memory budget was exceeded.
- VerificationFailed (exit 5): a code or result does not have the
  properties it claims.
"""


class OrbitCodesError(ValueError):
    """Base class for all validation errors raised by this package."""


class ParseError(OrbitCodesError):
    pass


class VerificationFailed(OrbitCodesError):
    pass


class ResourceLimit(RuntimeError):
    """A configured time or work budget was exceeded."""
