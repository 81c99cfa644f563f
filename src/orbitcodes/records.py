"""A base for the package's plain record classes."""


class Record:
    """Equality and repr over the fields named in _fields, as a dataclass has.

    Two records are equal when they are of the same class and their fields
    are equal.  A record is not hashable unless its class defines __hash__.
    """

    __slots__ = ()
    _fields = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
