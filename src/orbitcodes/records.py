"""A base for the package's plain record classes, and its one JSON writer."""

import json
from json.encoder import encode_basestring_ascii


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


def write_json(write, value, indent: int = 0) -> None:
    """Write value through write as json.dumps(value, indent=1) lays it out.

    Dicts, lists, tuples and iterators (as lists) go item by item, so an
    iterator is never held whole; a list or tuple of ints alone is joined
    in one go, not by the pure-Python encoder.  Dict keys must be strings.
    indent is how far in value's closing bracket sits.
    """
    pad = "\n" + " " * (indent + 1)
    if type(value) is int:
        write(str(value))
    elif isinstance(value, dict):
        sep = "{" + pad
        for key, item in value.items():
            write(f"{sep}{encode_basestring_ascii(key)}: ")
            write_json(write, item, indent + 1)
            sep = "," + pad
        write("{}" if sep[0] == "{" else pad[:-1] + "}")
    elif isinstance(value, (list, tuple)) and {*map(type, value)} <= {int}:
        write(f"[{pad}" + f",{pad}".join(map(str, value)) + f"{pad[:-1]}]" if value else "[]")
    elif isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        sep = "[" + pad
        for item in value:
            parts = [sep]       # one write per item, as a write costs more than a join
            write_json(parts.append, item, indent + 1)
            write("".join(parts))
            sep = "," + pad
        write("[]" if sep[0] == "[" else pad[:-1] + "]")
    else:
        write(json.dumps(value))
