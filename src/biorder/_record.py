"""Base class of the package's immutable records.

A record is a slotted class whose `__init__` sets its fields, named by its
`__slots__`, with `object.__setattr__`.  This base gives every record value
equality and hashing, a `Name(field=value, ...)` repr and read-only fields.
Written once here, these cost nothing at import; generating them per class
(and importing the standard module that does so, with `inspect` and `ast`)
took most of the package's start-up.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
