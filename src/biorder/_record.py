"""Base class of the package's immutable records.

A record declares each field once, as an annotation in its class body: the
annotated names are its fields, in order, and a class-level value is the
field's default (`detail: str = ""`); they become the class's `__slots__` and
`_defaults`.  This base binds them: `Name(*values)` in field order, or by
keyword, with the defaults filling the fields left out.  Only a record that
checks its arguments writes an `__init__`, ending in `super().__init__(...)`.
The base also gives every record value equality and hashing, a
`Name(field=value, ...)` repr and read-only fields; written once here, they
cost nothing at import, where generating them per class (with `dataclasses`,
`inspect` and `ast`) took most of the start-up.
Record modules import `from __future__ import annotations`, which keeps the
body's `__annotations__` mapping, and so the fields, on every Python version.
"""


class _Fields(type):
    """Makes a class body's annotated names its __slots__, their values its _defaults."""

    def __new__(mcls, name, bases, namespace):
        slots = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {key: namespace.pop(key) for key in slots if key in namespace}
        namespace["__slots__"] = slots
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_Fields):
    def __init_subclass__(cls):
        # the slot descriptors' setters, which bypass the read-only __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if not kwargs and len(args) == len(setters):
            # by index: a zip loop made binding a two-field record such as
            # magnus.LowestTerm about 30 % slower
            i = 0
            for bind in setters:
                bind(self, args[i])
                i += 1
            return
        name = self.__class__.__name__
        slots = self.__slots__
        if len(args) > len(slots):
            raise TypeError(f"{name}() takes {len(slots)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(slots, args))
        for key, value in kwargs.items():
            if key not in slots:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        values = {**self._defaults, **values}
        missing = [key for key in slots if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            f"{', '.join(map(repr, missing))}")
        for key, bind in zip(slots, setters):
            bind(self, values[key])

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
