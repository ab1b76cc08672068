"""Base of the value types, which a frozen dataclass would cost every
process start an import of `inspect` and `ast`.  A subclass names its
fields in `__slots__` and sets them in `__init__`: by `_set`, or, where
a claim builds hundreds, faster by one `_setattr` each.  The base
compares, hashes and prints the fields in that order, and assignment
raises AttributeError."""
from operator import attrgetter

_setattr = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
