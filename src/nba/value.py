"""A base for small value classes, kept free of `dataclasses`, whose
import (it loads `inspect`) and class creation cost more than a query's
whole probe, and whose frozen instances take twice as long to build."""


class Value:
    """Equal to another value of the same class with equal slots, in order,
    and hashed by them. Subclasses list their fields in `__slots__` and do
    not change them after `__init__`; one whose fields change sets
    `__hash__ = None`, as a mutable dataclass would."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
