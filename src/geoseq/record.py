"""Equality, repr and freezing for the plain record classes.

The records a command builds (``Tolerances``, ``ParanormResult``,
``RunConfig`` and the like) are classes with ``__slots__`` and a
written-out ``__init__``: ``dataclasses`` costs every command its import
and one ``exec`` per decorated class.  These bases compare and print the
slots in order, as a dataclass compares and prints its fields.
"""

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Equal to a record of the same class with equal slots; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class FrozenRecord(Record):
    """A :class:`Record` whose slots are set once, by ``__init__`` through
    :meth:`_freeze`; hashable, and copied or pickled through the
    constructor, whose positional parameters follow ``__slots__``."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        """Set the slots, in order, to ``values``; ``__init__`` calls this once."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
