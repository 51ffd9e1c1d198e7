"""One constructor, equality, repr and freezing for the plain record classes.

The records a command builds (``Tolerances``, ``ParanormResult``,
``RunConfig`` and the like) are classes with ``__slots__``: ``dataclasses``
costs every command its import and one ``exec`` per decorated class.  A
record declares its fields once, in ``__slots__``, and the values of its
optional trailing fields in ``_defaults``; :class:`Record`'s constructor
binds them, as a dataclass's generated ``__init__`` would, and these bases
compare and print the slots in order, as a dataclass compares and prints
its fields.  Only a record that validates its arguments (``Tolerances``,
``TrialConfig``) or derives its fields (``RunConfig``, ``harness._Suite``)
writes an ``__init__``; the first two pass the checked values on to this
one.
"""

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Built from its field values: positional ones in ``__slots__`` order,
    then keywords by slot name, then ``_defaults`` for the trailing fields
    neither gives.  Equal to a record of the same class with equal slots;
    unhashable."""

    __slots__ = ()
    __hash__ = None
    _defaults = {}  # the trailing fields, in slot order -> value when a call leaves one out

    def __init__(self, *values, **named):
        slots = self.__slots__
        left_out = len(slots) - len(values)
        if named or not 0 <= left_out <= len(self._defaults):
            values = self._bind(values, named)
        elif left_out:
            values += tuple(self._defaults.values())[-left_out:]
        # object's, so a FrozenRecord sets each slot once the same way
        setattr_ = object.__setattr__
        for name, value in zip(slots, values):
            setattr_(self, name, value)

    def _bind(self, values: tuple, named: dict) -> list:
        """Every field's value, in slot order, from a call that gives a
        keyword, more values than fields, or fewer than the fields without
        a default."""
        slots, what = self.__slots__, type(self).__qualname__
        if len(values) > len(slots):
            raise TypeError(f"{what} takes {len(slots)} fields but {len(values)} were given")
        for name in named:
            if name not in slots:
                raise TypeError(f"{what} got an unknown field {name!r}")
            if slots.index(name) < len(values):
                raise TypeError(f"{what} got field {name!r} twice")
        bound = list(values)
        for name in slots[len(values):]:
            if name in named:
                bound.append(named[name])
            elif name in self._defaults:
                bound.append(self._defaults[name])
            else:
                raise TypeError(f"{what} is missing field {name!r}")
        return bound

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
    """A :class:`Record` whose slots are set once, by the constructor;
    hashable, and copied or pickled through the constructor with its values
    in ``__slots__`` order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
