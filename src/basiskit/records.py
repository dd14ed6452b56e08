"""The bases of the package's value types.

A value type stores its fields with ``object.__setattr__``, here
:data:`_set`, and names them in ``_fields``.  One rule reads them:
``repr`` shows them in order, two values are equal when they are the
same object or of the same class with equal fields, and a
:class:`Frozen` value hashes the tuple of its fields.  A class that
names no fields, such as a group element bound to its group, writes its
own ``__eq__`` and ``__hash__``.  Assigning or deleting an attribute of
a :class:`Frozen` value raises :class:`dataclasses.FrozenInstanceError`,
imported on that path alone, so importing the package loads neither
:mod:`dataclasses` nor the :mod:`inspect` it imports.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "Frozen"]

_set = object.__setattr__


class Record:
    """A value whose ``repr`` shows the fields named in ``_fields``, in
    order, and that equals a value of its own class with equal fields.
    A record that can change has no hash."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        if cls._fields:
            # ``_values(x)`` is the tuple of ``x``'s fields; one name
            # alone would give a bare value, and every value type names two
            cls._values = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        # a tuple comparison checks each field for identity first
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    __hash__ = None


class Frozen(Record):
    """A :class:`Record` that hashes its fields and whose attributes can
    be neither assigned nor deleted."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
