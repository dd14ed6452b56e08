"""The bases of the package's value types.

A value type stores its fields with ``object.__setattr__``, here
:data:`_set`, and names them in ``_fields``: ``repr`` shows them in
order, and ``==`` and the hash read them.  The values that checks compare
or hash in their loops, such as backends, matrices, group elements and
spaces, write out their own ``__init__``, ``__eq__`` and ``__hash__``;
the records a check returns, which nothing compares on the way, inherit
the loop over ``_fields`` here.  Assigning or deleting an attribute of
a :class:`Frozen` value raises :class:`dataclasses.FrozenInstanceError`,
imported on that path alone, so importing the package loads neither
:mod:`dataclasses` nor the :mod:`inspect` it imports.
"""

from __future__ import annotations

__all__ = ["Record", "Frozen"]

_set = object.__setattr__


class Record:
    """A value whose ``repr`` shows the fields named in ``_fields``, in
    order, and that equals a value of its own class with equal fields.
    A record that can change has no hash."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


class Frozen(Record):
    """A :class:`Record` that hashes its fields and whose attributes can
    be neither assigned nor deleted."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
