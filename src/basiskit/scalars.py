"""Scalar backends: exact rationals and tolerance-based floats.

Every numeric container in the package carries a :class:`Backend`.  The
exact backend computes with :class:`fractions.Fraction` and compares with
``==``; the approximate backend computes with ``float`` and compares within
a tolerance.  A single computation never mixes the two; binary operations
check for agreement and raise :class:`~basiskit.errors.BackendMismatch`.

Only the backend compares values, each as one flat tuple of its scalars:
:meth:`Backend.close`, :meth:`Backend.compare` (closeness and the
residual at once), :meth:`Backend.measure` (what a check's comparison
measured, the one statement of that rule) and :meth:`Backend.is_zero`.
A NaN supports no claim: it is close to nothing, and it vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import BackendMismatch, DimensionMismatch, ParseError

__all__ = [
    "Scalar",
    "Backend",
    "EXACT",
    "APPROX",
    "approx",
    "scalar_to_json",
    "scalar_from_json",
]

Scalar = Union[Fraction, float]

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Backend:
    """Arithmetic regime: ``"exact"`` rationals or ``"approx"`` floats."""

    kind: str
    tolerance: float = 0.0
    is_exact: bool = field(init=False, repr=False, compare=False)  # set from ``kind``

    def __post_init__(self):
        if self.kind not in ("exact", "approx"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "exact" and self.tolerance != 0.0:
            raise ValueError("exact backend takes no tolerance")
        if self.kind == "approx" and self.tolerance <= 0.0:
            raise ValueError("approximate backend needs a positive tolerance")
        object.__setattr__(self, "is_exact", self.kind == "exact")

    def coerce(self, value) -> Scalar:
        """Convert a number to this backend's scalar type.

        Exact accepts ints, Fractions and integral floats; a non-integral
        float would silently lose meaning, so it is rejected.
        """
        if self.is_exact:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, float):
                if value != int(value):
                    raise BackendMismatch(
                        f"non-integral float {value!r} cannot enter an exact computation"
                    )
                return Fraction(int(value))
            raise BackendMismatch(f"cannot coerce {value!r} to an exact scalar")
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise BackendMismatch(f"cannot coerce {value!r} to a float scalar")

    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1.0

    def close(self, xs: tuple, ys: tuple) -> bool:
        """Equal tuples: ``xs == ys`` over the rationals; in floating point
        equal lengths and :meth:`compare`'s verdict."""
        if self.is_exact:
            return xs == ys
        return len(xs) == len(ys) and self.compare(xs, ys)[0]

    def compare(self, xs: tuple, ys: tuple) -> tuple:
        """``(close(xs, ys), residual)`` in one pass over the entries, the
        residual the largest entrywise ``|x - y|`` as a float, 0.0 for
        empty tuples and ``inf`` for an exact one beyond the float range;
        unequal lengths raise :class:`DimensionMismatch`."""
        if len(xs) != len(ys):
            raise DimensionMismatch(f"vector lengths differ: {len(xs)} vs {len(ys)}")
        # exactly, ``|x - y| <= 0`` is ``x == y``; ``worst`` is what
        # ``max`` would give, which keeps a NaN only when it comes first
        tol, holds, worst = self.tolerance, True, None
        for x, y in zip(xs, ys):
            d = abs(x - y)
            if not d <= tol:
                holds = False
            if worst is None or d > worst:
                worst = d
        try:
            return holds, 0.0 if worst is None else float(worst)
        except OverflowError:
            return holds, math.inf

    def measure(self, xs: tuple, ys: tuple) -> tuple:
        """``(holds, residual)`` of a check's comparison: :meth:`compare`
        in floating point; over the rationals ``(xs == ys, None)``, since
        an exact comparison measures no residual."""
        if self.is_exact:
            return xs == ys, None
        return self.compare(xs, ys)

    def is_zero(self, x: Scalar) -> bool:
        """``x == 0`` over the rationals; in floating point ``|x|`` does not
        clear the tolerance, so a NaN vanishes."""
        if self.is_exact:
            return x == 0
        return not abs(x) > self.tolerance

    def require_same(self, other: "Backend") -> None:
        if self is not other and self != other:
            raise BackendMismatch(f"backends differ: {self} vs {other}")


EXACT = Backend("exact")


def approx(tolerance: float = DEFAULT_TOLERANCE) -> Backend:
    """Float backend with the given comparison tolerance."""
    return Backend("approx", tolerance)


APPROX = approx()


def scalar_to_json(x: Scalar, backend: Backend):
    """Render a scalar for a descriptor.

    Exact values emit as plain integers when whole and as ``"num/den"``
    strings otherwise; approx values emit as JSON numbers.
    """
    if backend.is_exact:
        f = backend.coerce(x)
        if f.denominator == 1:
            return int(f)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def scalar_from_json(value, backend: Backend) -> Scalar:
    """Parse a descriptor scalar.

    Exact accepts ``"num/den"`` strings and integers; approx accepts any
    JSON number and also fraction strings (evaluated to float).  Neither
    accepts a non-finite number (JSON ``1e400``, ``Infinity``, ``NaN``)
    or, under approx, a value too large for a float.
    """
    if isinstance(value, str):
        try:
            f = Fraction(value)
            return f if backend.is_exact else float(f)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad scalar literal {value!r}: {exc}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"bad scalar literal {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"scalar {value!r} is not a finite number")
    try:
        return backend.coerce(value)
    except BackendMismatch as exc:
        raise ParseError(str(exc)) from None
    except OverflowError:
        raise ParseError("integer scalar is too large for a float") from None
