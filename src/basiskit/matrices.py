"""Small dense matrices and vectors over an exact or float backend.

Everything is immutable: a matrix is a tuple of row tuples, a vector a
tuple of scalars.  Sizes in this package stay tiny (dimension five or so,
tensor squares up to 25).

The two backends share the interface but not the arithmetic.  Float
matrices use Gaussian elimination with partial pivoting, and a pivot the
backend's :meth:`~basiskit.scalars.Backend.is_zero` calls zero counts as
singular.  Exact matrices never do
``Fraction`` arithmetic inside a kernel: each operand is brought to
integer rows over a common denominator, all the work happens on Python
ints, and each output entry becomes one normalised ``Fraction`` at the
end.  ``det`` uses Bareiss's fraction-free elimination and ``inverse``
the fraction-free Gauss-Jordan form of it on ``[A | D]``, where every
division by the previous pivot is exact (E. H. Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math.
Comp. 22, 1968).  Rationals are canonical, so the results are the same
values as ordinary exact elimination would give.

The operand forms the exact kernels read, the integer rows and the
integer columns, are cached on each matrix, built on first use from its
own canonical entries, so a chain of products never carries unreduced
denominators forward.  They are tuples, so no kernel can change them.
A matrix used in many products, inversions or determinants is converted
once.  So is :attr:`Matrix.flat`, the entries row by row, which is what
the backend compares, so is the hash of a matrix that keys a dict, and so
is the inverse: a matrix is inverted once however often it is asked, and
only a :class:`Singular` is raised anew.  Each is kept in the matrix's
``__dict__`` by a descriptor that takes no lock; equality and ``repr``
read only the fields.  The result of every product and inverse kernel,
on both backends, is built by :func:`_trusted`: ``object.__new__`` and
the two field stores, the same instance :meth:`Matrix.__init__` builds,
without its two ``object.__setattr__`` calls.

Float kernels are bit for bit the textbook loops: a dot product is a
left fold from ``0.0``, term after term, and elimination uses partial
pivoting, ties going to the first row.  The fold makes the bits
independent of the Python version, NaN signs excepted: the builtin
``sum()`` is such a fold before Python 3.12, and from 3.12 on it adds
floats with compensated summation, so there :func:`functools.reduce`
folds instead.  The C loop of ``sum()`` may give ``+nan`` where ``+``
gives ``-nan``; reports print every NaN alike.  Each float operation
but ``det`` has one table of straight-line kernels by shape, for 2-by-2
and 3-by-3 matrices, and runs its loop for every shape the table lacks:
a fold per entry for products, ``matvec`` and ``vecmat``, and for every
``det`` and every other ``inverse`` one elimination that keeps only the
columns still to be read.  Straight-line or not, each kernel does the
same IEEE operations in the same order: a dot product is ``0.0 + a*e +
b*g``; the pivot row, the identity's ``0.0`` and ``1.0`` entries
included, is divided by the pivot; ``x - f*y`` is applied only to rows
whose factor is not ``0``;
``det`` stops at a pivot equal to ``0`` and ``inverse`` raises
:class:`Singular` at one with ``not abs(p) > tol``.  The order is fixed
because floats are not associative and zeros are signed: ``0.0 + -0.0``
is ``+0.0`` and ``0.0 / -2.0`` is ``-0.0``, so a reordered or shortened
sum can flip the sign of a zero or the last bit of a residual, and
reports print both.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial, reduce
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from operator import add, mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Singular
from .records import Frozen, _set
from .scalars import Backend, Scalar

__all__ = [
    "Matrix",
    "Vector",
    "vector",
    "vec_add",
    "vec_scale",
    "metric_dot",
]

Vector = tuple

# ``_fold(terms, 0.0)`` adds the terms left to right from ``0.0``
_fold = sum if sys.version_info < (3, 12) else partial(reduce, add)


def vector(values: Iterable, backend: Backend) -> Vector:
    """Coerce an iterable of numbers to a backend vector."""
    return tuple(backend.coerce(v) for v in values)


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Scalar, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def metric_dot(u: Vector, v: Vector, signs: Sequence[int]) -> Scalar:
    """Scalar product with a diagonal metric of signs ``+1``/``-1``."""
    if not (len(u) == len(v) == len(signs)):
        raise DimensionMismatch("vector and metric lengths differ")
    total = signs[0] * u[0] * v[0]
    for s, a, b in zip(signs[1:], u[1:], v[1:]):
        total = total + s * a * b
    return total


def _int_rows(rows: Iterable[Sequence]) -> tuple:
    """Rational rows as ``(ints, dens)``: ``row[j] == ints[i][j] / dens[i]``,
    with ``dens[i]`` the least common denominator of the row."""
    ints, dens = [], []
    for row in rows:
        d = lcm(*[x.denominator for x in row])
        ints.append(tuple(x.numerator * (d // x.denominator) for x in row))
        dens.append(d)
    return tuple(ints), tuple(dens)


def _exact_products(rows: tuple, cols: tuple) -> tuple:
    """``out[i][j] = sum_k rows[i][k] * cols[j][k]`` over the rationals,
    for ``rows`` and ``cols`` in :func:`_int_rows` form, summed as integers
    with one ``Fraction`` per entry."""
    row_ints, row_dens = rows
    col_ints, col_dens = cols
    return tuple(
        tuple(
            Fraction(sum(map(mul, r, c)), dr * dc)
            for c, dc in zip(col_ints, col_dens)
        )
        for r, dr in zip(row_ints, row_dens)
    )


def _bareiss_det(ints: tuple, dens: tuple) -> Fraction:
    """Determinant by Bareiss elimination on the integer rows ``ints`` over
    the row denominators ``dens``.

    Each step replaces the trailing block by ``(p * x - f * y) // prev``,
    where ``p`` is the pivot and ``prev`` the pivot before it; the
    division is exact, so entries stay minors of the integer matrix.
    """
    m = list(ints)  # the row swap below changes this list, never the cached rows
    sign, prev = 1, 1
    while len(m) > 1:
        k = next((i for i, row in enumerate(m) if row[0]), None)
        if k is None:
            return Fraction(0)
        if k:
            m[0], m[k] = m[k], m[0]
            sign = -sign
        pivot, *rest = m
        p, tail = pivot[0], pivot[1:]
        m = [
            [(p * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            for row in rest
        ]
        prev = p
    return Fraction(sign * m[0][0], prod(dens))


def _fraction_free_inverse(ints: tuple, dens: tuple) -> tuple:
    """Inverse by fraction-free Gauss-Jordan elimination on ``[B | D]``.

    ``B`` holds the integer rows ``ints`` and ``D`` their denominators
    ``dens`` on the diagonal, so the solution of ``B X = D`` is the
    rational inverse.
    Column ``k`` is dropped once it is eliminated; after the last step
    every row holds ``p * X`` for the last pivot ``p``.  Raises
    :class:`Singular` at the first column that depends on the ones
    before it.
    """
    n = len(ints)
    aug = [
        [*row, *(d if i == j else 0 for j in range(n))]
        for i, (row, d) in enumerate(zip(ints, dens))
    ]
    prev = 1
    for k in range(n):
        r = next((r for r in range(k, n) if aug[r][0]), None)
        if r is None:
            raise Singular(f"matrix is singular at column {k}")
        aug[k], aug[r] = aug[r], aug[k]
        p, tail = aug[k][0], aug[k][1:]
        aug = [
            tail
            if i == k
            else [(p * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            for i, row in enumerate(aug)
        ]
        prev = p
    return tuple(tuple(Fraction(x, prev) for x in row) for row in aug)


def _float_mul2(a: tuple, b: tuple) -> tuple:
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (0.0 + a00 * b00 + a01 * b10, 0.0 + a00 * b01 + a01 * b11),
        (0.0 + a10 * b00 + a11 * b10, 0.0 + a10 * b01 + a11 * b11),
    )


def _float_mul3(a: tuple, b: tuple) -> tuple:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (
            0.0 + a00 * b00 + a01 * b10 + a02 * b20,
            0.0 + a00 * b01 + a01 * b11 + a02 * b21,
            0.0 + a00 * b02 + a01 * b12 + a02 * b22,
        ),
        (
            0.0 + a10 * b00 + a11 * b10 + a12 * b20,
            0.0 + a10 * b01 + a11 * b11 + a12 * b21,
            0.0 + a10 * b02 + a11 * b12 + a12 * b22,
        ),
        (
            0.0 + a20 * b00 + a21 * b10 + a22 * b20,
            0.0 + a20 * b01 + a21 * b11 + a22 * b21,
            0.0 + a20 * b02 + a21 * b12 + a22 * b22,
        ),
    )


def _float_matvec2(a: tuple, u: Sequence) -> tuple:
    (a00, a01), (a10, a11) = a
    u0, u1 = u
    return (0.0 + a00 * u0 + a01 * u1, 0.0 + a10 * u0 + a11 * u1)


def _float_matvec3(a: tuple, u: Sequence) -> tuple:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    u0, u1, u2 = u
    return (
        0.0 + a00 * u0 + a01 * u1 + a02 * u2,
        0.0 + a10 * u0 + a11 * u1 + a12 * u2,
        0.0 + a20 * u0 + a21 * u1 + a22 * u2,
    )


def _float_vecmat2(a: tuple, u: Sequence) -> tuple:
    (a00, a01), (a10, a11) = a
    u0, u1 = u
    return (0.0 + u0 * a00 + u1 * a10, 0.0 + u0 * a01 + u1 * a11)


def _float_vecmat3(a: tuple, u: Sequence) -> tuple:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    u0, u1, u2 = u
    return (
        0.0 + u0 * a00 + u1 * a10 + u2 * a20,
        0.0 + u0 * a01 + u1 * a11 + u2 * a21,
        0.0 + u0 * a02 + u1 * a12 + u2 * a22,
    )


def _float_mul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(_fold(map(mul, row, col), 0.0) for col in cols) for row in a)


def _float_matvec(a: tuple, u: Sequence) -> tuple:
    return tuple(_fold(map(mul, row, u), 0.0) for row in a)


def _float_vecmat(a: tuple, u: Sequence) -> tuple:
    return tuple(_fold(map(mul, u, col), 0.0) for col in zip(*a))


# Straight-line float products, by the shape of the operands; every other
# shape runs the loop
_FLOAT_MUL = {(2, 2, 2): _float_mul2, (3, 3, 3): _float_mul3}
_FLOAT_MATVEC = {(2, 2): _float_matvec2, (3, 3): _float_matvec3}
_FLOAT_VECMAT = {(2, 2): _float_vecmat2, (3, 3): _float_vecmat3}


def _float_det(rows: Sequence) -> float:
    """Determinant by Gaussian elimination with partial pivoting.

    Each step drops the pivot's column, which no later step reads, so the
    rows hold only the columns still to be eliminated.
    """
    rows, det = list(rows), 1.0
    while rows:
        k, best = 0, abs(rows[0][0])
        for r in range(1, len(rows)):
            v = abs(rows[r][0])
            if v > best:
                k, best = r, v
        pivot_row = rows[k]
        p = pivot_row[0]
        if p == 0:
            return 0.0
        if k:
            rows[k] = rows[0]
            det = -det
        det = det * p
        tail = pivot_row[1:]
        rows = [
            row[1:]
            if (f := row[0] / p) == 0
            else [x - f * y for x, y in zip(row[1:], tail)]
            for row in rows[1:]
        ]
    return det


def _float_inverse2(a: tuple, tol: float) -> tuple:
    """:func:`_float_inverse` written out for a 2-by-2 matrix."""
    (a00, a01), (a10, a11) = a
    # the pivot row (p, x | e0, e1) and the other row (q, y | o0, o1)
    if abs(a10) > abs(a00):
        p, x, e0, e1, q, y, o0, o1 = a10, a11, 0.0, 1.0, a00, a01, 1.0, 0.0
    else:
        p, x, e0, e1, q, y, o0, o1 = a00, a01, 1.0, 0.0, a10, a11, 0.0, 1.0
    if not abs(p) > tol:
        raise Singular("matrix is singular at column 0")
    x, e0, e1 = x / p, e0 / p, e1 / p
    if q != 0:
        y, o0, o1 = y - q * x, o0 - q * e0, o1 - q * e1
    if not abs(y) > tol:
        raise Singular("matrix is singular at column 1")
    o0, o1 = o0 / y, o1 / y
    if x != 0:
        e0, e1 = e0 - x * o0, e1 - x * o1
    return ((e0, e1), (o0, o1))


def _float_inverse3(a: tuple, tol: float) -> tuple:
    """:func:`_float_inverse` written out for a 3-by-3 matrix."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    # column 0: the pivot row (p, x1, x2 | e0, e1, e2), then the other two
    # rows in their order, (q, q1, q2 | f0, f1, f2) and (r, r1, r2 | g0, g1, g2)
    v0, v1 = abs(a00), abs(a10)
    if abs(a20) > (v1 if v1 > v0 else v0):
        p, x1, x2, e0, e1, e2 = a20, a21, a22, 0.0, 0.0, 1.0
        q, q1, q2, f0, f1, f2 = a10, a11, a12, 0.0, 1.0, 0.0
        r, r1, r2, g0, g1, g2 = a00, a01, a02, 1.0, 0.0, 0.0
    elif v1 > v0:
        p, x1, x2, e0, e1, e2 = a10, a11, a12, 0.0, 1.0, 0.0
        q, q1, q2, f0, f1, f2 = a00, a01, a02, 1.0, 0.0, 0.0
        r, r1, r2, g0, g1, g2 = a20, a21, a22, 0.0, 0.0, 1.0
    else:
        p, x1, x2, e0, e1, e2 = a00, a01, a02, 1.0, 0.0, 0.0
        q, q1, q2, f0, f1, f2 = a10, a11, a12, 0.0, 1.0, 0.0
        r, r1, r2, g0, g1, g2 = a20, a21, a22, 0.0, 0.0, 1.0
    if not abs(p) > tol:
        raise Singular("matrix is singular at column 0")
    x1, x2, e0, e1, e2 = x1 / p, x2 / p, e0 / p, e1 / p, e2 / p
    if q != 0:
        q1, q2, f0, f1, f2 = q1 - q * x1, q2 - q * x2, f0 - q * e0, f1 - q * e1, f2 - q * e2
    if r != 0:
        r1, r2, g0, g1, g2 = r1 - r * x1, r2 - r * x2, g0 - r * e0, g1 - r * e1, g2 - r * e2
    # column 1: the pivot row is (q1, q2 | f...), the other (r1, r2 | g...)
    if abs(r1) > abs(q1):
        q1, q2, f0, f1, f2, r1, r2, g0, g1, g2 = r1, r2, g0, g1, g2, q1, q2, f0, f1, f2
    if not abs(q1) > tol:
        raise Singular("matrix is singular at column 1")
    q2, f0, f1, f2 = q2 / q1, f0 / q1, f1 / q1, f2 / q1
    if x1 != 0:
        x2, e0, e1, e2 = x2 - x1 * q2, e0 - x1 * f0, e1 - x1 * f1, e2 - x1 * f2
    if r1 != 0:
        r2, g0, g1, g2 = r2 - r1 * q2, g0 - r1 * f0, g1 - r1 * f1, g2 - r1 * f2
    # column 2: the pivot row is (r2 | g...)
    if not abs(r2) > tol:
        raise Singular("matrix is singular at column 2")
    g0, g1, g2 = g0 / r2, g1 / r2, g2 / r2
    if x2 != 0:
        e0, e1, e2 = e0 - x2 * g0, e1 - x2 * g1, e2 - x2 * g2
    if q2 != 0:
        f0, f1, f2 = f0 - q2 * g0, f1 - q2 * g1, f2 - q2 * g2
    return ((e0, e1, e2), (f0, f1, f2), (g0, g1, g2))


def _float_inverse(rows: Sequence, tol: float) -> tuple:
    """Inverse by Gauss-Jordan elimination with partial pivoting on
    ``[A | I]``; a pivot with ``not abs(p) > tol`` raises :class:`Singular`.

    As in :func:`_float_det`, each step drops the pivot's column, so after
    the last one every row holds its row of the inverse.
    """
    n = len(rows)
    aug = [
        [*row, *(1.0 if i == j else 0.0 for j in range(n))]
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        pivot, best = k, abs(aug[k][0])
        for r in range(k + 1, n):
            v = abs(aug[r][0])
            if v > best:
                pivot, best = r, v
        if not best > tol:
            raise Singular(f"matrix is singular at column {k}")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        p = aug[k][0]
        tail = [x / p for x in aug[k][1:]]
        for r, row in enumerate(aug):
            f = row[0]
            if r == k:
                aug[r] = tail
            elif f == 0:
                aug[r] = row[1:]
            else:
                aug[r] = [x - f * y for x, y in zip(row[1:], tail)]
    return tuple(map(tuple, aug))


# Straight-line float inverses, by size; every other size runs the loop
_FLOAT_INVERSE = {2: _float_inverse2, 3: _float_inverse3}


class _kept:
    """A value built on the first read and kept in the instance's
    ``__dict__``, where every later read finds it before the descriptor:
    :func:`functools.cached_property` without the lock that it takes on
    every first use before Python 3.12.  A build that raises keeps
    nothing.  It is the package's one cached attribute: matrices, bases,
    affine maps and matrix groups keep their derived values through it,
    as do a representation's action table and an object transformation's
    ``A(g)^-1``."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class Matrix(Frozen):
    """Row-major dense matrix tied to a scalar backend."""

    _fields = ("entries", "backend")

    def __init__(self, entries: tuple, backend: Backend):
        _set(self, "entries", entries)
        _set(self, "backend", backend)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], backend: Backend) -> "Matrix":
        coerced = tuple(tuple(backend.coerce(x) for x in row) for row in rows)
        if not coerced or not coerced[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        width = len(coerced[0])
        if any(len(row) != width for row in coerced):
            raise DimensionMismatch("matrix rows have unequal lengths")
        return cls(coerced, backend)

    @classmethod
    @lru_cache(maxsize=64)
    def identity(cls, n: int, backend: Backend) -> "Matrix":
        """The ``n``-by-``n`` identity, shared by every caller asking for
        that size and backend, so its operand forms are built once and a
        frame at the default auxiliary basis can be recognised by identity."""
        one, zero = backend.one(), backend.zero()
        return cls(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
            backend,
        )

    @classmethod
    def diagonal(cls, values: Sequence, backend: Backend) -> "Matrix":
        zero = backend.zero()
        vals = [backend.coerce(v) for v in values]
        n = len(vals)
        return cls(
            tuple(
                tuple(vals[i] if i == j else zero for j in range(n)) for i in range(n)
            ),
            backend,
        )

    @_kept
    def _exact_rows(self) -> tuple:
        """The rows in :func:`_int_rows` form."""
        return _int_rows(self.entries)

    @_kept
    def _exact_cols(self) -> tuple:
        """The columns in :func:`_int_rows` form."""
        return _int_rows(zip(*self.entries))

    @_kept
    def flat(self) -> tuple:
        """The entries row by row."""
        return tuple(chain.from_iterable(self.entries))

    @_kept
    def _hash(self) -> int:
        """The hash of the fields."""
        return Frozen.__hash__(self)

    def __hash__(self) -> int:
        return self._hash

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return len(self.entries) == len(self.entries[0])

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)), self.backend)

    def mul(self, other: "Matrix") -> "Matrix":
        self.backend.require_same(other.backend)
        if len(self.entries[0]) != len(other.entries):
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if self.backend.is_exact:
            return _trusted(_exact_products(self._exact_rows, other._exact_cols), self.backend)
        a, b = self.entries, other.entries
        kernel = _FLOAT_MUL.get((len(a), len(b), len(b[0])), _float_mul)
        return _trusted(kernel(a, b), self.backend)

    def add(self, other: "Matrix") -> "Matrix":
        self.backend.require_same(other.backend)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.backend,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        self.backend.require_same(other.backend)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.backend,
        )

    def scale(self, c) -> "Matrix":
        c = self.backend.coerce(c)
        return Matrix(
            tuple(tuple(c * a for a in row) for row in self.entries), self.backend
        )

    def matvec(self, u: Vector) -> Vector:
        """Apply to a column vector: ``(M u)_r = sum_c M[r][c] u[c]``."""
        if len(u) != len(self.entries[0]):
            raise DimensionMismatch(f"expected length {self.ncols}, got {len(u)}")
        if self.backend.is_exact:
            return tuple(
                row[0] for row in _exact_products(self._exact_rows, _int_rows((u,)))
            )
        kernel = _FLOAT_MATVEC.get((len(self.entries), len(u)), _float_matvec)
        return kernel(self.entries, u)

    def vecmat(self, u: Vector) -> Vector:
        """Apply to a row vector: ``(u M)_c = sum_r u[r] M[r][c]``."""
        if len(u) != len(self.entries):
            raise DimensionMismatch(f"expected length {self.nrows}, got {len(u)}")
        if self.backend.is_exact:
            return _exact_products(_int_rows((u,)), self._exact_cols)[0]
        kernel = _FLOAT_VECMAT.get((len(u), len(self.entries[0])), _float_vecmat)
        return kernel(self.entries, u)

    def det(self) -> Scalar:
        """Determinant: Bareiss elimination when exact, Gaussian
        elimination with partial pivoting when float."""
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        if self.backend.is_exact:
            return _bareiss_det(*self._exact_rows)
        return _float_det(self.entries)

    def inverse(self) -> "Matrix":
        """Inverse by Gauss-Jordan elimination, fraction-free when exact;
        raises Singular.  The inverse is kept on the matrix, so each
        matrix is inverted once; a :class:`Singular` is raised again."""
        return self._inverse

    @_kept
    def _inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        if self.backend.is_exact:
            return _trusted(_fraction_free_inverse(*self._exact_rows), self.backend)
        kernel = _FLOAT_INVERSE.get(len(self.entries), _float_inverse)
        return _trusted(kernel(self.entries, self.backend.tolerance), self.backend)

    def is_invertible(self) -> bool:
        """A determinant the backend does not call zero."""
        return not self.backend.is_zero(self.det())

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, blocks of ``self[i][j] * other``; exact
        entries are one ``Fraction`` each from the integer rows."""
        self.backend.require_same(other.backend)
        if self.backend.is_exact:
            (a_ints, a_dens), (b_ints, b_dens) = self._exact_rows, other._exact_rows
            return Matrix(
                tuple(
                    tuple(Fraction(x * y, d) for x in arow for y in brow)
                    for arow, da in zip(a_ints, a_dens)
                    for brow, db in zip(b_ints, b_dens)
                    for d in (da * db,)
                ),
                self.backend,
            )
        rows = []
        for arow in self.entries:
            for brow in other.entries:
                rows.append(tuple(a * b for a in arow for b in brow))
        return Matrix(tuple(rows), self.backend)

    def block_diag(self, other: "Matrix") -> "Matrix":
        self.backend.require_same(other.backend)
        zero = self.backend.zero()
        top = tuple(row + (zero,) * other.ncols for row in self.entries)
        bottom = tuple((zero,) * self.ncols + row for row in other.entries)
        return Matrix(top + bottom, self.backend)

    def eq(self, other: "Matrix") -> bool:
        """Equal shapes and entries close under the backend's comparison."""
        return len(self.entries) == len(other.entries) and self.backend.close(self.flat, other.flat)

    def max_diff(self, other: "Matrix") -> float:
        """The largest entrywise difference, as a float."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        return self.backend.compare(self.flat, other.flat)[1]

    def is_identity(self) -> bool:
        return self.is_square and self.eq(Matrix.identity(len(self.entries), self.backend))


def _trusted(entries: tuple, backend: Backend) -> Matrix:
    """``Matrix(entries, backend)`` for a kernel's result, whose row tuples
    need no check: the two fields stored in the new instance's ``__dict__``
    in the order :meth:`Matrix.__init__` sets them, without its two
    ``object.__setattr__`` calls."""
    m = object.__new__(Matrix)
    fields = m.__dict__
    fields["entries"] = entries
    fields["backend"] = backend
    return m
