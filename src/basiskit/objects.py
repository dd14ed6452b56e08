"""Geometrical objects: functor-valued coordinates over an anchor basis.

An object of type ``A`` holds a coordinate row ``w`` in an auxiliary
space ``W`` together with a basis of ``W`` and an anchor basis of the
underlying space.  A group element ``a`` acts through the grid ``A(a)``
of the functor:

- coordinates:   ``w' = w @ A(a)^-1``
- the W basis:   ``E' = A(a) @ E``  (passive recombination)
- the anchor:    passive transformation by ``a``

The representative ``w @ E`` is unchanged by construction, which is the
invariance principle this module exists to check.

The law is one :class:`ObjectTransformation` per element, and the action
is an ordinary :class:`~basiskit.representations.Representation` on the
objects of one type over one space: left (``T_b(T_a o) = T_{ba} o``) and
covariant.  :func:`object_representation` builds it, so the generic
checks apply to objects: ``orbit(object_representation(obj, group),
obj)`` lists the orbit of ``obj`` under the stored elements of ``group``,
and :func:`~basiskit.representations.orbit_closure_check` checks that
re-enumerating it from any of its points gives it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import isfinite
from operator import mul
from random import Random
from typing import Optional, Sequence

from .bases import (
    Basis,
    _basis_entries,
    _check_acts,
    _linear_grid,
    _recombine,
    change_of_basis,
)
from .errors import (
    AnchorMismatch,
    BasiskitError,
    DimensionMismatch,
    GroupSpaceMismatch,
    InfeasibleExhaustive,
    Singular,
    TypeMismatch,
)
from .groups import GroupElement, MatrixGroup
from .matrices import Matrix, _fold, _kept, vec_add, vec_scale, vector
from .representations import (
    DEFAULT_SEED,
    GridTransformation,
    Representation,
    Verdict,
    _first_failure,
    _worst,
)
from .sampling import random_vector, sample_group_element

__all__ = [
    "TypeAFunctor",
    "identity_functor",
    "fundamental_functor",
    "dual_functor",
    "tensor_power_functor",
    "direct_sum_functor",
    "table_functor",
    "functor_eval",
    "weight_dim",
    "GeometricalObject",
    "ObjectCarrier",
    "ObjectTransformation",
    "object_representation",
    "transform_object",
    "representative",
    "invariance_check",
    "invariance_sweep",
    "add_objects",
    "scale_object",
    "rebase",
    "vector_space_axioms_check",
]


@dataclass(frozen=True)
class TypeAFunctor:
    """Grid-valued assignment matching the group product: ``A(ab) = A(a) A(b)``."""

    tag: str
    power: Optional[int] = None
    parts: Optional[tuple] = None
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.tag not in (
            "identity",
            "fundamental",
            "dual",
            "tensor_power",
            "direct_sum",
            "table",
        ):
            raise BasiskitError(f"unknown functor tag {self.tag!r}")
        if self.tag == "tensor_power" and (self.power is None or self.power < 1):
            raise BasiskitError("tensor power needs a positive exponent")
        if self.tag == "direct_sum" and not self.parts:
            raise BasiskitError("direct sum needs at least one part")
        if self.tag == "table" and not self.table:
            raise BasiskitError("table functor needs its grids")

    def describe(self) -> str:
        if self.tag == "tensor_power":
            return f"tensor_power({self.power})"
        if self.tag == "direct_sum":
            return "direct_sum(" + ", ".join(p.describe() for p in self.parts) + ")"
        return self.tag


def identity_functor() -> TypeAFunctor:
    return TypeAFunctor("identity")


def fundamental_functor() -> TypeAFunctor:
    return TypeAFunctor("fundamental")


def dual_functor() -> TypeAFunctor:
    return TypeAFunctor("dual")


def tensor_power_functor(k: int) -> TypeAFunctor:
    return TypeAFunctor("tensor_power", power=k)


def direct_sum_functor(*parts: TypeAFunctor) -> TypeAFunctor:
    return TypeAFunctor("direct_sum", parts=tuple(parts))


def table_functor(group, grids: Sequence[Matrix]) -> TypeAFunctor:
    """Explicit grid per stored element, verified to respect the product.

    ``A(e) = 1`` and the homomorphism property ``A(ab) = A(a) A(b)`` are
    checked before the functor is accepted, ``ab`` read off the group's
    product ``table``.  On a group with generators and exact grids ``b``
    runs over the generators: ``A(a b' s) = A(a b') A(s) = A(a) A(b') A(s)
    = A(a) A(b' s)`` gives every pair by induction.  Float grids, and
    groups without generators, are checked over all stored pairs.
    """
    elements = group.store
    if elements is None:
        raise InfeasibleExhaustive("table functor needs stored elements")
    if len(grids) != len(elements):
        raise BasiskitError(
            f"table has {len(grids)} grids for {len(elements)} elements"
        )
    m = grids[0].nrows
    for grid in grids:
        if not grid.is_square or grid.nrows != m:
            raise DimensionMismatch("table grids must be square and equally sized")
    functor = TypeAFunctor("table", table=tuple(grids))
    identity_grid = _table_lookup(functor, group, group.identity)
    if not identity_grid.is_identity():
        raise BasiskitError("table functor does not send the identity to the identity")
    reduced = group.generators is not None and all(grid.backend.is_exact for grid in grids)
    for i, row in enumerate(group.table):
        for s in group.generators if reduced else range(len(elements)):
            a, b = elements[i], elements[s]
            if row[s] is None:  # the product is no stored element, which the lookup refuses
                _table_lookup(functor, group, group.compose_elements(a, b))
            if not grids[row[s]].eq(grids[i].mul(grids[s])):
                raise BasiskitError(f"table functor breaks the product at ({a!r}, {b!r})")
    return functor


def _table_lookup(functor: TypeAFunctor, group, g: GroupElement) -> Matrix:
    i = group.index_of(g)
    if i is None:
        raise BasiskitError(f"element {g!r} is not in the stored enumeration")
    return functor.table[i]


def weight_dim(functor: TypeAFunctor, n: int) -> int:
    """Dimension of the auxiliary space ``W`` over an ``n``-dimensional base."""
    if functor.tag == "identity":
        return 1
    if functor.tag in ("fundamental", "dual"):
        return n
    if functor.tag == "tensor_power":
        return n ** functor.power
    if functor.tag == "direct_sum":
        return sum(weight_dim(p, n) for p in functor.parts)
    return functor.table[0].nrows


def functor_eval(functor: TypeAFunctor, g: GroupElement) -> Matrix:
    """The grid ``A(g)``; only a dual inverts ``g``."""
    payload = _matrix_payload(functor, g)
    if payload is None:
        return _table_lookup(functor, g.group, g)
    return _grid_at(functor, payload.backend, lambda: payload, payload.inverse)


def _matrix_payload(functor: TypeAFunctor, g: GroupElement) -> Optional[Matrix]:
    """The matrix of ``g``, or ``None`` for a table functor."""
    if functor.tag == "table":
        return None
    if not isinstance(g.payload, Matrix):
        raise GroupSpaceMismatch(
            f"functor {functor.describe()} needs a matrix group element"
        )
    return g.payload


def _functor_grids(functor: TypeAFunctor, g: GroupElement) -> tuple:
    """``(A(g), A(g)^-1)``, ``A(g)`` from :func:`functor_eval`; the inverse
    is ``None`` for a table functor, whose grid the caller inverts whole.

    ``A(g)^-1 = A(g^-1)``, evaluated from the parts at ``g^-1``: Kronecker
    powers of ``g^-1``, ``g^T`` for a dual, block diagonals of the parts.
    The one ``n``-by-``n`` inverse ``g^-1`` is all it inverts.  Rationals
    are canonical, so the entries are those of ``A(g).inverse()``; floats
    round in ``g^-1`` and the products that rebuild the grid instead.
    """
    grid = functor_eval(functor, g)
    if functor.tag == "table":
        return grid, None
    payload = g.payload
    return grid, _grid_at(functor, payload.backend, payload.inverse, lambda: payload)


def _grid_at(functor: TypeAFunctor, backend, m, m_inv) -> Matrix:
    """The grid of ``functor`` at the element whose matrix is ``m()`` and
    its inverse ``m_inv()``; each is asked for only when a part needs it."""
    if functor.tag == "identity":
        return Matrix.identity(1, backend)
    if functor.tag == "fundamental":
        return m()
    if functor.tag == "dual":
        return m_inv().transpose()
    if functor.tag == "tensor_power":
        return reduce(Matrix.kron, [m()] * functor.power)
    return reduce(
        Matrix.block_diag, [_grid_at(p, backend, m, m_inv) for p in functor.parts]
    )


def _row_times_grid(
    functor: TypeAFunctor, row: tuple, m: Matrix, m_inv: Matrix, backend
) -> tuple:
    """``row A``, for ``A`` the grid of ``functor`` at the element whose
    matrix is ``m`` and its inverse ``m_inv``, without forming ``A``.

    Each entry is the products and sums of ``A.vecmat(row)`` in their
    order, less the terms of a block diagonal's zeros: a fold from
    ``+0.0`` never reaches ``-0.0``, so adding ``x * 0.0`` to it changes
    nothing while ``x`` is finite.  A dual multiplies the other matrix
    from the left, ``row (m_inv)^T = m_inv row``, the same products in
    the same order.  Over the rationals any order gives the same values.
    """
    if functor.tag == "identity":
        return Matrix.identity(1, backend).vecmat(row)
    if functor.tag == "fundamental":
        return m.vecmat(row)
    if functor.tag == "dual":
        return m_inv.matvec(row)
    if functor.tag == "tensor_power":
        return _row_times_kron_power(row, m, functor.power)
    out, start = [], 0
    for part in functor.parts:
        width = weight_dim(part, m.nrows)
        out.extend(_row_times_grid(part, row[start:start + width], m, m_inv, backend))
        start += width
    return tuple(out)


def _row_times_kron_power(row: tuple, m: Matrix, k: int) -> tuple:
    """``row`` times the Kronecker power ``m ⊗ ... ⊗ m`` of ``k`` factors.

    Floats fold each column's entries, formed as :meth:`Matrix.kron`
    forms them, as :meth:`Matrix.vecmat` folds them.  Rationals split off
    the last factor: ``row (X ⊗ m)`` is ``X^T W m`` row by row, for ``W``
    the row cut into rows of ``n``.
    """
    if k == 1:
        return m.vecmat(row)
    if m.backend.is_exact:
        n = m.nrows
        rows = tuple(row[i:i + n] for i in range(0, len(row), n))
        cols = zip(*Matrix(rows, m.backend).mul(m).entries)
        parts = [_row_times_kron_power(col, m, k - 1) for col in cols]
        return tuple(chain.from_iterable(zip(*parts)))
    factor = tuple(zip(*m.entries))
    cols = factor
    for _ in range(k - 1):
        cols = [tuple(x * y for x in xc for y in yc) for xc in cols for yc in factor]
    return tuple(_fold(map(mul, row, col), 0.0) for col in cols)


@dataclass(frozen=True)
class GeometricalObject:
    functor: TypeAFunctor
    coords: tuple
    anchor: Basis
    w_basis: Matrix

    @classmethod
    def make(
        cls,
        functor: TypeAFunctor,
        coords: Sequence,
        anchor: Basis,
        w_basis: Optional[Matrix] = None,
    ) -> "GeometricalObject":
        backend = anchor.space.backend
        m = weight_dim(functor, anchor.space.dim)
        row = vector(coords, backend)
        if len(row) != m:
            raise DimensionMismatch(
                f"functor {functor.describe()} over dimension "
                f"{anchor.space.dim} needs {m} coordinates, got {len(row)}"
            )
        if w_basis is None:
            w_basis = Matrix.identity(m, backend)
        else:
            if w_basis.nrows != m or w_basis.ncols != m:
                raise DimensionMismatch("auxiliary basis has the wrong size")
            if not w_basis.is_invertible():
                raise Singular("auxiliary basis is degenerate")
        return cls(functor, row, anchor, w_basis)

    def eq(self, other: "GeometricalObject") -> bool:
        """Same type and space, and close entries.  Over the rationals two
        objects at the very same frame compare their coordinates alone."""
        space = self.anchor.space
        if self.functor != other.functor or space != other.anchor.space:
            return False
        if space.backend.is_exact and _same_frame(self, other):
            return self.coords == other.coords
        return space.backend.close(_object_entries(self), _object_entries(other))


def _same_frame(o1: "GeometricalObject", o2: "GeometricalObject") -> bool:
    """The anchor and the auxiliary basis are the same objects."""
    return o1.anchor is o2.anchor and o1.w_basis is o2.w_basis


def _object_entries(o: GeometricalObject) -> tuple:
    """The anchor's entries, the coordinates, then the auxiliary basis.  The
    anchor comes first: it moves under every element with a linear part
    other than 1, which spreads float points over a point index's cells."""
    return _basis_entries(o.anchor) + tuple(o.coords) + o.w_basis.flat


class ObjectCarrier:
    """The objects of one functor type over the space of ``anchor``."""

    enumerable = False
    size = None

    def __init__(self, functor: TypeAFunctor, anchor: Basis):
        self.functor = functor
        self.anchor = anchor
        self.space = anchor.space
        self.weight_dim = weight_dim(functor, anchor.space.dim)
        self.tolerance = anchor.space.backend.tolerance

    def contains(self, o) -> bool:
        return (
            isinstance(o, GeometricalObject)
            and o.functor == self.functor
            and o.anchor.space == self.space
        )

    point_eq = staticmethod(GeometricalObject.eq)
    entries = staticmethod(_object_entries)

    def sample(self, rng: Random) -> GeometricalObject:
        coords = random_vector(rng, self.weight_dim, self.space.backend)
        return GeometricalObject.make(self.functor, coords, self.anchor)

    def __repr__(self) -> str:
        return f"ObjectCarrier({self.functor.describe()}, dim={self.space.dim})"


class ObjectTransformation(GridTransformation):
    """The object law of one element ``g``: ``A(g)`` moves the coordinates
    and the auxiliary basis, the linear part ``L(g)`` moves the anchor
    passively.  ``A(g)^-1`` is given, as ``A(g^-1)`` from the parts, or for
    a table functor or a grid from :meth:`with_grid` inverted on first use.

    As a grid it is ``A(g) ⊕ L(g)``, which composes, inverts and compares
    like any other grid.
    """

    def __init__(
        self,
        carrier: ObjectCarrier,
        functor_grid: Matrix,
        anchor_grid: Matrix,
        functor_inverse: Optional[Matrix] = None,
    ):
        self.carrier = carrier
        self.functor_grid = functor_grid
        self.anchor_grid = anchor_grid
        if functor_inverse is not None:
            self.__dict__["functor_inverse"] = functor_inverse
        # the last frame moved: (anchor, w_basis, moved anchor, moved w_basis)
        self._frame = None

    @classmethod
    def of(cls, carrier: ObjectCarrier, g: GroupElement) -> "ObjectTransformation":
        functor_grid, functor_inverse = _functor_grids(carrier.functor, g)
        _check_acts(g, carrier.space)
        return cls(carrier, functor_grid, _linear_grid(g), functor_inverse)

    @_kept
    def functor_inverse(self) -> Matrix:
        return self.functor_grid.inverse()

    @property
    def grid(self) -> Matrix:
        return self.functor_grid.block_diag(self.anchor_grid)

    @classmethod
    def trusted(cls, carrier: ObjectCarrier, grid: Matrix) -> "ObjectTransformation":
        """The transformation of ``grid``, read as ``A(g) ⊕ L(g)``."""
        m, rows = carrier.weight_dim, grid.entries
        blocks = (tuple(r[:m] for r in rows[:m]), tuple(r[m:] for r in rows[m:]))
        return cls(carrier, *(Matrix(b, grid.backend) for b in blocks))

    def apply(self, obj: GeometricalObject) -> GeometricalObject:
        """Move coordinates, auxiliary basis and anchor together.  The frame,
        anchor and auxiliary basis, is moved once for the last frame seen:
        objects at one frame share the moved one."""
        coords = self._moved_coords(obj)
        frame = self._frame
        if frame is None or frame[0] is not obj.anchor or frame[1] is not obj.w_basis:
            frame = self._frame = (
                obj.anchor,
                obj.w_basis,
                _recombine(obj.anchor, self.anchor_grid),
                self._moved_w_basis(obj.w_basis),
            )
        return GeometricalObject(obj.functor, coords, frame[2], frame[3])

    def moved_representative(self, obj: GeometricalObject) -> tuple:
        """``representative(self.apply(obj))`` bit for bit, with no moved
        anchor: ``w' E'``."""
        return self._moved_w_basis(obj.w_basis).vecmat(self._moved_coords(obj))

    def _moved_coords(self, obj: GeometricalObject) -> tuple:
        """``w' = w A(g)^-1``."""
        return self.functor_inverse.vecmat(obj.coords)

    def _moved_w_basis(self, w_basis: Matrix) -> Matrix:
        """``E' = A(g) E``; over the rationals ``A(g)`` itself at the shared
        identity.  A float product is always made: ``0.0 + x * 1.0`` turns
        a ``-0.0`` of ``A(g)`` into ``0.0``."""
        grid, backend = self.functor_grid, w_basis.backend
        if backend.is_exact and w_basis is Matrix.identity(w_basis.nrows, backend):
            return grid
        return grid.mul(w_basis)


def object_representation(obj: GeometricalObject, group) -> Representation:
    """The object law as a left, covariant representation of ``group`` on
    the objects of ``obj``'s type over its anchor's space."""
    carrier = ObjectCarrier(obj.functor, obj.anchor)
    return Representation(
        group,
        carrier,
        "left",
        lambda g: ObjectTransformation.of(carrier, g),
        variance_claim="covariant",
        label=f"object({obj.functor.describe()})",
    )


def transform_object(obj: GeometricalObject, g: GroupElement) -> GeometricalObject:
    """Move the object by ``g``: coordinates, auxiliary basis, anchor together."""
    return ObjectTransformation.of(ObjectCarrier(obj.functor, obj.anchor), g).apply(obj)


def representative(obj: GeometricalObject) -> tuple:
    """The invariant element of ``W``: coordinates contracted with the basis."""
    return obj.w_basis.vecmat(obj.coords)


def _swept_representative(obj: GeometricalObject, g: GroupElement) -> tuple:
    """``representative(transform_object(obj, g))`` bit for bit, with no
    grid formed: ``w A(g^-1)`` and then ``A(g)`` act on the coordinate row
    through the functor tree, and the ``n``-by-``n`` element is all that
    is inverted.  A table functor, an auxiliary basis other than the shared
    identity, or a float row that does not stay finite (where a block
    diagonal's zeros would make NaNs) takes the grid path of
    :meth:`ObjectTransformation.moved_representative`."""
    functor, coords, space = obj.functor, obj.coords, obj.anchor.space
    if functor.tag != "table" and obj.w_basis is Matrix.identity(len(coords), space.backend):
        m = _matrix_payload(functor, g)
        m_inv = None if functor.tag == "identity" else m.inverse()
        _check_acts(g, space)
        moved = _row_times_grid(functor, coords, m_inv, m, space.backend)
        after = _row_times_grid(functor, moved, m, m_inv, space.backend)
        # a non-finite entry of a row makes every entry of its block in the
        # next row non-finite, so a finite ``after`` had finite rows before it
        if space.backend.is_exact or all(map(isfinite, after)):
            return after
    carrier = ObjectCarrier(functor, obj.anchor)
    return ObjectTransformation.of(carrier, g).moved_representative(obj)


def invariance_sweep(cases, mode: str = "stored-elements") -> tuple:
    """The invariance law on every case: ``(verdict, mean residual)``.

    A case is ``(obj, g, before, after)``: an object, an element, and the
    representatives of ``obj`` and of ``transform_object(obj, g)``, or
    ``None`` for one the caller does not have yet.  A missing ``after`` is
    computed on the coordinate row alone (:func:`_swept_representative`),
    with no moved anchor, object or grid.  Every case runs; the witness
    is the first failure's ``(g, before, after)`` and the residual is the
    worst that :meth:`~basiskit.scalars.Backend.measure` gives.
    """
    witness = worst = None
    checked, total = 0, 0.0
    for obj, g, before, after in cases:
        if before is None:
            before = representative(obj)
        if after is None:
            after = _swept_representative(obj, g)
        holds, residual = obj.anchor.space.backend.measure(before, after)
        checked, worst = checked + 1, _worst(worst, residual)
        total += residual or 0.0
        if witness is None and not holds:
            witness = (g, before, after)
    verdict = Verdict(witness is None, mode, checked, witness, worst)
    return verdict, total / max(checked, 1)


def invariance_check(
    obj: GeometricalObject,
    g: GroupElement,
    before: Optional[tuple] = None,
    after: Optional[tuple] = None,
) -> Verdict:
    """Representative before and after the transformation must agree.

    ``before`` is ``representative(obj)`` and ``after`` that of
    ``transform_object(obj, g)``; a caller that has either already passes
    it in.
    """
    return invariance_sweep([(obj, g, before, after)], mode="direct")[0]


def _require_compatible(o1: GeometricalObject, o2: GeometricalObject) -> None:
    if o1.functor != o2.functor:
        raise TypeMismatch(
            f"functors differ: {o1.functor.describe()} vs {o2.functor.describe()}"
        )
    if o1.anchor.space.backend.is_exact and _same_frame(o1, o2):
        return
    if not o1.anchor.eq(o2.anchor) or not o1.w_basis.eq(o2.w_basis):
        raise AnchorMismatch(
            "objects are anchored at different bases; rebase one of them first"
        )


def add_objects(o1: GeometricalObject, o2: GeometricalObject) -> GeometricalObject:
    """Componentwise sum; defined only at a shared anchor."""
    _require_compatible(o1, o2)
    return GeometricalObject(
        o1.functor, vec_add(o1.coords, o2.coords), o1.anchor, o1.w_basis
    )


def scale_object(c, obj: GeometricalObject) -> GeometricalObject:
    backend = obj.anchor.space.backend
    return GeometricalObject(
        obj.functor, vec_scale(backend.coerce(c), obj.coords), obj.anchor, obj.w_basis
    )


def rebase(
    obj: GeometricalObject, target: Basis, group: Optional[MatrixGroup] = None
) -> GeometricalObject:
    """Transport the object to a different anchor explicitly.

    The connecting element is solved on the passive side and applied as a
    full object transformation, so the representative is preserved.
    """
    if group is None:
        group = MatrixGroup.general_linear(
            obj.anchor.space.dim, obj.anchor.space.backend
        )
    a = change_of_basis(obj.anchor, target, group)
    return transform_object(obj, a)


def vector_space_axioms_check(
    functor: TypeAFunctor,
    anchor: Basis,
    group: MatrixGroup,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Objects at a fixed anchor form a vector space; transforms are linear.

    Checks commutativity, associativity, zero, negatives, distributivity,
    and that ``transform`` commutes with sum and scalar multiple, on
    seeded random data.
    """
    rng = Random(seed)
    backend = anchor.space.backend
    carrier = ObjectCarrier(functor, anchor)
    zeros = [backend.zero()] * carrier.weight_dim
    zero = GeometricalObject.make(functor, zeros, anchor)

    def outcomes():
        for _ in range(samples):
            u, v, w = (carrier.sample(rng) for _ in range(3))
            c = random_vector(rng, 1, backend)[0]
            move = ObjectTransformation.of(carrier, sample_group_element(group, rng)).apply
            moved_u = move(u)
            laws = [
                ("commutative", add_objects(u, v), add_objects(v, u)),
                (
                    "associative",
                    add_objects(add_objects(u, v), w),
                    add_objects(u, add_objects(v, w)),
                ),
                ("zero", add_objects(u, zero), u),
                ("negative", add_objects(u, scale_object(-1, u)), zero),
                (
                    "distributive",
                    scale_object(c, add_objects(u, v)),
                    add_objects(scale_object(c, u), scale_object(c, v)),
                ),
                (
                    "transform-additive",
                    move(add_objects(u, v)),
                    add_objects(moved_u, move(v)),
                ),
                (
                    "transform-homogeneous",
                    move(scale_object(c, u)),
                    scale_object(c, moved_u),
                ),
            ]
            for name, lhs, rhs in laws:
                yield (name, u.coords, v.coords, c), lhs.eq(rhs), None

    return _first_failure(f"sampled(k={samples}, seed={seed})", outcomes())
