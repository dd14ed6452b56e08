"""Bases, their manifolds, and coordinate machinery.

A basis is stored as a grid of rows, one row per basis vector.  The two
transformation kinds are kept strictly apart:

- *active*: a group element moves every basis vector (and the origin of
  an affine basis); vector coordinates relative to the moved basis are
  unchanged.
- *passive*: a grid recombines the basis vectors in place,
  ``e'_j = sum_i a[j][i] e_i``, i.e. new rows are ``grid @ rows``; the
  origin of an affine basis stays put, and vector coordinates transform
  through the inverse grid, ``v' = v @ grid^-1``.

With the group product realised as the plain grid product, applying the
coordinate transformation for ``a`` and then for ``b`` equals applying
the single transformation for the product ``b a``.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Optional, Sequence

from .errors import (
    BasiskitError,
    DegenerateBasis,
    DegenerateReference,
    DependentInput,
    GroupSpaceMismatch,
    MembershipError,
    NotInOrbit,
    NullVector,
    Singular,
)
from .groups import AffineTransform, GroupElement, MatrixGroup
from .matrices import _FLOAT_VECMAT, Matrix, _float_vecmat, _kept, metric_dot, vector
from .representations import (
    DEFAULT_SEED,
    EXHAUSTIVE_WORK_CAP,
    CoordCarrier,
    GridTransformation,
    LinearTransformation,
    Representation,
    Verdict,
    _first_failure,
    _single_elements,
    check_axioms,
)
from .records import Frozen, _set
from .sampling import random_vector, sample_group_element
from .scalars import DEFAULT_TOLERANCE, Backend, approx

__all__ = [
    "VectorSpace",
    "Basis",
    "StandardCoordinates",
    "CoordinateVector",
    "CoordinateRepCheckReport",
    "BasisManifold",
    "active_transform",
    "active_coordinates_check",
    "passive_transform",
    "standard_coordinates",
    "change_of_basis",
    "vector_coordinates",
    "coordinate_transformation",
    "coordinate_representation",
    "coordinate_representation_check",
    "gram_schmidt",
    "basis_metric_signs",
    "is_g_basis",
    "transport_check",
]

SPACE_KINDS = ("central_affine", "affine", "euclid", "pseudo_euclid")

# Seeded vectors each pair of a float coordinate check is tried on.
VECTORS_PER_PAIR = 3


class VectorSpace(Frozen):
    """A finite-dimensional space with a kind, backend, and optional metric."""

    _fields = ("kind", "dim", "backend", "signature")

    def __init__(self, kind: str, dim: int, backend: Backend, signature: Optional[tuple] = None):
        if kind not in SPACE_KINDS:
            raise BasiskitError(f"unknown space kind {kind!r}")
        if dim < 1:
            raise BasiskitError("space dimension must be positive")
        if kind == "pseudo_euclid":
            sig = signature
            if sig is None or len(sig) != 2 or sig[0] + sig[1] != dim or sig[1] < 1:
                raise BasiskitError(
                    f"pseudo-euclid space of dimension {dim} needs a "
                    f"signature (p, q) with q >= 1, got {sig}"
                )
        elif kind == "euclid":
            if signature not in (None, (dim, 0)):
                raise BasiskitError("euclid signature must be (dim, 0)")
            signature = (dim, 0)
        elif signature is not None:
            raise BasiskitError(f"{kind} space takes no signature")
        _set(self, "kind", kind)
        _set(self, "dim", dim)
        _set(self, "backend", backend)
        _set(self, "signature", signature)

    @property
    def has_metric(self) -> bool:
        return self.kind in ("euclid", "pseudo_euclid")

    def metric_signs(self) -> tuple:
        if not self.has_metric:
            raise BasiskitError(f"{self.kind} space has no metric")
        p, q = self.signature
        return (1,) * p + (-1,) * q


class Basis(Frozen):
    """Ordered independent vectors, with an origin point for affine spaces."""

    _fields = ("space", "vectors", "origin")

    def __init__(self, space: VectorSpace, vectors: tuple, origin: Optional[tuple] = None):
        _set(self, "space", space)
        _set(self, "vectors", vectors)
        _set(self, "origin", origin)

    @classmethod
    def make(
        cls, space: VectorSpace, vectors: Sequence[Sequence], origin=None
    ) -> "Basis":
        rows = tuple(vector(v, space.backend) for v in vectors)
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise DegenerateBasis(
                f"expected {space.dim} vectors of length {space.dim}"
            )
        if space.kind == "affine":
            origin = (
                tuple(space.backend.zero() for _ in range(space.dim))
                if origin is None
                else vector(origin, space.backend)
            )
            if len(origin) != space.dim:
                raise DegenerateBasis("origin length does not match the space")
        elif origin is not None:
            raise BasiskitError(f"{space.kind} basis takes no origin")
        return cls(space, rows, origin)._independent()

    def _independent(self) -> "Basis":
        """This basis, once its vectors are checked to be independent."""
        if not self.rows().is_invertible():
            raise DegenerateBasis("basis vectors are linearly dependent")
        return self

    def rows(self) -> Matrix:
        """The vectors as the rows of one matrix, built once per basis."""
        return self._rows

    @_kept
    def _rows(self) -> Matrix:
        return Matrix(self.vectors, self.space.backend)

    def eq(self, other: "Basis") -> bool:
        return self.space == other.space and self.space.backend.close(
            _basis_entries(self), _basis_entries(other)
        )


class StandardCoordinates(Frozen):
    """Row ``k`` holds the coordinates of basis vector ``e_k`` in the reference."""

    _fields = ("grid", "basis", "reference")

    def __init__(self, grid: Matrix, basis: Basis, reference: Basis):
        _set(self, "grid", grid)
        _set(self, "basis", basis)
        _set(self, "reference", reference)

    def is_identity(self) -> bool:
        return self.grid.is_identity()


class CoordinateVector(Frozen):
    """Components of a vector relative to a basis."""

    _fields = ("components", "basis")

    def __init__(self, components: tuple, basis: Basis):
        _set(self, "components", components)
        _set(self, "basis", basis)

    def reconstruct(self) -> tuple:
        """Ambient vector ``sum_k components[k] e_k``."""
        return self.basis.rows().vecmat(self.components)


def _basis_entries(b: Basis) -> tuple:
    """The vectors' entries in order, then the origin's."""
    return b.rows().flat + tuple(b.origin or ())


def _linear_grid(g: GroupElement) -> Matrix:
    payload = g.payload
    if isinstance(payload, AffineTransform):
        return payload.linear
    if isinstance(payload, Matrix):
        return payload
    raise GroupSpaceMismatch(f"element {g!r} has no linear action on a space")


def _check_acts(g: GroupElement, space: VectorSpace) -> None:
    grid = _linear_grid(g)
    if grid.nrows != space.dim:
        raise GroupSpaceMismatch(
            f"element dimension {grid.nrows} does not match space dimension {space.dim}"
        )
    if grid.backend != space.backend:
        raise GroupSpaceMismatch("element and space use different scalar backends")
    if isinstance(g.payload, AffineTransform) and space.kind != "affine":
        raise GroupSpaceMismatch("affine elements act only on affine spaces")


def _require_acting(group, space: VectorSpace, where: str) -> None:
    """Raise unless ``group`` is a matrix group of the space's dimension and backend."""
    acts = isinstance(group, MatrixGroup) and group.dim == space.dim
    if not (acts and group.backend == space.backend):
        raise GroupSpaceMismatch(f"group does not act on {where}")


def active_transform(b: Basis, g: GroupElement) -> Basis:
    """Move every basis vector by ``g``; affine elements also move the origin.

    Coordinates of a simultaneously moved vector relative to the moved
    basis are unchanged, which is the defining property of the active
    side.
    """
    _check_acts(g, b.space)
    grid = _linear_grid(g)
    new_rows = tuple(grid.matvec(v) for v in b.vectors)
    new_origin = None
    if isinstance(g.payload, AffineTransform):
        new_origin = g.payload.apply(b.origin)
    elif b.space.kind == "affine":
        new_origin = grid.matvec(b.origin)
    return _moved(b, new_rows, new_origin)


def active_coordinates_check(
    b: Basis, g: GroupElement, moved: Optional[Basis] = None
) -> Verdict:
    """Moving a vector and the basis together by ``g`` leaves its components alone.

    The probes are the Kronecker vectors, then the all-ones vector; the
    witness is ``(v, before, after)``.  ``moved`` is ``active_transform(b,
    g)``, passed in by a caller that has it already.
    """
    moved = moved or active_transform(b, g)
    backend, n = b.space.backend, b.space.dim
    linear = _linear_grid(g)
    probes = Matrix.identity(n, backend).entries + ((backend.one(),) * n,)

    def outcomes():
        for v in probes:
            before = vector_coordinates(v, b).components
            after = vector_coordinates(linear.matvec(v), moved).components
            yield (v, before, after), *backend.measure(before, after)

    return _first_failure("", outcomes())


def passive_transform(b: Basis, a: GroupElement) -> Basis:
    """Recombine basis vectors in place: ``e'_j = sum_i a[j][i] e_i``.

    The origin of an affine basis is left where it is; only the vector
    part is recombined.
    """
    _check_acts(a, b.space)
    return _recombine(b, _linear_grid(a))


def _recombine(b: Basis, grid: Matrix) -> Basis:
    """The passive move by a linear grid: ``e'_j = sum_i grid[j][i] e_i``."""
    return _moved(b, grid.mul(b.rows()).entries, b.origin)


def _moved(b: Basis, rows: tuple, origin) -> Basis:
    """``b`` moved by an invertible grid to the vectors ``rows`` and ``origin``.

    The new entries are backend scalars already and are used as they
    are.  Every grid that moves a basis is invertible: a group element's
    linear part, or a grid composed and inverted from such parts.  So
    over the rationals the new rows are independent whenever the old
    ones are, and their determinant is not computed again.  In floating
    point a product can still lose rank beyond the tolerance, so the
    float backend checks it as :meth:`Basis.make` does.
    """
    moved = Basis(b.space, rows, origin)
    return moved if b.space.backend.is_exact else moved._independent()


def standard_coordinates(b: Basis, reference: Basis) -> StandardCoordinates:
    """Coordinates of each vector of ``b`` relative to ``reference``."""
    if b.space != reference.space:
        raise GroupSpaceMismatch("bases live in different spaces")
    try:
        ref_inv = reference.rows().inverse()
    except Singular as exc:
        raise DegenerateReference(str(exc)) from exc
    return StandardCoordinates(b.rows().mul(ref_inv), b, reference)


def change_of_basis(b1: Basis, b2: Basis, group: MatrixGroup) -> GroupElement:
    """The group element transporting ``b1`` to ``b2`` on the passive side.

    Solves ``rows(b2) = grid @ rows(b1)`` and wraps the grid as an
    element of ``group``; a grid outside the family means the bases are
    not connected by the structure group, reported as
    :class:`NotInOrbit`.  For an affine structure group the translation
    part is solved from the two origins.
    """
    if b1.space != b2.space:
        raise GroupSpaceMismatch("bases live in different spaces")
    _require_acting(group, b1.space, "this space")
    try:
        grid = b2.rows().mul(b1.rows().inverse())
    except Singular as exc:
        raise DegenerateReference(str(exc)) from exc
    if group.family == "AFFINE":
        if b1.space.kind != "affine":
            raise GroupSpaceMismatch("affine group acts on affine bases only")
        shift = tuple(
            x - y for x, y in zip(b2.origin, grid.matvec(b1.origin))
        )
        payload = AffineTransform(grid, shift)
    else:
        if b1.origin is not None and not b1.space.backend.close(b1.origin, b2.origin):
            raise NotInOrbit(
                "linear transports cannot move the origin of an affine basis"
            )
        payload = grid
    try:
        return group.element(payload)
    except MembershipError as exc:
        raise NotInOrbit(
            f"transport grid is outside {group.describe()}: {exc}"
        ) from exc


def transport_check(b1: Basis, b2: Basis, a: GroupElement) -> Verdict:
    """The element ``a`` transports ``b1`` to ``b2``: the passive transform
    of ``b1`` by ``a`` equals ``b2``."""
    detail = "passive transform of the source reproduces the target"
    return Verdict(passive_transform(b1, a).eq(b2), detail=detail)


def vector_coordinates(v: Sequence, b: Basis) -> CoordinateVector:
    """Solve ``v = sum_k x[k] e_k`` for the component row ``x``."""
    ambient = vector(v, b.space.backend)
    if len(ambient) != b.space.dim:
        raise GroupSpaceMismatch("vector length does not match the space")
    try:
        components = b.rows().inverse().vecmat(ambient)
    except Singular as exc:
        raise DegenerateBasis(str(exc)) from exc
    return CoordinateVector(components, b)


def coordinate_transformation(cv: CoordinateVector, a: GroupElement) -> CoordinateVector:
    """Components relative to the passively transformed basis.

    The basis rows gain the grid on the left, so components gain its
    inverse on the right: ``x' = x @ grid^-1``.  The represented ambient
    vector is unchanged.
    """
    _check_acts(a, cv.basis.space)
    grid = _linear_grid(a)
    new_components = grid.inverse().vecmat(cv.components)
    return CoordinateVector(new_components, passive_transform(cv.basis, a))


class CoordinateRepCheckReport(Frozen):
    _fields = ("composition", "effectiveness")

    def __init__(self, composition: Verdict, effectiveness: Verdict):
        _set(self, "composition", composition)
        _set(self, "effectiveness", effectiveness)

    @property
    def passed(self) -> bool:
        return self.composition.passed and self.effectiveness.passed


def coordinate_representation(group: MatrixGroup) -> Representation:
    """The coordinate law as a left representation on rows, ``f(g): x -> x grid(g)^-1``.

    ``f(ab)`` inverts the product itself, never built from the steps.
    """
    if not isinstance(group, MatrixGroup):
        raise GroupSpaceMismatch(f"{group!r} has no linear action on coordinates")
    carrier = CoordCarrier(group.dim, "row", group.backend)

    def assign(g: GroupElement) -> LinearTransformation:
        # the inverse of a member's invertible grid needs no determinant
        return LinearTransformation.trusted(carrier, _linear_grid(g).inverse())

    return Representation(group, carrier, "left", assign, label="coordinates")


def coordinate_representation_check(
    group: MatrixGroup, samples: int = 100, seed: int = DEFAULT_SEED
) -> CoordinateRepCheckReport:
    """Verify the coordinate transformation behaves as a representation.

    Composition is the side law of :func:`coordinate_representation`,
    with witnesses ``(x, y, u)`` where ``f(xy) u != f(x)(f(y) u)``.  Over
    the rationals it is :func:`check_axioms`.  In floating point each pair
    is checked on :data:`VECTORS_PER_PAIR` seeded vectors, which give the
    residuals: every ordered pair of a store while ``|store|**2 *
    VECTORS_PER_PAIR`` stays within :data:`EXHAUSTIVE_WORK_CAP`, otherwise
    ``samples`` seeded pairs.

    Effectiveness, a law on single elements with a mode of its own: every
    stored element, or ``samples`` seeded ones, whose linear part is not
    the identity moves some coordinate tuple.
    """
    rep = coordinate_representation(group)
    if group.backend.is_exact:
        composition = check_axioms(rep, "auto", samples, seed)
    else:
        composition = _float_composition(rep, samples, seed)
    mode, elements = _single_elements(rep, "auto", samples, seed)

    def effective(g):
        moves = _linear_grid(g).is_identity() or not rep.transformation(g).is_identity()
        return (g,), moves, None

    effectiveness = _first_failure(mode, map(effective, elements))
    return CoordinateRepCheckReport(composition, effectiveness)


def _float_composition(rep: Representation, samples, seed) -> Verdict:
    """The float side law: the pairs come first, then each draws its vectors."""
    group, rng = rep.group, Random(seed)
    store = group.store
    exhaustive = store is not None and len(store) ** 2 * VECTORS_PER_PAIR <= EXHAUSTIVE_WORK_CAP
    elements = store
    if not exhaustive:
        elements = [sample_group_element(group, rng) for _ in range(2 * samples)]
    # the n-by-n vecmat kernel, bound once, acts on the entries
    n = group.dim
    vecmat = _FLOAT_VECMAT.get((n, n), _float_vecmat)
    # each step f(g), acting on rows as x -> x grid(g)^-1, is taken once
    steps = [(g, rep.transformation(g).grid.entries) for g in elements]
    if exhaustive:
        pairs = itertools.product(steps, steps)
        mode = f"exhaustive-pairs({len(store) ** 2})"
    else:
        # consecutive draws pair up as (a, b), in the order they were drawn
        pairs = zip(steps[::2], steps[1::2])
        mode = f"sampled(k={samples}, seed={seed})"
    backend = group.backend

    def outcomes():
        for (a, step_a), (b, step_b) in pairs:
            # the independent side of the law, never built from the steps
            once = _linear_grid(b).mul(_linear_grid(a)).inverse().entries
            for _ in range(VECTORS_PER_PAIR):
                v = random_vector(rng, n, backend)
                stepped, direct = vecmat(step_b, vecmat(step_a, v)), vecmat(once, v)
                yield (b, a, v), *backend.compare(stepped, direct)

    return _first_failure(mode, outcomes())


def gram_schmidt(
    vectors: Sequence[Sequence],
    signature: tuple,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Basis:
    """Orthonormalise float vectors against the diagonal metric of ``signature``.

    Processes the input in order without pivoting.  Each residue is the
    input vector minus its projections on the vectors already produced.
    Under ``approx(tolerance)``, a residue whose entries all vanish raises
    :class:`DependentInput`, and one of vanishing scalar square in a
    pseudo-euclid metric raises :class:`NullVector`.  The output basis
    lives in the euclid or pseudo-euclid space of the signature, with
    each vector normalised to scalar square plus or minus one.

    For a mixed signature the vectors are regrouped at the end, positive
    squares first, so the gram matrix is the metric itself and not a
    permutation of it.  Within each sign the input order is kept; the
    sign counts always match the signature for independent inputs.
    """
    p, q = signature
    n = p + q
    backend = approx(tolerance)
    space = VectorSpace(
        "euclid" if q == 0 else "pseudo_euclid",
        n,
        backend,
        signature=None if q == 0 else (p, q),
    )
    signs = space.metric_signs()
    if len(vectors) != n:
        raise DegenerateBasis(f"expected {n} input vectors, got {len(vectors)}")
    produced: list = []
    produced_signs: list = []
    for i, raw in enumerate(vectors):
        v = vector(raw, backend)
        if len(v) != n:
            raise DegenerateBasis(f"input vector {i} has length {len(v)}")
        residue = list(v)
        for e, sigma in zip(produced, produced_signs):
            coeff = sigma * metric_dot(tuple(residue), e, signs)
            residue = [r - coeff * x for r, x in zip(residue, e)]
        if all(map(backend.is_zero, residue)):
            raise DependentInput(i)
        square = metric_dot(tuple(residue), tuple(residue), signs)
        if backend.is_zero(square):
            if q == 0:
                raise DependentInput(i)
            raise NullVector(i)
        sigma = 1 if square > 0 else -1
        norm = abs(square) ** 0.5
        produced.append(tuple(r / norm for r in residue))
        produced_signs.append(sigma)
    if q > 0:
        ordered = [v for v, s in zip(produced, produced_signs) if s > 0]
        ordered += [v for v, s in zip(produced, produced_signs) if s < 0]
        produced = ordered
    return Basis.make(space, produced)


def basis_metric_signs(b: Basis) -> tuple:
    """Scalar squares of the basis vectors under the space's metric."""
    signs = b.space.metric_signs()
    return tuple(metric_dot(v, v, signs) for v in b.vectors)


def is_g_basis(b: Basis) -> Verdict:
    """Does the basis satisfy its space's structure-group relationship?

    Metric spaces demand the Gram matrix equal the metric exactly (in
    order), with the float backend's residual; the affine kinds only
    demand independence, which holds by construction.
    """
    if not b.space.has_metric:
        return Verdict(True, detail="independent")
    backend = b.space.backend
    eta = Matrix.diagonal(b.space.metric_signs(), backend)
    rows = b.rows()
    gram = rows.mul(eta).mul(rows.transpose())
    holds, residual = backend.measure(gram.flat, eta.flat)
    if holds:
        return Verdict(True, residual_max=residual, detail="orthonormal")
    return Verdict(False, residual_max=residual, detail="gram matrix differs from the metric")


class PassiveBasisTransformation(GridTransformation):
    """Passive recombination of bases, acting on a basis manifold carrier.

    Its grid is a group element's linear part, which membership has
    already decided is invertible.
    """

    def apply(self, b: Basis) -> Basis:
        return _recombine(b, self.grid)


class BasisCarrier:
    """Carrier whose points are the bases of one manifold."""

    enumerable = False
    size = None

    def __init__(self, manifold: "BasisManifold"):
        self.manifold = manifold

    def contains(self, b) -> bool:
        if not isinstance(b, Basis) or b.space != self.manifold.reference.space:
            return False
        if self.manifold.group.family == "SO":
            return is_g_basis(b).passed
        return True

    def point_eq(self, b1: Basis, b2: Basis) -> bool:
        return b1.eq(b2)

    @property
    def tolerance(self) -> float:
        return self.manifold.reference.space.backend.tolerance

    def entries(self, b: Basis) -> list:
        return _basis_entries(b)

    def sample(self, rng: Random) -> Basis:
        g = sample_group_element(self.manifold.group, rng)
        return passive_transform(self.manifold.reference, g)

    def __repr__(self) -> str:
        return f"BasisCarrier({self.manifold!r})"


class BasisManifold:
    """All bases reachable from a reference under a structure group."""

    def __init__(self, reference: Basis, group: MatrixGroup):
        space = reference.space
        _require_acting(group, space, "the reference's space")
        if group.family == "AFFINE" and space.kind != "affine":
            raise GroupSpaceMismatch("affine structure group needs an affine space")
        if group.family == "SO":
            if not space.has_metric:
                raise GroupSpaceMismatch(
                    "metric-preserving structure group needs a metric space"
                )
            if group.signature != space.signature:
                raise GroupSpaceMismatch(
                    f"group signature {group.signature} differs from "
                    f"space signature {space.signature}"
                )
            report = is_g_basis(reference)
            if not report.passed:
                raise GroupSpaceMismatch(
                    f"reference basis is not orthonormal: {report.detail}"
                )
        self.reference = reference
        self.group = group

    def contains(self, b: Basis) -> bool:
        try:
            self.change_of_basis(self.reference, b)
            return True
        except (NotInOrbit, GroupSpaceMismatch):
            return False

    def change_of_basis(self, b1: Basis, b2: Basis) -> GroupElement:
        return change_of_basis(b1, b2, self.group)

    def representation(self) -> Representation:
        """The passive action as a left-side representation with a solver."""
        carrier = BasisCarrier(self)
        group = self.group

        def assign(a: GroupElement) -> PassiveBasisTransformation:
            return PassiveBasisTransformation(carrier, _linear_grid(a))

        return Representation(
            group,
            carrier,
            "left",
            assign,
            variance_claim="covariant",
            label=f"passive({group.describe()})",
            transport_solver=lambda u, v: change_of_basis(u, v, group),
        )

    def __repr__(self) -> str:
        return f"BasisManifold({self.group.describe()}, dim={self.reference.space.dim})"
