"""Group representations: axioms, variance, orbits, transport and twins.

A representation assigns to every group element an invertible
transformation of a carrier.  The two composition laws are kept apart
throughout:

- left side:  ``f(ab) u = f(a)(f(b) u)``
- right side: ``u f(ab) = (u f(a)) f(b)``

Variance is a separate question: a covariant assignment is a
homomorphism, a contravariant one an antihomomorphism.  Point mappings
are classified against map composition; matrix-valued assignments
against the grid product, which reproduces the classical row/column
vector conventions.  Both laws are about the same pairs of elements, and
:func:`check_laws` decides them in one pass over those pairs.

How the checks run: :func:`_plan` picks exhaustive or sampled, and a law
check is a stream of cases plus an ``outcome`` that returns ``(witness,
holds, residual)``, the residual ``None`` where the case measured none.
:func:`_first_failure` runs the outcomes lazily, counts them, keeps the
worst residual and stops at the first witness.  Every check returns a
:class:`Verdict`.
Groups are enumerated through one attribute, ``group.store``: every
element of a finite group, the stored elements of a matrix group, or
``None`` for a group without an enumeration.  Products of stored
elements are read off ``group.table``.
"""

from __future__ import annotations

import itertools
import operator
from random import Random
from typing import Callable, Optional

from .errors import (
    BasiskitError,
    CarrierMismatch,
    DimensionMismatch,
    EnumerationCapExceeded,
    GroupMismatch,
    InfeasibleExhaustive,
    MixedGroups,
    NoSolution,
    NotCovariant,
    NotSingleTransitive,
    SideMismatch,
    Singular,
)
from .groups import (
    DEFAULT_CLOSURE_CAP,
    GroupElement,
    PointIndex,
    _after,
    _sweep,
)
from .matrices import Matrix, _kept
from .records import Frozen, _set
from .sampling import random_vector, sample_group_element
from .scalars import EXACT, Backend

__all__ = [
    "FiniteCarrier",
    "CoordCarrier",
    "SelfCarrier",
    "ProductCarrier",
    "Transformation",
    "MappingTransformation",
    "GridTransformation",
    "LinearTransformation",
    "PairTransformation",
    "FunctionTransformation",
    "compose_transformations",
    "transformations_equal",
    "Representation",
    "Verdict",
    "VarianceVerdict",
    "ClassificationReport",
    "Orbit",
    "OrbitPartitionReport",
    "SameSideWitness",
    "check_laws",
    "check_axioms",
    "check_variance",
    "variance_claim_check",
    "inverse_law_check",
    "left_shift",
    "right_shift",
    "contragredient",
    "orbit",
    "orbit_well_defined_check",
    "orbit_closure_check",
    "direct_product",
    "kernel_of_inefficiency",
    "classify",
    "solve_transport",
    "shifts_commute_check",
    "twin_representation",
    "same_side_noncommuting_witness",
    "same_side_witness_check",
    "single_transitivity_check",
    "store_membership_check",
]

EXHAUSTIVE_WORK_CAP = 1_000_000
DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 42


# -- carriers ------------------------------------------------------------
#
# Besides ``contains``, ``point_eq`` and ``sample``, a carrier gives the
# point index of orbits (:class:`~basiskit.groups.PointIndex`) a point's
# scalars, ``entries(p)``, and the ``tolerance`` of its equality.  An
# enumerable carrier also gives ``index(p)``, the position of ``p`` in
# ``points()``, or ``None`` for a point outside it: ``contains(p)`` is
# ``index(p) is not None``.


class FiniteCarrier:
    """Points ``0 .. size-1``."""

    enumerable = True
    tolerance = 0.0

    def __init__(self, size: int):
        if size < 1:
            raise BasiskitError(f"a finite carrier needs at least one point, got size {size}")
        self.size = size
        self._points = tuple(range(size))

    def points(self) -> tuple:
        return self._points

    def contains(self, p) -> bool:
        return isinstance(p, int) and 0 <= p < self.size

    def index(self, p) -> Optional[int]:
        return p if self.contains(p) else None

    def point_eq(self, p, q) -> bool:
        return p == q

    def entries(self, p) -> tuple:
        return (p,)

    def sample(self, rng: Random):
        return rng.randrange(self.size)

    def __repr__(self) -> str:
        return f"FiniteCarrier({self.size})"


class CoordCarrier:
    """Coordinate tuples of a fixed dimension, row or column layout."""

    enumerable = False
    size = None

    def __init__(self, dim: int, layout: str, backend: Backend):
        if layout not in ("row", "column"):
            raise BasiskitError(f"unknown layout {layout!r}")
        if dim < 1:
            raise BasiskitError(f"a coordinate carrier needs a positive dimension, got {dim}")
        self.dim = dim
        self.layout = layout
        self.backend = backend
        self.tolerance = backend.tolerance

    def points(self):
        raise InfeasibleExhaustive("coordinate carrier is not enumerable")

    def contains(self, p) -> bool:
        return isinstance(p, tuple) and len(p) == self.dim

    def point_eq(self, p, q) -> bool:
        return self.backend.close(p, q)

    def entries(self, p) -> tuple:
        return p

    def sample(self, rng: Random):
        return random_vector(rng, self.dim, self.backend)

    def __repr__(self) -> str:
        return f"CoordCarrier(dim={self.dim}, layout={self.layout})"


class SelfCarrier:
    """The group acting on its own elements."""

    def __init__(self, group):
        self.group = group

    @property
    def enumerable(self) -> bool:
        return self.group.store is not None

    @property
    def size(self) -> Optional[int]:
        return None if self.group.store is None else len(self.group.store)

    def points(self) -> tuple:
        if self.group.store is None:
            raise InfeasibleExhaustive("group has no stored elements to enumerate")
        return self.group.store

    def contains(self, p) -> bool:
        """An element of the group; of a stored group, a stored one."""
        if self.group.store is None:
            return isinstance(p, GroupElement) and p.group is self.group
        return self.index(p) is not None

    def index(self, p) -> Optional[int]:
        if isinstance(p, GroupElement) and p.group is self.group:
            return self.group.index_of(p)
        return None

    def point_eq(self, p, q) -> bool:
        return p.eq_to(q)

    @property
    def tolerance(self) -> float:
        return getattr(self.group, "backend", EXACT).tolerance

    def entries(self, p):
        return self.group.payload_entries(p.payload)

    def sample(self, rng: Random):
        return sample_group_element(self.group, rng)

    def __repr__(self) -> str:
        return f"SelfCarrier({self.group!r})"


class ProductCarrier:
    """Cartesian product of two carriers; points are pairs."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def enumerable(self) -> bool:
        return self.left.enumerable and self.right.enumerable

    @property
    def size(self) -> Optional[int]:
        if not self.enumerable:
            return None
        return self.left.size * self.right.size

    def points(self) -> tuple:
        return tuple(
            itertools.product(self.left.points(), self.right.points())
        )

    def contains(self, p) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and self.left.contains(p[0])
            and self.right.contains(p[1])
        )

    def index(self, p) -> Optional[int]:
        """Row-major, as ``points()`` lists the pairs."""
        if not self.contains(p):
            return None
        return self.left.index(p[0]) * self.right.size + self.right.index(p[1])

    def point_eq(self, p, q) -> bool:
        return self.left.point_eq(p[0], q[0]) and self.right.point_eq(p[1], q[1])

    @property
    def tolerance(self) -> float:
        return max(self.left.tolerance, self.right.tolerance)

    def entries(self, p) -> tuple:
        return (*self.left.entries(p[0]), *self.right.entries(p[1]))

    def sample(self, rng: Random):
        return (self.left.sample(rng), self.right.sample(rng))

    def __repr__(self) -> str:
        return f"ProductCarrier({self.left!r}, {self.right!r})"


# -- transformations -----------------------------------------------------


class Transformation:
    """Invertible map of a carrier."""

    carrier = None

    def apply(self, p):
        raise NotImplementedError

    def inverted(self) -> "Transformation":
        raise NotImplementedError

    def is_identity(self) -> bool:
        raise NotImplementedError


class MappingTransformation(Transformation):
    """Bijection of an enumerable carrier, built as ``(carrier, row)``:
    entry ``j`` of the list ``row`` is the index in ``carrier.points()`` of
    the image of point ``j``.

    The constructor checks that the row is a permutation of the indices.
    A row that is one by construction (a row or column of a Cayley table,
    a composite or an inverse of rows) is taken as it is by :meth:`trusted`.
    """

    def __init__(self, carrier, row: list):
        if not carrier.enumerable:
            raise InfeasibleExhaustive("mapping needs an enumerable carrier")
        if len(row) != carrier.size:
            raise BasiskitError(f"mapping covers {len(row)} of {carrier.size} points")
        outside = (j for j, i in enumerate(row) if type(i) is not int or not 0 <= i < len(row))
        j = next(outside, None)
        if j is not None:
            raise CarrierMismatch(f"mapping sends point {carrier.points()[j]!r} outside the carrier")
        if len(set(row)) != len(row):
            raise Singular("mapping is not injective")
        self.carrier = carrier
        self.row = list(row)

    @classmethod
    def trusted(cls, carrier, row: list) -> "MappingTransformation":
        """The mapping of ``row``, a permutation by construction, unchecked."""
        t = cls.__new__(cls)
        t.carrier, t.row = carrier, row
        return t

    def apply(self, p):
        j = self.carrier.index(p)
        if j is None:
            raise CarrierMismatch(f"point {p!r} is outside the mapping's domain")
        return self.carrier.points()[self.row[j]]

    def inverted(self) -> "MappingTransformation":
        inverse = [0] * len(self.row)
        for j, image in enumerate(self.row):
            inverse[image] = j
        return MappingTransformation.trusted(self.carrier, inverse)

    def is_identity(self) -> bool:
        return self.row == list(range(len(self.row)))


class GridTransformation(Transformation):
    """Invertible grid acting on a carrier, built as ``(carrier, grid)``;
    composed, inverted and compared through the grid alone.

    A subclass constructor checks the grid it is given.  A grid that is
    invertible by construction, a group member's or one derived from
    checked ones, a product or an inverse, is taken unchecked by
    :meth:`trusted`, and :meth:`with_grid` builds it that way.  In
    floating point such a grid is only compared, applied or inverted,
    and ``inverse()`` still raises :class:`Singular` on its own.
    """

    def __init__(self, carrier, grid: Matrix):
        self.carrier = carrier
        self.grid = grid

    @classmethod
    def trusted(cls, carrier, grid: Matrix) -> "GridTransformation":
        """The transformation of ``grid``, invertible by construction, unchecked."""
        t = cls.__new__(cls)
        t.carrier, t.grid = carrier, grid
        return t

    def with_grid(self, grid: Matrix) -> "GridTransformation":
        return self.trusted(self.carrier, grid)

    def after(self, inner: "GridTransformation") -> "GridTransformation":
        """``self`` after ``inner``, for a grid multiplying points from the left."""
        return self.with_grid(self.grid.mul(inner.grid))

    def inverted(self) -> "GridTransformation":
        return self.with_grid(self.grid.inverse())

    def is_identity(self) -> bool:
        return self.grid.is_identity()


class LinearTransformation(GridTransformation):
    """Invertible grid acting on a coordinate carrier.

    Column layout contracts ``u' = M u``; row layout ``u' = u M``.
    """

    def __init__(self, carrier: CoordCarrier, grid: Matrix):
        if grid.nrows != carrier.dim or grid.ncols != carrier.dim:
            raise DimensionMismatch(
                f"grid is {grid.nrows}x{grid.ncols}, carrier dimension {carrier.dim}"
            )
        carrier.backend.require_same(grid.backend)
        if not grid.is_invertible():
            raise Singular("transformation grid is singular")
        super().__init__(carrier, grid)

    def apply(self, p):
        if self.carrier.layout == "column":
            return self.grid.matvec(p)
        return self.grid.vecmat(p)

    def after(self, inner: "LinearTransformation") -> "LinearTransformation":
        if self.carrier.layout == "column":
            return super().after(inner)
        return self.with_grid(inner.grid.mul(self.grid))


class PairTransformation(Transformation):
    """Componentwise action on a product carrier."""

    def __init__(self, carrier: ProductCarrier, first: Transformation, second: Transformation):
        self.carrier = carrier
        self.first = first
        self.second = second

    def apply(self, p):
        return (self.first.apply(p[0]), self.second.apply(p[1]))

    def inverted(self) -> "PairTransformation":
        return PairTransformation(
            self.carrier, self.first.inverted(), self.second.inverted()
        )

    def is_identity(self) -> bool:
        return self.first.is_identity() and self.second.is_identity()


class FunctionTransformation(Transformation):
    """Opaque callable, with an optional explicit inverse."""

    def __init__(self, carrier, fn: Callable, inverse_fn: Optional[Callable] = None):
        self.carrier = carrier
        self.fn = fn
        self.inverse_fn = inverse_fn

    def apply(self, p):
        return self.fn(p)

    def inverted(self) -> "FunctionTransformation":
        if self.inverse_fn is None:
            raise BasiskitError("no inverse available for an opaque transformation")
        return FunctionTransformation(self.carrier, self.inverse_fn, self.fn)

    def is_identity(self) -> bool:
        if not self.carrier.enumerable:
            raise InfeasibleExhaustive(
                "cannot decide identity of an opaque map on a non-enumerable carrier"
            )
        return all(self.carrier.point_eq(self.fn(p), p) for p in self.carrier.points())


def compose_transformations(t1: Transformation, t2: Transformation) -> Transformation:
    """Map composition ``t1 after t2``: apply ``t2`` first."""
    if isinstance(t1, GridTransformation) and type(t1) is type(t2):
        return t1.after(t2)
    if isinstance(t1, MappingTransformation) and isinstance(t2, MappingTransformation):
        return MappingTransformation.trusted(t1.carrier, _after(t1.row, t2.row))
    if isinstance(t1, PairTransformation) and isinstance(t2, PairTransformation):
        return PairTransformation(
            t1.carrier,
            compose_transformations(t1.first, t2.first),
            compose_transformations(t1.second, t2.second),
        )
    return FunctionTransformation(t1.carrier, lambda p: t1.apply(t2.apply(p)))


def transformations_equal(t1: Transformation, t2: Transformation) -> bool:
    """Extensional equality; structural where the form allows it."""
    if isinstance(t1, GridTransformation) and type(t1) is type(t2):
        return t1.grid.eq(t2.grid)
    if isinstance(t1, MappingTransformation) and isinstance(t2, MappingTransformation):
        return t1.row == t2.row
    if isinstance(t1, PairTransformation) and isinstance(t2, PairTransformation):
        return transformations_equal(t1.first, t2.first) and transformations_equal(
            t1.second, t2.second
        )
    carrier = t1.carrier
    if not carrier.enumerable:
        raise InfeasibleExhaustive(
            "cannot compare opaque transformations on a non-enumerable carrier"
        )
    return all(
        carrier.point_eq(t1.apply(p), t2.apply(p)) for p in carrier.points()
    )


def _variance_product(t1: Transformation, t2: Transformation) -> Transformation:
    # Matrix-valued assignments are classified against the grid product,
    # which is layout independent; everything else against composition.
    if isinstance(t1, GridTransformation) and type(t1) is type(t2):
        return t1.with_grid(t1.grid.mul(t2.grid))
    return compose_transformations(t1, t2)


def _require_point(carrier, p) -> None:
    if not carrier.contains(p):
        raise CarrierMismatch(f"point {p!r} is not in the carrier")


# -- the representation type ----------------------------------------------


class Representation:
    """Assignment of transformations to group elements, with a side."""

    def __init__(
        self,
        group,
        carrier,
        side: str,
        assign: Callable[[GroupElement], Transformation],
        variance_claim: Optional[str] = None,
        label: str = "",
        transport_solver: Optional[Callable] = None,
        origin=None,
    ):
        if side not in ("left", "right"):
            raise BasiskitError(f"side must be 'left' or 'right', got {side!r}")
        self.group = group
        self.carrier = carrier
        self.side = side
        self._assign = assign
        self.variance_claim = variance_claim
        self.label = label or "representation"
        self.transport_solver = transport_solver
        self.origin = origin
        self._cache: dict = {}
        if not self.transformation(group.identity).is_identity():
            raise BasiskitError(
                f"{self.label}: the identity element is not assigned the identity map"
            )

    def transformation(self, g: GroupElement) -> Transformation:
        if not isinstance(g, GroupElement) or g.group is not self.group:
            raise MixedGroups("element does not belong to this representation's group")
        t = self._cache.get(g)
        if t is None:
            t = self._cache[g] = self._assign(g)
        return t

    def apply(self, g: GroupElement, u):
        _require_point(self.carrier, u)
        return self.transformation(g).apply(u)

    def _action_table(self) -> Optional[list]:
        """``T[i][j]``: index of the image of carrier point ``j`` under
        stored element ``i``, the rows of the mappings.

        ``None`` when the group has no store, the carrier is not enumerable
        or some assigned transformation is not a mapping; the checks then
        run their generic code, which is also the reference the table path
        must match.  A transformation that cannot be built raises here.
        """
        return self._table

    @_kept
    def _table(self) -> Optional[list]:
        if self.group.store is not None and self.carrier.enumerable:
            maps = [self.transformation(g) for g in self.group.store]
            if maps and all(isinstance(t, MappingTransformation) for t in maps):
                return [t.row for t in maps]
        return None

    def __repr__(self) -> str:
        return f"Representation({self.label}, side={self.side})"


# -- verdicts ---------------------------------------------------------------


class Verdict(Frozen):
    """Outcome of a check: what was checked, how, and any witness.

    ``residual_max`` is the worst residual the check measured, 0.0
    included, and ``None`` when it measured none: for a comparison that
    :meth:`~basiskit.scalars.Backend.measure` states measures none, for a
    law on a carrier other than coordinates, and for a law decided by
    equality alone.  A report shows it exactly when it is not ``None``.
    """

    _fields = ("passed", "mode", "checked", "counterexample", "residual_max", "detail")

    def __init__(
        self,
        passed: bool,
        mode: str = "",
        checked: int = 0,
        counterexample: Optional[tuple] = None,
        residual_max: Optional[float] = None,
        detail: str = "",
    ):
        _set(self, "passed", passed)
        _set(self, "mode", mode)
        _set(self, "checked", checked)
        _set(self, "counterexample", counterexample)
        _set(self, "residual_max", residual_max)
        _set(self, "detail", detail)


class VarianceVerdict(Frozen):
    _fields = ("verdict", "mode", "homomorphism_witness", "antihomomorphism_witness", "checked")

    def __init__(
        self,
        verdict: str,
        mode: str,
        homomorphism_witness: Optional[tuple] = None,
        antihomomorphism_witness: Optional[tuple] = None,
        checked: int = 0,
    ):
        _set(self, "verdict", verdict)
        _set(self, "mode", mode)
        _set(self, "homomorphism_witness", homomorphism_witness)
        _set(self, "antihomomorphism_witness", antihomomorphism_witness)
        _set(self, "checked", checked)


class ClassificationReport(Frozen):
    """The structure of a representation; the laws are checked apart, by
    :func:`check_laws`."""

    _fields = (
        "kernel", "effective", "transitive", "unreachable_pair",
        "single_transitive", "unique_transport", "uniqueness_agrees",
    )

    def __init__(
        self,
        kernel: tuple,
        effective: bool,
        transitive: bool,
        unreachable_pair: Optional[tuple],
        single_transitive: bool,
        unique_transport: bool,
        uniqueness_agrees: bool,
    ):
        _set(self, "kernel", kernel)
        _set(self, "effective", effective)
        _set(self, "transitive", transitive)
        _set(self, "unreachable_pair", unreachable_pair)
        _set(self, "single_transitive", single_transitive)
        _set(self, "unique_transport", unique_transport)
        _set(self, "uniqueness_agrees", uniqueness_agrees)


class Orbit(Frozen):
    """The points reached from ``base``; lookups go through ``index``,
    which holds ``points`` in order under the orbit's carrier equality.
    ``witnesses`` are ``(point, group element)`` pairs in discovery
    order.  Neither ``repr`` nor ``==`` reads ``index``."""

    _fields = ("base", "points", "witnesses")

    def __init__(self, base, points: tuple, witnesses: tuple, index: PointIndex):
        _set(self, "base", base)
        _set(self, "points", points)
        _set(self, "witnesses", witnesses)
        _set(self, "index", index)

    def witness_for(self, point) -> GroupElement:
        i = self.index.find(point)
        if i is None:
            raise NoSolution(f"point {point!r} is not in the orbit")
        return self.witnesses[i][1]

    def contains(self, point) -> bool:
        return self.index.find(point) is not None


class OrbitPartitionReport(Verdict):
    """The partition verdict with the orbits found.  Its witness, the
    ``counterexample``, is ``("orbit-mismatch", u, v)`` for a point ``v``
    in the orbit of ``u`` whose own orbit differs, or ``("coverage", u,
    hits)`` for a point ``u`` that lies in ``hits`` of the orbits found,
    not in exactly one."""

    _fields = Verdict._fields + ("orbits",)

    def __init__(
        self,
        passed: bool,
        mode: str = "",
        checked: int = 0,
        counterexample: Optional[tuple] = None,
        residual_max: Optional[float] = None,
        detail: str = "",
        orbits: tuple = (),
    ):
        super().__init__(passed, mode, checked, counterexample, residual_max, detail)
        _set(self, "orbits", orbits)


class SameSideWitness(Frozen):
    """Obstruction to a same-side commuting twin on a noncommutative group.

    At the point ``point = b`` (image of the origin under the left shift
    of ``b``), any transformation commuting with all left shifts is forced
    to produce ``required_value = b a``, realised by the conjugated element
    ``conjugate = b a b^-1``; the same-side guess produces
    ``same_side_value = a b`` instead.
    """

    _fields = ("a", "b", "origin", "point", "same_side_value", "required_value", "conjugate")

    def __init__(
        self,
        a: GroupElement,
        b: GroupElement,
        origin: GroupElement,
        point: GroupElement,
        same_side_value: GroupElement,
        required_value: GroupElement,
        conjugate: GroupElement,
    ):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "origin", origin)
        _set(self, "point", point)
        _set(self, "same_side_value", same_side_value)
        _set(self, "required_value", required_value)
        _set(self, "conjugate", conjugate)


# -- checks ------------------------------------------------------------------


def _plan(rep: Representation, sample, samples: int, seed: int, pairs: bool = True):
    """Decide exhaustive vs sampled; returns ``(exhaustive, modes, store,
    seconds, grids)``, ``seconds`` as positions in the store.

    Exhaustive needs the group's store.  A law on pairs of elements runs
    over the carrier's points too, at ``|G| |S| |X|``, unless ``grids``: two
    exact grids agree on every point exactly when they are equal, so an
    exact linear representation of a stored group is decided on its grids
    at ``|G| |S| n`` in dimension ``n``.  A law on single elements
    (``pairs=False``) leaves the carrier out, at ``|G|``.

    ``seconds`` are the second factors ``S`` of the pairs.  On a group
    with generators (a finite group, or an exact matrix group whose store
    is closed) over a carrier that compares exactly they are the group's
    generators: the side law and variance on the pairs ``(a, s)`` imply
    them on all pairs, by induction on the length of ``b`` as a word
    ``s1 s2 ... sk`` (``f(a b' s) = f(a b') f(s) = f(a) f(b') f(s) = f(a)
    f(b' s)``, the factors of each composite swapped on the right side;
    an antihomomorphism is argued in :func:`check_laws`), so every
    failure is a real counterexample.
    Rounding error grows with the word length, so float carriers run all
    pairs, ``S = G``, as do groups without generators.

    ``modes`` names the plan twice: for a law decided on grids where the
    plan allows it, and for any other law.  The exhaustive mode notes
    ``grids`` in the first, and ``generators=k`` in both when the second
    factors are ``k`` generators.
    """
    group, carrier = rep.group, rep.carrier
    elements = group.store
    grids = (
        pairs
        and elements is not None
        and isinstance(carrier, CoordCarrier)
        and carrier.backend.is_exact
        and isinstance(rep.transformation(group.identity), LinearTransformation)
    )
    enumerable = elements is not None and (grids or not pairs or carrier.enumerable)
    reduced = pairs and carrier.tolerance == 0 and group.generators is not None
    seconds = group.generators if reduced else range(len(elements or ()))
    if sample not in ("auto", "exhaustive", "sampled"):
        raise BasiskitError(f"unknown sampling mode {sample!r}")
    if sample == "exhaustive" and not enumerable:
        raise InfeasibleExhaustive("exhaustive check requested over a non-enumerable domain")
    if sample == "auto" and enumerable:
        n = len(elements)
        cost = n * len(seconds) * (carrier.dim if grids else carrier.size) if pairs else n
        sample = "exhaustive" if cost <= EXHAUSTIVE_WORK_CAP else "sampled"
    if sample == "exhaustive":
        notes = [f"generators={len(seconds)}"] if reduced else []
        modes = tuple(
            f"exhaustive({', '.join(n)})" if n else "exhaustive"
            for n in ((["grids"] if grids else []) + notes, notes)
        )
        return True, modes, elements, seconds, grids
    mode = f"sampled(k={samples}, seed={seed})"
    return False, (mode, mode), elements, seconds, grids


def _first_failure(mode: str, outcomes) -> Verdict:
    """Run ``(witness, holds, residual)`` outcomes lazily until one fails.

    ``checked`` counts the outcomes run, the failing one included;
    ``residual_max`` is the worst residual of the outcomes run, ``None``
    when none of them measured one.
    """
    checked, residual = 0, None
    for witness, holds, r in outcomes:
        checked += 1
        residual = _worst(residual, r)
        if not holds:
            return Verdict(False, mode, checked, witness, residual)
    return Verdict(True, mode, checked, None, residual)


def _worst(r: Optional[float], s: Optional[float]) -> Optional[float]:
    """The larger of two residuals, ``None`` standing for none measured."""
    return r if s is None else s if r is None else max(r, s)


def _point_compare(carrier, x, y) -> tuple:
    """``(carrier.point_eq(x, y), residual)``: a coordinate carrier's
    backend measures the two points (float points of unequal lengths are
    ``(False, inf)`` apart), a product carrier takes the worse residual of
    its halves, and any other carrier measures none."""
    if isinstance(carrier, CoordCarrier):
        try:
            return carrier.backend.measure(x, y)
        except DimensionMismatch:
            return False, float("inf")
    if isinstance(carrier, ProductCarrier):
        left, r = _point_compare(carrier.left, x[0], y[0])
        right, s = _point_compare(carrier.right, x[1], y[1])
        return left and right, _worst(r, s)
    return carrier.point_eq(x, y), None


def check_laws(
    rep: Representation,
    sample: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    side: bool = True,
    variance: bool = True,
) -> tuple:
    """The side law and the variance of ``rep`` from one pass over the
    pairs of :func:`_plan`: ``(axioms, classification)``, a :class:`Verdict`
    and a :class:`VarianceVerdict`, ``None`` for a law not asked for.

    The side law runs on triples ``(a, b, u)``, its case 1 the identity law,
    which :class:`Representation` refuses to build without.  Variance tells
    a homomorphism, ``f(ab) = f(a) f(b)``, from an antihomomorphism, ``f(ba)
    = f(a) f(b)``.  With ``b`` over a group's generators the second reads
    ``f(s a) = f(a) f(s)``, which decides the law by induction on ``b``
    written as ``s b'``: ``f(s b' a) = f(b' a) f(s) = f(a) f(b') f(s) =
    f(a) f(s b')``.  Exhaustively, each pair ``(a, s)`` forms ``f(a) f(s)``
    once (:func:`_pair_outcomes`) and the side law names the first failing
    triple in enumeration order; an exact linear representation is decided
    on its grids (mode ``exhaustive(grids)``), its witness point a Kronecker
    vector.  Otherwise ``samples`` seeded triples run, variance on the pair
    of each (:func:`_triple_outcomes`).  The side law counts cases from 1 up
    to its first failure, variance the pairs it runs until both halves have
    failed, and the pass stops when neither has anything left to decide.
    """
    exhaustive, modes, elements, seconds, grids = _plan(rep, sample, samples, seed)
    # the side law and the two halves of variance, while undecided; the
    # outcomes evaluate only these
    undecided = [side, variance, variance]
    if exhaustive:
        outcomes = _pair_outcomes(rep, undecided, elements, seconds, grids)
    else:
        outcomes = _triple_outcomes(rep, undecided, samples, seed)
    checked, residual, failure, pairs, witnesses = 1, None, None, 0, [None, None]
    for pair, (count, point, r), (homo, anti) in outcomes:
        side_open, homo_open, anti_open = undecided
        if side_open:
            checked, residual = checked + count, _worst(residual, r)
            if point is not None:
                failure, undecided[0] = (*pair, point), False
        if homo_open or anti_open:
            pairs += 1
            if homo_open and not homo:
                witnesses[0], undecided[1] = pair, False
            if anti_open and not anti:
                witnesses[1], undecided[2] = pair, False
        if not any(undecided):
            break
    axioms = Verdict(failure is None, modes[0], checked, failure, residual) if side else None
    homo, anti = witnesses
    kinds = {(True, True): "both", (True, False): "covariant", (False, True): "contravariant"}
    kind = kinds.get((homo is None, anti is None), "neither")
    return axioms, VarianceVerdict(kind, modes[1], homo, anti, pairs) if variance else None


def _pair_outcomes(rep, undecided, elements, seconds, grids):
    """The pairs ``(a, s)`` of an exhaustive plan, in order, as ``((a, s),
    (cases, witness point or None, None), (homomorphism, antihomomorphism))``,
    leaving out the laws no longer ``undecided``.

    ``f(g)`` is listed once per element: as an integer row for mappings, a
    grid on the grid plan, a transformation otherwise.  ``f(a s)`` is read
    at ``table[i][j]``, and ``f(s a)`` while the antihomomorphism half is
    open; only a product that is no stored element is evaluated.  The side law compares
    ``f(a s)`` with ``f(a)`` after ``f(s)`` on the left, ``f(s)`` after
    ``f(a)`` on the right: the product ``f(a) f(s)`` of variance for
    mappings and column grids on the left and for row grids on the right,
    the product in the other order otherwise.  Only a failing pair looks for
    its witness, the first carrier point or Kronecker vector moved wrongly.
    """
    group, carrier, f = rep.group, rep.carrier, rep.transformation
    maps = [f(g) for g in elements]
    if grids:
        values, value = [t.grid for t in maps], lambda g: f(g).grid
        mul, eq = Matrix.mul, operator.eq
    elif (rows := rep._action_table()) is not None:
        values, value = rows, lambda g: f(g).row
        mul, eq = _after, operator.eq
    else:
        values, value = maps, f
        mul, eq = _variance_product, transformations_equal
    probes = Matrix.identity(carrier.dim, carrier.backend).entries if grids else carrier.points()
    table = group.table
    shared = (rep.side == "left") != (grids and carrier.layout == "row")
    # the grid plan counts one case a pair, the others one a point
    holds = (1 if grids else len(probes), None, None)
    for i, a in enumerate(elements):
        x, row = values[i], table[i]
        for j in seconds:
            s, y = elements[j], values[j]
            side_open, homo_open, anti_open = undecided
            product = mul(x, y) if homo_open or anti_open or shared else None
            if side_open or homo_open:
                k = row[j]
                fas = values[k] if k is not None else value(group.compose_elements(a, s))
            if anti_open:
                ksa = table[j][i]
                fsa = values[ksa] if ksa is not None else value(group.compose_elements(s, a))
            homo = (homo_open or shared and side_open) and eq(fas, product)
            side = holds
            if side_open and not (homo if shared else eq(fas, mul(y, x))):
                fab = f(elements[k] if k is not None else group.compose_elements(a, s))
                fa, fs = maps[i], maps[j]
                moved = (n for n, u in enumerate(probes, 1) if not _side_case(rep, fa, fs, u, fab)[0])
                n = next(moved)
                side = (1 if grids else n, probes[n - 1], None)
            yield (a, s), side, (homo, anti_open and eq(fsa, product))


def _side_case(rep, fa, fb, u, fab) -> tuple:
    """``(holds, residual)`` of the side law at ``(a, b, u)``, ``fa``, ``fb``
    and ``fab`` being ``f(a)``, ``f(b)`` and ``f(ab)``.  As in
    :meth:`Representation.apply`, ``u`` and the point between the two
    steps must lie in the carrier."""
    outer, inner = (fa, fb) if rep.side == "left" else (fb, fa)
    carrier = rep.carrier
    lhs = fab.apply(u)
    _require_point(carrier, u)
    middle = inner.apply(u)
    _require_point(carrier, middle)
    return _point_compare(carrier, lhs, outer.apply(middle))


def _triple_outcomes(rep, undecided, samples: int, seed: int):
    """``samples`` seeded triples ``(a, b, u)``, drawn in that order, as in
    :func:`_pair_outcomes`: the side law at ``u``, with its residual, and
    variance on ``(a, b)``.  Both read the one ``f(a)``, ``f(b)`` and
    ``f(ab)``."""
    group, f = rep.group, rep.transformation
    rng = Random(seed)
    for _ in range(samples):
        a, b = sample_group_element(group, rng), sample_group_element(group, rng)
        u = rep.carrier.sample(rng)
        side_open, homo_open, anti_open = undecided
        fab = (side_open or homo_open) and f(group.compose_elements(a, b))
        fa, fb = f(a), f(b)
        side = (1, None, None)
        if side_open:
            holds, residual = _side_case(rep, fa, fb, u, fab)
            side = (1, None if holds else u, residual)
        product = (homo_open or anti_open) and _variance_product(fa, fb)
        homo = homo_open and transformations_equal(fab, product)
        anti = anti_open and transformations_equal(f(group.compose_elements(b, a)), product)
        yield (a, b), side, (homo, anti)


def check_axioms(
    rep: Representation,
    sample: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """The identity law and the side law: the side verdict of :func:`check_laws`."""
    return check_laws(rep, sample, samples, seed, variance=False)[0]


def check_variance(
    rep: Representation,
    sample: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> VarianceVerdict:
    """Homomorphism, antihomomorphism, both or neither: the variance verdict
    of :func:`check_laws`."""
    return check_laws(rep, sample, samples, seed, side=False)[1]


def variance_claim_check(claim: Optional[str], vv: VarianceVerdict) -> Verdict:
    """Does the classification ``vv`` bear out ``claim``, ``None`` meaning
    covariant or contravariant?  The witness is the pair, or for ``None``
    the two pairs, that refute the claim."""
    homo, anti = vv.homomorphism_witness, vv.antihomomorphism_witness
    witness = {
        "covariant": homo,
        "contravariant": anti,
        "both": homo or anti,
        None: homo and anti and (homo, anti),
    }[claim]
    detail = f"verdict {vv.verdict}, expected {claim or 'covariant or contravariant'}"
    return Verdict(witness is None, vv.mode, vv.checked, witness, detail=detail)


def _single_elements(rep: Representation, sample, samples: int, seed: int) -> tuple:
    """``(mode, elements)`` of a law on single elements: the store when
    :func:`_plan` runs it exhaustively, otherwise ``samples`` seeded
    elements."""
    exhaustive, (_, mode), elements, _, _ = _plan(rep, sample, samples, seed, pairs=False)
    if not exhaustive:
        rng = Random(seed)
        elements = [sample_group_element(rep.group, rng) for _ in range(samples)]
    return mode, elements


def inverse_law_check(
    rep: Representation,
    sample: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Verify ``f(g^-1)`` equals the map inverse of ``f(g)`` for every ``g``.

    A law of the group alone: exhaustive over a stored group, otherwise
    over ``samples`` seeded elements, whatever the carrier.
    """
    mode, elements = _single_elements(rep, sample, samples, seed)

    def outcome(g):
        expected = rep.transformation(rep.group.inverse_element(g))
        holds = transformations_equal(expected, rep.transformation(g).inverted())
        return (g,), holds, None

    return _first_failure(mode, map(outcome, elements))


# -- shifts and derived representations ---------------------------------------


def left_shift(group) -> Representation:
    """``L(a): b -> a b`` on the group's own elements; left side."""
    return _shift(group, "left")


def right_shift(group) -> Representation:
    """``R(a): b -> b a`` on the group's own elements; right side."""
    return _shift(group, "right")


def _shift(group, side: str, carrier: Optional[SelfCarrier] = None) -> Representation:
    """The shift of ``group`` on its own elements that multiplies by the
    acting element on ``side``, on ``carrier`` or a new one; covariant on
    the left, contravariant on the right: for the element stored at ``i``,
    row ``i`` of ``group.table`` on the left, column ``i`` on the right.  A
    group with generators is closed and cancels exactly, so those are
    permutations, taken unchecked; a float store's are checked."""
    carrier = carrier or SelfCarrier(group)
    if not carrier.enumerable:
        raise InfeasibleExhaustive("shift representations need enumerable elements")
    rows = list(map(list, group.table if side == "left" else zip(*group.table)))
    trusted = group.generators is not None

    def assign(a: GroupElement) -> MappingTransformation:
        i = group.index_of(a)
        if i is None:
            raise CarrierMismatch(f"the store is not closed: {a!r} is not stored")
        row = rows[i]
        if not trusted and None in row:
            j = row.index(None)
            raise _not_closed(*((i, j) if side == "left" else (j, i)))
        return (MappingTransformation.trusted if trusted else MappingTransformation)(carrier, row)

    return Representation(
        group,
        carrier,
        side,
        assign,
        variance_claim="covariant" if side == "left" else "contravariant",
        label=f"{side}-shift",
    )


def _not_closed(i: int, j: int) -> CarrierMismatch:
    """The refusal of a store that lacks the product of stored elements ``i`` and ``j``."""
    return CarrierMismatch(
        f"the store is not closed: the product of stored elements {i} "
        f"and {j} lies outside the carrier"
    )


def contragredient(rep: Representation) -> Representation:
    """``h(a) = f(a^-1)``; flips variance and side.

    The input must classify as covariant or contravariant (abelian "both"
    qualifies); an unclassifiable assignment raises :class:`NotCovariant`.
    Applying the construction twice gives back the original assignment
    extensionally, which is why the contravariant direction is accepted.
    """
    vv = check_variance(rep)
    if vv.verdict == "neither":
        raise NotCovariant(
            "contragredient needs a homomorphic or antihomomorphic assignment"
        )
    flipped_claim = {
        "covariant": "contravariant",
        "contravariant": "covariant",
        "both": "both",
    }[vv.verdict]

    def assign(g: GroupElement) -> Transformation:
        return rep.transformation(rep.group.inverse_element(g))

    return Representation(
        rep.group,
        rep.carrier,
        "right" if rep.side == "left" else "left",
        assign,
        variance_claim=flipped_claim,
        label=f"contragredient({rep.label})",
    )


# -- orbits --------------------------------------------------------------------


def orbit(rep: Representation, base, cap: int = DEFAULT_CLOSURE_CAP) -> Orbit:
    """All images of ``base`` with one witness element per point.

    Points keep discovery order (the group's element order), so the
    result is deterministic.
    """
    elements = rep.group.store
    if elements is None:
        raise InfeasibleExhaustive("orbit needs an enumerable group")
    if len(elements) > cap:
        raise EnumerationCapExceeded(
            f"group store of {len(elements)} exceeds the cap {cap}"
        )
    carrier = rep.carrier
    # an enumerable carrier contains exactly the points it indexes
    j = carrier.index(base) if carrier.enumerable else None
    if j is None and (carrier.enumerable or not carrier.contains(base)):
        raise CarrierMismatch(f"base point {base!r} is not in the carrier")
    table = rep._action_table()
    if table is not None:
        points = carrier.points()
        images = ((points[row[j]], g) for row, g in zip(table, elements))
    else:
        images = ((rep.apply(g, base), g) for g in elements)
    index = PointIndex(carrier.point_eq, carrier.entries, carrier.tolerance)
    witnesses = []
    for w, g in images:
        if index.add(w) == len(witnesses):
            witnesses.append((w, g))
    return Orbit(base, tuple(index.points), tuple(witnesses), index)


def _table_orbit(table: list, j: int) -> dict:
    """Orbit of point ``j`` as ``{point index: first element index}``,
    in discovery order."""
    reached: dict = {}
    for i, row in enumerate(table):
        reached.setdefault(row[j], i)
    return reached


def orbit_well_defined_check(rep: Representation) -> OrbitPartitionReport:
    """Orbits computed from any of their members coincide, and they partition.

    Recomputes each orbit from every one of its points with
    :func:`orbit_closure_check`; then checks that each carrier point lies
    in exactly one orbit.
    """
    if not rep.carrier.enumerable:
        raise InfeasibleExhaustive("orbit partition needs an enumerable carrier")
    all_points = rep.carrier.points()
    table = rep._action_table()
    if table is not None:
        return _table_orbit_partition(table, all_points)
    orbits: list = []
    for u in all_points:
        if any(o.contains(u) for o in orbits):
            continue
        o = orbit(rep, u)
        closure = orbit_closure_check(rep, o)
        if not closure.passed:
            v = closure.counterexample[0]
            return _partition(tuple(o.points for o in orbits), ("orbit-mismatch", u, v))
        orbits.append(o)
    for u in all_points:
        hits = sum(1 for o in orbits if o.contains(u))
        if hits != 1:
            return _partition(tuple(o.points for o in orbits), ("coverage", u, hits))
    return _partition(tuple(o.points for o in orbits))


def _partition(orbits: tuple, failure: Optional[tuple] = None) -> OrbitPartitionReport:
    """The partition verdict: the orbits found, and the witness ``failure``."""
    return OrbitPartitionReport(failure is None, counterexample=failure, orbits=orbits)


def orbit_closure_check(rep: Representation, o: Orbit) -> Verdict:
    """Re-enumerating ``o`` from any of its points gives ``o`` again.

    Runs over the points of ``o`` in order, so it needs no enumerable
    carrier.  The witness is ``(point,)`` when the orbit from ``point``
    has another size, ``(point, q)`` when it reaches a point ``q``
    outside ``o``.
    """

    def outcome(point):
        other = orbit(rep, point)
        if len(other.points) != len(o.points):
            return (point,), False, None
        for q in other.points:
            if not o.contains(q):
                return (point, q), False, None
        return (point,), True, None

    return _first_failure("exhaustive", map(outcome, o.points))


def _table_orbit_partition(table: list, points: tuple) -> OrbitPartitionReport:
    """:func:`orbit_well_defined_check` on the action table."""
    orbits: list = []
    covered: set = set()

    def as_points():
        return tuple(tuple(points[j] for j in o) for o in orbits)

    for u in range(len(points)):
        if u in covered:
            continue
        o = _table_orbit(table, u)
        for v in o:
            if _table_orbit(table, v).keys() != o.keys():
                return _partition(as_points(), ("orbit-mismatch", points[u], points[v]))
        orbits.append(o)
        covered.update(o)
    # no coverage failure is possible here: each point lies in its own
    # orbit (f(e) is the identity), and orbits that passed the comparison
    # above are disjoint
    return _partition(as_points())


def direct_product(r1: Representation, r2: Representation) -> Representation:
    """Componentwise action on the product carrier."""
    if r1.group is not r2.group:
        raise GroupMismatch("direct product needs representations of one group")
    if r1.side != r2.side:
        raise SideMismatch(f"sides differ: {r1.side} vs {r2.side}")
    carrier = ProductCarrier(r1.carrier, r2.carrier)

    def assign(g: GroupElement) -> PairTransformation:
        return PairTransformation(carrier, r1.transformation(g), r2.transformation(g))

    claim = r1.variance_claim if r1.variance_claim == r2.variance_claim else None
    return Representation(
        r1.group,
        carrier,
        r1.side,
        assign,
        variance_claim=claim,
        label=f"product({r1.label}, {r2.label})",
    )


def kernel_of_inefficiency(rep: Representation) -> tuple:
    """Elements assigned the identity transformation, in element order."""
    elements = rep.group.store
    if elements is None:
        raise InfeasibleExhaustive("kernel needs an enumerable group")
    return tuple(g for g in elements if rep.transformation(g).is_identity())


def classify(rep: Representation) -> ClassificationReport:
    """The structure of the action: kernel, effectiveness, transitivity.

    Single transitivity is decided as "transitive and effective", and
    independently cross-checked by counting transports for every ordered
    pair of carrier points; the report records whether the two agree.
    The side law and variance are not part of it: a caller that needs
    them runs :func:`check_laws`.
    """
    elements = rep.group.store
    if elements is None or not rep.carrier.enumerable:
        raise InfeasibleExhaustive("classification needs enumerable group and carrier")
    kernel = kernel_of_inefficiency(rep)
    effective = len(kernel) == 1 and kernel[0].eq_to(rep.group.identity)

    all_points = rep.carrier.points()
    base_orbit = orbit(rep, all_points[0])
    missed = (v for v in all_points if not base_orbit.contains(v))
    unreachable = next(((all_points[0], v) for v in missed), None)
    transitive = unreachable is None
    single = transitive and effective
    unique = _transport_clash(rep) is None
    return ClassificationReport(
        kernel=kernel,
        effective=effective,
        transitive=transitive,
        unreachable_pair=unreachable,
        single_transitive=single,
        unique_transport=unique,
        uniqueness_agrees=unique == single,
    )


def _transport_clash(rep) -> Optional[tuple]:
    """The first ordered pair of points ``(u, v)`` that not exactly one
    element carries ``u`` to ``v``, as ``(u, v, carriers)`` with the
    elements that do; ``None`` when transport is unique.

    The images of each ``u`` are filed by their index in the carrier, at
    ``|X| |G|`` in all; on the action table a column that is a permutation
    of the points is passed over.
    """
    elements, points, table = rep.group.store, rep.carrier.points(), rep._action_table()
    for j, u in enumerate(points):
        if table is None:
            images = [rep.carrier.index(rep.apply(g, u)) for g in elements]
        elif len(table) == len(points) == len({row[j] for row in table}):
            continue  # column j is a permutation of the points
        else:
            images = [row[j] for row in table]
        carriers: list = [[] for _ in points]
        for g, k in zip(elements, images):
            if k is not None:
                carriers[k].append(g)
        for v, found in zip(points, carriers):
            if len(found) != 1:
                return u, v, tuple(found)
    return None


def single_transitivity_check(rep: Representation) -> Verdict:
    """Exactly one element carries each carrier point to each other one:
    :func:`classify`'s transitivity, effectiveness and transport count.  The
    witness is the first of ``("unreachable", u, v)``, ``u`` the first
    point; ``("kernel", g)``, ``g`` not the identity; ``("transports", u,
    v, carriers)``, the elements, none or several, that carry ``u`` to ``v``.
    """
    summary = classify(rep)
    witness = None
    if summary.unreachable_pair is not None:
        witness = ("unreachable", *summary.unreachable_pair)
    elif not summary.effective:
        identity = rep.group.identity
        witness = ("kernel", next(g for g in summary.kernel if not g.eq_to(identity)))
    elif not summary.unique_transport:
        clash = _transport_clash(rep)
        witness = clash and ("transports", *clash)
    detail = "orbit reaches every element and the kernel is trivial"
    return Verdict(witness is None, "exhaustive", counterexample=witness, detail=detail)


def solve_transport(rep: Representation, u, v) -> GroupElement:
    """The unique ``g`` with ``f(g) u = v``.

    Uses the representation's structural solver when it has one (the
    basis manifold does), otherwise scans the stored elements; zero
    matches raise :class:`NoSolution`, several raise
    :class:`NotSingleTransitive`.
    """
    carrier = rep.carrier
    for point in (u, v):
        if not carrier.contains(point):
            raise CarrierMismatch(f"point {point!r} is not in the carrier")
    if rep.transport_solver is not None:
        g = rep.transport_solver(u, v)
        if not carrier.point_eq(rep.apply(g, u), v):
            raise NoSolution("structural solver produced a non-transport")
        return g
    elements = rep.group.store
    if elements is None:
        raise InfeasibleExhaustive("transport needs stored elements or a solver")
    matches = [g for g in elements if carrier.point_eq(rep.apply(g, u), v)]
    if not matches:
        raise NoSolution(f"no element carries {u!r} to {v!r}")
    if len(matches) > 1:
        raise NotSingleTransitive(
            f"{len(matches)} elements carry {u!r} to {v!r}"
        )
    return matches[0]


def shifts_commute_check(group) -> Verdict:
    """Left and right shifts commute: ``a (w b) = (a w) b`` over all
    triples ``(a, b, w)``, always exhaustively.

    It is :func:`commutation_check` of the two shifts on one shared
    carrier, which compares their integer rows.  A store that is not
    closed under products has no shifts, and building them raises.
    """
    # commutation_check compares carriers by identity
    carrier = SelfCarrier(group)
    return commutation_check(_shift(group, "left", carrier), _shift(group, "right", carrier))


def twin_representation(rep: Representation, origin=None) -> Representation:
    """The opposite-side representation commuting with a single transitive one.

    Identifying each carrier point ``w`` with its unique transport ``c_w``
    from the origin, the twin acts by composing on the other side: for a
    left representation ``h(a): w -> f(c_w a)(origin)``, for a right one
    ``h(a): w -> f(a c_w)(origin)``, read from the opposite shift's rows of
    ``group.table`` with no element product.  A store that is not closed
    raises here, naming the product it lacks, as its shifts do.  The chosen
    origin is recorded on the result.
    """
    report = classify(rep)
    if not (report.single_transitive and report.unique_transport):
        raise NotSingleTransitive(
            f"twin needs a single transitive representation "
            f"(transitive={report.transitive}, effective={report.effective}, "
            f"unique transport={report.unique_transport})"
        )
    carrier = rep.carrier
    points = carrier.points()
    if origin is None:
        origin = points[0]
    if not carrier.contains(origin):
        raise CarrierMismatch(f"origin {origin!r} is not in the carrier")
    reached = orbit(rep, origin)
    # the store position of each point's transport, and the point each position reaches
    t = [rep.group.index_of(reached.witness_for(w)) for w in points]
    at = dict(zip(t, range(len(t))))
    opposite = _shift(rep.group, "right" if rep.side == "left" else "left")

    def assign(a: GroupElement) -> MappingTransformation:
        row = opposite.transformation(a).row
        return MappingTransformation.trusted(carrier, [at[row[p]] for p in t])

    twin = Representation(
        rep.group,
        carrier,
        "right" if rep.side == "left" else "left",
        assign,
        variance_claim="contravariant" if rep.side == "left" else "covariant",
        label=f"twin({rep.label})",
        origin=origin,
    )
    twin._action_table()  # every row, so a store that is not closed raises here
    return twin


def commutation_check(rep1: Representation, rep2: Representation) -> Verdict:
    """Pointwise commutation of two actions on one carrier.

    Exhaustively verifies ``f(a)(h(b)(w)) = h(b)(f(a)(w))`` over all
    element pairs and carrier points; this is the defining property the
    twin construction must satisfy.
    """
    if rep1.group is not rep2.group:
        raise MixedGroups("commutation check needs one common group")
    if rep1.carrier is not rep2.carrier:
        raise CarrierMismatch("commutation check needs one common carrier")
    elements = rep1.group.store
    if elements is None or not rep1.carrier.enumerable:
        raise InfeasibleExhaustive("commutation check needs enumerable domains")
    carrier = rep1.carrier
    points = carrier.points()
    table1, table2 = rep1._action_table(), rep2._action_table()
    if table1 is not None and table2 is not None:

        def rows(a, b):
            x, y = table1[a], table2[b]
            return _after(x, y), _after(y, x)

        count, failure = _sweep(len(elements), range(len(elements)), rows)
        witness = failure and (elements[failure[0]], elements[failure[1]], points[failure[2]])
        return Verdict(failure is None, "exhaustive", count, witness)

    def outcome(a, b, w):
        lhs = rep1.apply(a, rep2.apply(b, w))
        rhs = rep2.apply(b, rep1.apply(a, w))
        return (a, b, w), *_point_compare(carrier, lhs, rhs)

    cases = itertools.product(elements, elements, points)
    return _first_failure("exhaustive", itertools.starmap(outcome, cases))


def same_side_noncommuting_witness(group) -> Optional[SameSideWitness]:
    """Concrete obstruction to a same-side twin; ``None`` for abelian groups.

    Scans pairs in element order and returns the first ``(a, b)`` with
    ``a b != b a``, evaluated at the point ``b`` of the left shift's
    carrier with origin at the identity.  Both products are read from
    ``group.table``; the one product formed is the conjugate ``b a b^-1``.
    A product the scan meets that is no stored element raises, as the
    shifts do.
    """
    elements = group.store
    if elements is None:
        raise InfeasibleExhaustive("witness search needs enumerable elements")
    table = group.table
    for i, j in itertools.product(range(len(elements)), repeat=2):
        ab, ba = table[i][j], table[j][i]
        if ab is None or ba is None:
            raise _not_closed(*((i, j) if ab is None else (j, i)))
        if ab != ba:
            b = elements[j]
            return SameSideWitness(
                a=elements[i],
                b=b,
                origin=group.identity,
                point=b,
                same_side_value=elements[ab],
                required_value=elements[ba],
                conjugate=group.compose_elements(elements[ba], group.inverse_element(b)),
            )
    return None


def same_side_witness_check(group) -> Verdict:
    """A noncommutative group has no same-side commuting twin.

    Passes with the obstruction of :func:`same_side_noncommuting_witness`
    as its witness, and fails on an abelian group, which has none.
    """
    w = same_side_noncommuting_witness(group)
    # its fields in order, all but the origin, which is the identity
    witness = None if w is None else {k: v for k, v in vars(w).items() if k != "origin"}
    detail = "same-side composite disagrees with the required one"
    return Verdict(w is not None, counterexample=witness, detail=detail)


def store_membership_check(group) -> Verdict:
    """Every stored element of a matrix group passes the family predicate,
    with the worst defect ``group.membership`` measures in floating point;
    invertibility tests measure none."""
    if group.store is None:
        raise InfeasibleExhaustive("membership check needs stored elements")
    results = [group.membership(g.payload) for g in group.store]
    residual = None
    if not group.backend.is_exact:
        residual = max((r for _, r in results if r is not None), default=None)
    return Verdict(all(ok for ok, _ in results), checked=len(results), residual_max=residual)
