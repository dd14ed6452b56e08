"""Finite groups, matrix groups, and affine transformation groups.

A finite group is defined by a multiplication table validated exhaustively
at load time.  A matrix group is a family predicate (general linear,
special linear, metric-preserving, or invertible affine) over a fixed
dimension, optionally together with an explicit store of elements; the
store may also be produced by closing a generating set under products.

Composition convention: ``G.compose_elements(a, b)`` is the product
``a b``, the map that applies ``b`` first and ``a`` second when elements
act on points from the left.  For matrix families this is the plain grid
product.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BasiskitError,
    CayleyTableError,
    DimensionMismatch,
    EnumerationCapExceeded,
    InfeasibleExhaustive,
    MembershipError,
    MixedGroups,
    Singular,
)
from .matrices import Matrix, Vector, _kept, vec_add, vector
from .scalars import APPROX, EXACT, Backend

__all__ = [
    "GroupElement",
    "FiniteGroup",
    "validate_cayley_table",
    "AffineTransform",
    "affine_apply",
    "MatrixGroup",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "quaternion_group",
    "permutation_matrix",
    "rotation_2d",
    "boost_2d",
]

MAX_TABLE_SIZE = 256
DEFAULT_CLOSURE_CAP = 100_000


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element together with the group instance that owns it.

    Equality and hashing bind to the owning instance, so elements of two
    separately constructed groups never compare equal; mixing them in a
    product raises :class:`MixedGroups` instead of silently "working".
    """

    group: object = field(repr=False)
    payload: object

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.payload))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.compose_elements(self, other)

    def inverse(self) -> "GroupElement":
        return self.group.inverse_element(self)

    def eq_to(self, other: "GroupElement") -> bool:
        """Backend-aware equality (exact for finite groups)."""
        if self.group is not other.group:
            raise MixedGroups("comparing elements of different groups")
        return self.group.payload_eq(self.payload, other.payload)

    @property
    def name(self) -> str:
        return self.group.payload_name(self.payload)

    def __repr__(self) -> str:
        return f"<{self.name}>"


class FiniteGroup:
    """A group given by its full multiplication table.

    Construct through :func:`validate_cayley_table`; the constructor here
    trusts its arguments.  ``store`` holds every element in table order,
    as :attr:`MatrixGroup.store` holds a matrix group's stored elements.
    ``table[i][j]`` is the index of element ``i`` times element ``j``.
    ``generators`` are element indices, the identity never among them:
    right multiplication by them reaches every element from the identity.
    :func:`validate_cayley_table` passes the set its associativity test
    ran on, found in ``table`` by :func:`_generating_set`.
    """

    def __init__(
        self,
        table: tuple,
        identity_index: int,
        inverses: tuple,
        generators: tuple,
        names: Optional[tuple] = None,
    ):
        self.table = table
        self.identity_index = identity_index
        self.inverses = inverses
        self.generators = generators
        self.names = names
        self.store = tuple(GroupElement(self, i) for i in range(len(table)))

    @property
    def order(self) -> int:
        return len(self.table)

    def element(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise BasiskitError(f"element index {index} out of range 0..{self.order - 1}")
        return self.store[index]

    @property
    def identity(self) -> GroupElement:
        return self.store[self.identity_index]

    def _own(self, a: GroupElement) -> int:
        if not isinstance(a, GroupElement) or a.group is not self:
            raise MixedGroups("element does not belong to this group")
        return a.payload

    # the position of an element in ``store`` is its payload
    index_of = _own

    def compose_elements(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.store[self.table[self._own(a)][self._own(b)]]

    def inverse_element(self, a: GroupElement) -> GroupElement:
        return self.store[self.inverses[self._own(a)]]

    def payload_eq(self, p, q) -> bool:
        return p == q

    def payload_entries(self, p) -> tuple:
        return (p,)

    def payload_name(self, p) -> str:
        if self.names is not None:
            return self.names[p]
        return str(p)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def validate_cayley_table(
    table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None
) -> FiniteGroup:
    """Check a multiplication table against the group axioms.

    Runs every check and raises :class:`CayleyTableError` carrying one
    witness per violated axiom.  Associativity ``(ab)c = a(bc)`` is
    compared row by row, ``row(ab)`` against row ``a`` read through row
    ``b``, and decided by Light's test on a generating set (Clifford &
    Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2): the
    elements ``b`` satisfying the law for all ``a, c`` are closed under
    products.  When that fails, the sweep over every ``b`` locates the
    lexicographically smallest failing triple.
    """
    n = len(table)
    if n == 0:
        raise CayleyTableError([("not-closed", "empty table")])
    if n > MAX_TABLE_SIZE:
        raise BasiskitError(
            f"table of size {n} exceeds the validation cap {MAX_TABLE_SIZE}"
        )
    violations = []

    closed = True
    for i, row in enumerate(table):
        if len(row) != n:
            violations.append(("not-closed", (i, "row-length", len(row))))
            closed = False
            break
        for j, value in enumerate(row):
            is_index = isinstance(value, int) and not isinstance(value, bool)
            if not is_index or not 0 <= value < n:
                violations.append(("not-closed", (i, j, value)))
                closed = False
                break
        if not closed:
            break

    identity_index = None
    if closed:
        for e in range(n):
            if all(table[e][a] == a and table[a][e] == a for a in range(n)):
                identity_index = e
                break
        if identity_index is None:
            violations.append(("no-identity", None))

        rows = tuple(tuple(row) for row in table)

        def associative(a, b):
            return list(rows[rows[a][b]]), _after(rows[a], rows[b])

        # without an identity every element generates, and the sweep is the full one
        gens = range(n) if identity_index is None else _generating_set(rows, identity_index)
        if _sweep(n, gens, associative)[1] is not None:
            violations.append(("not-associative", _sweep(n, range(n), associative)[1]))

        inverses = [None] * n
        if identity_index is not None:
            for a in range(n):
                for b in range(n):
                    if table[a][b] == identity_index and table[b][a] == identity_index:
                        inverses[a] = b
                        break
                else:
                    violations.append(("not-invertible", a))
                    break

    if names is not None and len(names) != n:
        raise BasiskitError(f"expected {n} element names, got {len(names)}")

    if violations:
        raise CayleyTableError(violations)

    return FiniteGroup(
        rows,
        identity_index,
        tuple(inverses),
        gens,
        tuple(names) if names is not None else None,
    )


def _generating_set(rows, identity: int) -> Optional[tuple]:
    """Generators without the identity: right multiplication by them
    reaches every element from ``identity``.  ``None`` at the first
    product read that is no element.

    ``rows`` is a Cayley table or a store's lazily filled rows
    (:class:`_StoreRow`).  An element whose powers are every element
    generates alone.  Otherwise an element of the largest order is tried
    with each partner in decreasing order (two random elements of S_n
    generate A_n or S_n with probability tending to 3/4: Dixon, *Math.
    Z.* 110, 1969), and failing that the greedy set, each element not yet
    reached in that order, without its redundant members.  :func:`_reach`
    checks each try on the products it reads, so the result holds for
    any table with an identity, associative or not.
    """
    n = len(rows)
    order = {}
    for x in range(n):
        if x != identity:
            powers = _reach(rows, [x], x)
            if powers is None:
                return None
            if len(powers) == n:
                return (x,)
            order[x] = len(powers)
    by_order = sorted(order, key=order.get, reverse=True)
    # a failed pair reaches a subgroup of a group, and a partner inside it adds nothing
    inside = set()
    for b in by_order[1:]:
        if b not in inside:
            reached = _reach(rows, (by_order[0], b), identity)
            if reached is None or len(reached) == n:
                return None if reached is None else (by_order[0], b)
            inside.update(reached)
    gens, reached = [], {identity}
    for x in by_order:
        if x not in reached:
            gens.append(x)
            reached = _reach(rows, gens, identity)
            if reached is None:
                return None
    for g in list(gens):  # each subset reads only products read above
        rest = [h for h in gens if h != g]
        if len(_reach(rows, rest, identity)) == n:
            gens = rest
    return tuple(gens)


def _reach(rows, gens, start: int) -> Optional[set]:
    """The elements right multiplication by ``gens`` reaches from
    ``start``, found breadth first; ``None`` at the first product that is
    no element, and no product is read after it."""
    queue, seen = [start], {start}
    for r in queue:  # visits the elements appended below too
        row = rows[r]
        for g in gens:
            p = row[g]
            if p is None:
                return None
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def _after(outer, inner) -> list:
    """Row of the map applying ``inner`` first, then ``outer``."""
    return list(map(outer.__getitem__, inner))


def _sweep(n: int, seconds, rows) -> tuple:
    """Compare the two rows ``rows(a, b)`` for every ``a < n`` and ``b`` in
    ``seconds``, in order.

    Returns ``(checked, None)``, or ``(checked, (a, b, j))`` at the first
    position ``j`` where they differ; ``checked`` counts the positions
    compared, the failing one included.
    """
    checked = 0
    for a in range(n):
        for b in seconds:
            lhs, rhs = rows(a, b)
            if lhs != rhs:
                j = next(j for j, (p, q) in enumerate(zip(lhs, rhs)) if p != q)
                return checked + j + 1, (a, b, j)
            checked += len(lhs)
    return checked, None


@dataclass(frozen=True)
class AffineTransform:
    """Invertible affine map: a linear part and a translation."""

    linear: Matrix
    translation: Vector

    def __post_init__(self):
        if not self.linear.is_square:
            raise DimensionMismatch("affine linear part must be square")
        if len(self.translation) != self.linear.nrows:
            raise DimensionMismatch("translation length does not match linear part")

    @property
    def dim(self) -> int:
        return self.linear.nrows

    @property
    def backend(self) -> Backend:
        return self.linear.backend

    @classmethod
    def identity(cls, n: int, backend: Backend) -> "AffineTransform":
        return cls(Matrix.identity(n, backend), tuple(backend.zero() for _ in range(n)))

    def apply(self, point: Vector) -> Vector:
        """Image of a point: linear part applied columnwise, then shifted."""
        return vec_add(self.linear.matvec(point), self.translation)

    def after(self, other: "AffineTransform") -> "AffineTransform":
        """The composite applying ``other`` first, then ``self``."""
        return AffineTransform(
            self.linear.mul(other.linear),
            vec_add(self.linear.matvec(other.translation), self.translation),
        )

    def inverted(self) -> "AffineTransform":
        inv = self.linear.inverse()
        return AffineTransform(
            inv, tuple(-x for x in inv.matvec(self.translation))
        )

    @_kept
    def flat(self) -> tuple:
        """The linear part's entries row by row, then the translation."""
        return self.linear.flat + tuple(self.translation)

    def eq(self, other: "AffineTransform") -> bool:
        return self.backend.close(self.flat, other.flat)


def affine_apply(t: AffineTransform, point: Sequence) -> Vector:
    """Apply an affine transform to a point of the same dimension."""
    return t.apply(vector(point, t.backend))


class MatrixGroup:
    """A matrix family over a fixed dimension, with an optional element store.

    Families:

    - ``GL``: invertible matrices;
    - ``SL``: determinant one;
    - ``SO``: grids preserving the diagonal metric of the signature, i.e.
      ``M^T eta M = eta`` within the backend comparison;
    - ``AFFINE``: affine maps with invertible linear part.

    The stored elements are distinct under the backend comparison, so a
    lookup (:meth:`index_of`) names one position per element.  A store
    has a product table like a :class:`FiniteGroup`'s (:class:`_StoreRow`),
    a float product naming its stored representative.  An exact store
    that is a group also has ``generators``, store indices without the
    identity, from which right multiplication reaches every element:
    :meth:`close_over` keeps the ones it was given, a store given as
    elements searches its table for them on first use, as a Cayley table
    is searched (:func:`_generating_set`).  They are ``None`` for a store
    that is not closed under products, and on the float backend, where
    rounding grows with the length of a word.
    """

    def __init__(
        self,
        family: str,
        dim: int,
        backend: Backend,
        signature: Optional[tuple] = None,
        elements: Optional[Sequence] = None,
    ):
        if family not in ("GL", "SL", "SO", "AFFINE"):
            raise BasiskitError(f"unknown matrix family {family!r}")
        if dim < 1:
            raise BasiskitError("dimension must be positive")
        self.family = family
        self.dim = dim
        self.backend = backend
        if family == "SO":
            signature = (dim, 0) if signature is None else tuple(signature)
            if len(signature) != 2 or signature[0] + signature[1] != dim:
                raise BasiskitError(f"signature {signature} does not sum to {dim}")
            self.signature = signature
        else:
            if signature is not None:
                raise BasiskitError(f"family {family} takes no signature")
            self.signature = None
        if family == "AFFINE":
            self._identity_payload = AffineTransform.identity(dim, backend)
        else:
            self._identity_payload = Matrix.identity(dim, backend)
        self.store: Optional[tuple] = None
        self._index: Optional[PointIndex] = None
        self._formed: tuple = (), ()  # a closure's columns and products: see close_over
        if elements is not None:
            store = tuple(self.element(p) for p in elements)
            if not store:
                raise BasiskitError("stored elements, when given, must not be empty")
            index = self._empty_index()
            for j, g in enumerate(store):
                i = index.add(g.payload)
                if i < j:
                    within = f" within the tolerance {backend.tolerance}" if backend.tolerance else ""
                    raise BasiskitError(f"stored elements {i} and {j} are equal{within}")
            self.store, self._index = store, index

    # -- family predicate ------------------------------------------------

    def metric_signs(self) -> tuple:
        p, q = self.signature
        return (1,) * p + (-1,) * q

    def membership(self, payload) -> tuple:
        """Test the family predicate; returns ``(ok, residual)``.

        The residual is the size of the defect for the families that have
        one: the max-norm of ``M^T eta M - eta`` for ``SO`` and
        ``|det - 1|`` for ``SL``.  It is ``None`` where nothing was
        measured: for the plain invertibility test of ``GL`` and
        ``AFFINE``, and for a value of the wrong type, shape or backend.
        """
        if self.family == "AFFINE":
            if not isinstance(payload, AffineTransform):
                return False, None
            if payload.dim != self.dim or payload.backend != self.backend:
                return False, None
            return payload.linear.is_invertible(), None
        if not isinstance(payload, Matrix):
            return False, None
        if (
            not payload.is_square
            or payload.nrows != self.dim
            or payload.backend != self.backend
        ):
            return False, None
        if self.family == "GL":
            return payload.is_invertible(), None
        if self.family == "SL":
            got, want = (payload.det(),), (self.backend.one(),)
        else:
            eta = Matrix.diagonal(self.metric_signs(), self.backend)
            got, want = payload.transpose().mul(eta).mul(payload).flat, eta.flat
        return self.backend.compare(got, want)

    # -- element handling --------------------------------------------------

    def element(self, payload) -> GroupElement:
        if self.family != "AFFINE" and isinstance(payload, (list, tuple)):
            payload = Matrix.from_rows(payload, self.backend)
        ok, residual = self.membership(payload)
        if not ok:
            raise MembershipError(f"value is not in {self.describe()}", residual=residual)
        return GroupElement(self, payload)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity_payload)

    def _own(self, a: GroupElement):
        if not isinstance(a, GroupElement) or a.group is not self:
            raise MixedGroups("element does not belong to this group")
        return a.payload

    def index_of(self, g: GroupElement) -> Optional[int]:
        """Position of the first stored element equal to ``g``, or ``None``;
        looked up in the point index built with the store."""
        self._own(g)
        if self.store is None:
            raise InfeasibleExhaustive("group has no stored elements to look up")
        return self._index.find(g.payload)

    @_kept
    def generators(self) -> Optional[tuple]:
        """Of an exact store given as elements (a closure sets its own):
        the first product read from ``table`` that is no element leaves them ``None``."""
        exact = self.store is not None and self.backend.is_exact
        identity = self._index.find(self._identity_payload) if exact else None
        return None if identity is None else _generating_set(self.table, identity)

    @_kept
    def table(self) -> Optional[tuple]:
        """The store's rows, a closure's holding the products it formed."""
        if self.store is None:
            return None
        rows = tuple(_StoreRow(self, a.payload) for a in self.store)
        columns, formed = self._formed
        for row, products in zip(rows, formed):
            row.update((j, products[k]) for j, k in columns)
        return rows

    def _empty_index(self) -> "PointIndex":
        """An empty point index of payloads under this group's equality."""
        return PointIndex(self.payload_eq, self.payload_entries, self.backend.tolerance)

    @property
    def _product(self):
        """The product of two payloads, ``Matrix.mul`` or
        ``AffineTransform.after``, looked up when it is asked for."""
        return AffineTransform.after if self.family == "AFFINE" else Matrix.mul

    def compose_elements(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self, self._product(self._own(a), self._own(b)))

    def inverse_element(self, a: GroupElement) -> GroupElement:
        p = self._own(a)
        try:
            inv = p.inverted() if self.family == "AFFINE" else p.inverse()
        except Singular as exc:
            raise MembershipError(f"stored element is not invertible: {exc}") from exc
        return GroupElement(self, inv)

    def payload_eq(self, p, q) -> bool:
        return self.backend.close(p.flat, q.flat)

    def payload_entries(self, p) -> tuple:
        """Matrix entries row by row; for an affine map, then the translation."""
        return p.flat

    def payload_name(self, p) -> str:
        if self.family == "AFFINE":
            return f"affine({p.linear.entries}, {p.translation})"
        return f"matrix({p.entries})"

    def describe(self) -> str:
        if self.family == "SO":
            p, q = self.signature
            return f"SO({p},{q})" if q else f"SO({p})"
        return f"{self.family}({self.dim})"

    def __repr__(self) -> str:
        return f"MatrixGroup({self.describe()}, backend={self.backend.kind})"

    # -- construction helpers ----------------------------------------------

    @classmethod
    def general_linear(cls, dim: int, backend: Backend = EXACT, elements=None):
        return cls("GL", dim, backend, elements=elements)

    @classmethod
    def special_linear(cls, dim: int, backend: Backend = EXACT, elements=None):
        return cls("SL", dim, backend, elements=elements)

    @classmethod
    def metric_preserving(
        cls, p: int, q: int = 0, backend: Backend = APPROX, elements=None
    ):
        return cls("SO", p + q, backend, signature=(p, q), elements=elements)

    @classmethod
    def affine(cls, dim: int, backend: Backend = EXACT, elements=None):
        return cls("AFFINE", dim, backend, elements=elements)

    def close_over(self, generators: Sequence, cap: int = DEFAULT_CLOSURE_CAP) -> None:
        """Populate the store with the closure of ``generators``.

        Breadth-first products until nothing new appears; raises
        :class:`EnumerationCapExceeded` rather than truncating when the
        closure grows past ``cap``, and, on the float backend, at the first
        product with a non-finite entry.  Elements are taken from the
        frontier in store order; over the rationals the distinct generators
        other than the identity become ``generators``.  The loop works on
        payloads: each product is one :attr:`_product`, looked up when the
        loop starts, filed in or found by the point index of payloads, and
        a :class:`GroupElement` is built once for each stored element, at
        the end.  The products formed are kept for ``table``, whose rows
        are built when first read.  A group that already has a store
        raises instead of replacing it.
        """
        if self.store is not None:
            raise BasiskitError("group already has stored elements; close over a new group")
        gens = [self.element(g).payload for g in generators]
        product = self._product
        exact, isfinite = self.backend.is_exact, math.isfinite
        found = self._empty_index()
        add, points = found.add, found.points
        add(self._identity_payload)
        frontier = [self._identity_payload]
        formed = []
        while frontier:
            new_frontier = []
            for current in frontier:
                row = []
                for g in gens:
                    candidate = product(current, g)
                    if not exact and not all(map(isfinite, candidate.flat)):
                        raise EnumerationCapExceeded(
                            "closure left the float range: a product has a non-finite "
                            f"entry after {len(points)} elements"
                        )
                    n = len(points)
                    i = add(candidate)
                    row.append(i)
                    if i < n:
                        continue
                    if n >= cap:
                        raise EnumerationCapExceeded(
                            f"closure exceeded the cap of {cap} elements "
                            f"({n} found, frontier of {len(frontier)})"
                        )
                    new_frontier.append(candidate)
                formed.append(row)
            frontier = new_frontier
        self.store = tuple(GroupElement(self, p) for p in points)
        self._index = found
        # the identity's products: each new one is the element a generator added,
        # whose column that generator's products fill; the identity is position 0
        gens = tuple(dict.fromkeys(j for j in formed[0] if j))
        self._formed = [(j, formed[0].index(j)) for j in gens], formed
        if exact:
            self.generators = gens


class _StoreRow(dict):
    """The row of stored payload ``a`` in a store's product table: entry
    ``g`` is the position of ``a`` times stored element ``g``, or ``None``
    for none, formed from the two payloads by :attr:`MatrixGroup._product`
    and looked up in the point index on first read."""

    __slots__ = ("group", "a")

    def __iter__(self):  # the entries in order, as a Cayley table's row gives them
        return map(self.__getitem__, range(len(self.group.store)))

    def __init__(self, group: MatrixGroup, a):
        self.group, self.a = group, a

    def __missing__(self, g: int) -> Optional[int]:
        group = self.group
        self[g] = i = group._index.find(group._product(self.a, group.store[g].payload))
        return i


# Float points are filed in square cells this many tolerances wide.
_CELL_TOLERANCES = 4
# The tolerance, in cells.
_REACH = 1 / _CELL_TOLERANCES
# Cell coordinates at least this large are computed exactly, not rounded.
_CELL_LIMIT = 2.0**50
# Per unit of a cell coordinate, the slack that covers rounding (see PointIndex).
_ROUNDING_SLACK = 2.0**-51


_numerators = operator.attrgetter("numerator")
_denominators = operator.attrgetter("denominator")


def _rational_key(flat: tuple) -> tuple:
    """The numerators and the denominators of an exact point's entries.
    Rationals are canonical, and an int is its own numerator over 1, so
    equal points get equal keys, and hashing them skips ``Fraction.__hash__``."""
    return tuple(map(_numerators, flat)), tuple(map(_denominators, flat))


class PointIndex:
    """Points in the order added, with a lookup under a given equality.

    Closures, orbits and the orbit checks deduplicate through it.
    ``entries(p)`` flattens a point to its scalars.  With ``tolerance``
    zero a point is filed under all its entries, as integers: an index
    whose first point has integer entries files every point under its
    entries, any other under :func:`_rational_key`.  Otherwise it is
    filed in the cell ``(floor(x0 / w), floor(x1 / w))`` of its first two
    entries, ``w`` four tolerances (the cell grid for fixed-radius near
    neighbours of Bentley, Stanat & Williams, Inf. Proc. Letters 6(6),
    1977).  A point with one entry has one cell coordinate; points with
    none share a single cell.  Every candidate found is confirmed with
    ``eq(point, candidate)``, which must hold only for points whose
    entries differ by at most the tolerance as computed, ``|x - y| <= t``
    in floating point.

    A lookup reads only the cells that the tolerance box around the point
    can meet.  For an entry ``x`` whose cell coordinate is rounded, with
    ``q = x / w`` as computed, ``c = floor(q)`` and ``f = q - c``, it
    reads cell ``c``, cell ``c - 1`` when ``f < R`` and cell ``c + 1``
    when ``f + R >= 1``, where ``R = 1/4 + (|q| + 2) 2**-51``.  The slack
    over a quarter cell is proven, with ``u = 2**-53``: ``|x - y| <= t``
    as computed gives ``|x - y| <= t (1 + u)``, so ``y / w`` lies within
    ``(1 + u) / 4`` of ``x / w``; each quotient rounds by at most ``u``
    times its size, or ``2**-1075`` when subnormal, so ``y``'s rounded
    quotient lies within ``1/4 + 2u|q| + 1.25u + 2**-1074`` of ``q``.
    Computing ``f`` rounds by at most ``u / 2`` (only for ``-1 < q < 0``)
    and ``R`` by less than ``u``, which the ``4u|q| + 8u`` of ``R``
    covers.  Below :data:`_CELL_LIMIT`, ``R`` is under one cell, so no
    match lies two cells away, and below ``2**49 - 2`` it is under half
    a cell, so at most one neighbour is read: 1, 2 or 4 cells for a
    two-entry key, 2.25 on average at the present width.  An exact cell
    coordinate reads its cell and both neighbours; a non-finite entry
    equals nothing and reads its own cell.  The candidates are read in
    the order added, so :meth:`find` and :meth:`add` name the first point
    added that matches.
    """

    def __init__(self, eq, entries, tolerance: float):
        self.points: list = []
        self._eq = eq
        self._entries = entries
        self._width = _CELL_TOLERANCES * tolerance
        self._cells: dict = {}
        self._exact_key = None

    def find(self, point) -> Optional[int]:
        """Position of the first point added that equals ``point``, or ``None``."""
        return self._first(point, self._lookup(point)[1])

    def add(self, point) -> int:
        """:meth:`find`'s position, with ``point`` appended when none is in
        yet: the new position is the number of points before."""
        key, near = self._lookup(point)
        found = self._first(point, near)
        if found is not None:
            return found
        points = self.points
        self._cells.setdefault(key, []).append(len(points))
        points.append(point)
        return len(points) - 1

    def _first(self, point, near) -> Optional[int]:
        eq, points = self._eq, self.points
        for i in near:
            if eq(point, points[i]):
                return i
        return None

    def _lookup(self, point) -> tuple:
        """The key of ``point`` and the positions filed in the cells a
        match can lie in, in the order added."""
        flat, get = self._entries(point), self._cells.get
        if not self._width:
            if self._exact_key is None:
                # either key gives equal points equal keys; the first point
                # picks the cheaper one for the points like it
                self._exact_key = tuple if all(type(x) is int for x in flat) else _rational_key
            key = self._exact_key(flat)
            return key, get(key, ())
        width, key, spans, wide = self._width, [], [], False
        for x in flat[:2]:
            q = x / width
            size = abs(q)
            if size < _CELL_LIMIT:
                c = math.floor(q)
                f, reach = q - c, _REACH + (size + 2.0) * _ROUNDING_SLACK
                if f < reach:
                    span = (c - 1, c, c + 1) if f + reach >= 1.0 else (c - 1, c)
                else:
                    span = (c, c + 1) if f + reach >= 1.0 else (c,)
            else:
                c = self._cell(x)
                span = (c - 1, c, c + 1) if math.isfinite(x) else (c,)
            key.append(c)
            spans.append(span)
            wide = wide or len(span) > 1
        key = tuple(key)
        if not wide:
            return key, get(key, ())
        near = [i for k in itertools.product(*spans) for i in get(k, ())]
        near.sort()
        return key, near

    def _cell(self, x):
        """The cell coordinate of entry ``x``: rounded below
        :data:`_CELL_LIMIT`, exact from there on."""
        q = x / self._width
        if abs(q) < _CELL_LIMIT:
            return math.floor(q)
        if math.isfinite(x):
            return Fraction(x) // Fraction(self._width)
        return x  # a non-finite entry equals nothing, so any cell will do


# -- standard small groups ----------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    """Integers modulo ``n`` under addition."""
    if n < 1:
        raise BasiskitError("cyclic group needs n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_cayley_table(table, names=[str(i) for i in range(n)])


def _perm_cycle_name(p: tuple) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(parts) if parts else "e"


def _table_from_perms(perms: Sequence[tuple]) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(_after(p, q))] for q in perms] for p in perms]
    return validate_cayley_table(table, names=[_perm_cycle_name(p) for p in perms])


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of ``n`` points, in lexicographic order."""
    if not 1 <= n <= 5:
        raise BasiskitError("symmetric group supported for 1 <= n <= 5")
    return _table_from_perms(list(itertools.permutations(range(n))))


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular ``n``-gon (order ``2n``), as vertex permutations."""
    if n < 3:
        raise BasiskitError("dihedral group needs n >= 3")
    rotations = [tuple((x + k) % n for x in range(n)) for k in range(n)]
    reflections = [tuple((k - x) % n for x in range(n)) for k in range(n)]
    return _table_from_perms(rotations + reflections)


def quaternion_group() -> FiniteGroup:
    """The eight unit quaternions ``{+-1, +-i, +-j, +-k}``."""
    units = ["1", "i", "j", "k"]
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in units for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        sign, unit = prod[(a[1], b[1])]
        return (a[0] * b[0] * sign, unit)

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    names = [("" if s > 0 else "-") + u for (s, u) in elems]
    return validate_cayley_table(table, names=names)


def permutation_matrix(perm: Sequence[int], backend: Backend = EXACT) -> Matrix:
    """Matrix sending basis column ``j`` to basis column ``perm[j]``."""
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for j, image in enumerate(perm):
        rows[image][j] = 1
    return Matrix.from_rows(rows, backend)


def rotation_2d(angle: float, backend: Backend = APPROX) -> Matrix:
    c, s = math.cos(angle), math.sin(angle)
    return Matrix.from_rows([[c, -s], [s, c]], backend)


def boost_2d(rapidity: float, backend: Backend = APPROX) -> Matrix:
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return Matrix.from_rows([[ch, sh], [sh, ch]], backend)
