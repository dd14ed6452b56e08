"""Multiplication tables, matrix families, and the affine composition rule."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, strategies as st

from basiskit.bases import Basis, VectorSpace
from basiskit.descriptors import group_from_descriptor
from basiskit.errors import (
    BasiskitError,
    CayleyTableError,
    EnumerationCapExceeded,
    InfeasibleExhaustive,
    MembershipError,
    MixedGroups,
)
from basiskit.groups import (
    DEFAULT_CLOSURE_CAP,
    AffineTransform,
    GroupElement,
    PointIndex,
    _rational_key,
    _generating_set,
    MatrixGroup,
    affine_apply,
    boost_2d,
    cyclic_group,
    dihedral_group,
    permutation_matrix,
    quaternion_group,
    rotation_2d,
    symmetric_group,
    validate_cayley_table,
)
from basiskit.matrices import Matrix
from basiskit.objects import (
    GeometricalObject,
    ObjectCarrier,
    object_representation,
    tensor_power_functor,
    transform_object,
)
from basiskit.representations import (
    CoordCarrier,
    ProductCarrier,
    Verdict,
    check_axioms,
    left_shift,
    orbit,
    right_shift,
    store_membership_check,
)
from basiskit.scalars import APPROX, EXACT, approx

F = Fraction


# -- finite fixtures -----------------------------------------------------------


def test_fixture_orders():
    assert cyclic_group(2).order == 2
    assert cyclic_group(6).order == 6
    assert symmetric_group(3).order == 6
    assert dihedral_group(4).order == 8
    assert quaternion_group().order == 8


def test_cyclic_structure():
    z4 = cyclic_group(4)
    a = z4.element(1)
    assert (a * a).payload == 2
    assert (a * a * a * a).payload == 0
    assert a.inverse().payload == 3


def test_s3_is_not_abelian():
    s3 = symmetric_group(3)
    pairs = [
        (a, b)
        for a in s3.store
        for b in s3.store
        if not (a * b).eq_to(b * a)
    ]
    assert pairs, "expected at least one noncommuting pair"


def test_quaternion_relations():
    q8 = quaternion_group()
    names = list(q8.names)

    def by(name):
        return q8.element(names.index(name))

    i, j, k = by("i"), by("j"), by("k")
    assert (i * i).eq_to(by("-1"))
    assert (j * j).eq_to(by("-1"))
    assert (k * k).eq_to(by("-1"))
    assert (i * j).eq_to(k)
    assert (j * i).eq_to(by("-k"))
    assert (i * j * k).eq_to(by("-1"))


def test_dihedral_reflection_squares_to_identity():
    d4 = dihedral_group(4)
    for g in d4.store:
        gg = g * g
        # rotations of order 4 exist; every reflection squares to e
        if g.payload >= 4:
            assert gg.payload == 0


def test_mixing_groups_rejected():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(MixedGroups):
        z2.compose_elements(z2.element(1), z3.element(1))


# -- table validation ----------------------------------------------------------


def test_validate_rejects_non_closed():
    with pytest.raises(CayleyTableError) as err:
        validate_cayley_table([[0, 1], [1, 7]])
    kinds = [kind for kind, _ in err.value.violations]
    assert "not-closed" in kinds


def test_validate_rejects_missing_identity():
    # the constant table is closed and associative but has no identity
    with pytest.raises(CayleyTableError) as err:
        validate_cayley_table([[0, 0], [0, 0]])
    kinds = [kind for kind, _ in err.value.violations]
    assert "no-identity" in kinds


def test_swapped_identity_is_still_a_group():
    # 1 acts as the identity here; validation must find it
    group = validate_cayley_table([[1, 0], [0, 1]])
    assert group.identity_index == 1


def test_validate_reports_first_associativity_witness():
    # doctored 3-table: closed, has identity 0, but (1*1)*2 != 1*(1*2)
    table = [
        [0, 1, 2],
        [1, 2, 2],
        [2, 2, 1],
    ]
    with pytest.raises(CayleyTableError) as err:
        validate_cayley_table(table)
    by_kind = dict(err.value.violations)
    assert "not-associative" in by_kind
    a, b, c = by_kind["not-associative"]
    # lexicographically first failing triple
    for a2 in range(3):
        for b2 in range(3):
            for c2 in range(3):
                lhs = table[table[a2][b2]][c2]
                rhs = table[a2][table[b2][c2]]
                if lhs != rhs:
                    assert (a, b, c) == (a2, b2, c2)
                    return
    raise AssertionError("table is associative after all")


def test_validate_accepts_klein_four():
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    group = validate_cayley_table(table)
    assert group.order == 4
    assert group.identity_index == 0
    assert group.inverses == (0, 1, 2, 3)


def test_validate_rejects_boolean_entries():
    # True == 1, but a boolean is not an element index
    with pytest.raises(CayleyTableError) as err:
        validate_cayley_table([[0, True], [True, 0]])
    assert err.value.violations == (("not-closed", (0, 1, True)),)


# -- Light's associativity test against the scan over all triples ----------------


def scan_violations(table):
    """The violations of the axioms, associativity by the scan over all
    triples: the reference Light's test must reproduce."""
    n = len(table)
    violations = []
    identity = next(
        (e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))),
        None,
    )
    if identity is None:
        violations.append(("no-identity", None))
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            violations.append(("not-associative", (a, b, c)))
            break
    if identity is not None:
        for a in range(n):
            if not any(
                table[a][b] == identity == table[b][a] for b in range(n)
            ):
                violations.append(("not-invertible", a))
                break
    return violations


def product_table(t1, t2):
    n2 = len(t2)
    return [
        [t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(len(t1) * n2)]
        for a in range(len(t1) * n2)
    ]


def random_group_table(rng, n):
    """A group table of order ``n`` with its elements relabelled at random."""
    choices = [cyclic_group(n).table]
    if n % 2 == 0 and n >= 6:
        choices.append(dihedral_group(n // 2).table)
    for a in range(2, n):
        if n % a == 0 and n // a >= 2:
            choices.append(
                product_table(cyclic_group(a).table, cyclic_group(n // a).table)
            )
    if n % 6 == 0:
        s3 = symmetric_group(3).table
        choices.append(product_table(s3, cyclic_group(n // 6).table))
    if n == 8:
        choices.append(quaternion_group().table)
    if n == 24:
        choices.append(symmetric_group(4).table)
    table = rng.choice(choices)
    label = list(range(n))
    rng.shuffle(label)
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[label[a]][label[b]] = label[table[a][b]]
    return relabelled


@pytest.mark.parametrize("seed", range(40))
def test_light_test_matches_the_full_scan(seed):
    rng = Random(seed)
    n = rng.randint(2, 40)
    table = random_group_table(rng, n)
    assert scan_violations(table) == []
    assert validate_cayley_table(table).order == n
    a, b = rng.randrange(n), rng.randrange(n)
    table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
    with pytest.raises(CayleyTableError) as err:
        validate_cayley_table(table)
    assert list(err.value.violations) == scan_violations(table)


def test_greedy_generators_reach_every_element():
    # an element of the largest order generates Z12 alone; S4, D8 and Q8
    # have a generating pair; Z2^3 and S4 x Z2^2 have none and get the
    # greedy set, which for S4 x Z2^2 has four members, one redundant
    assert _generating_set(cyclic_group(12).table, 0) == (1,)
    z2_cubed = validate_cayley_table([[a ^ b for b in range(8)] for a in range(8)])
    s4 = symmetric_group(4).table
    s4_z2_z2 = validate_cayley_table(
        [[s4[a // 4][b // 4] * 4 + (a % 4 ^ b % 4) for b in range(96)] for a in range(96)]
    )
    for group, k in [
        (symmetric_group(4), 2), (dihedral_group(8), 2), (quaternion_group(), 2),
        (z2_cubed, 3), (s4_z2_z2, 3),
    ]:
        e = group.identity_index
        gens = _generating_set(group.table, e)
        assert (gens, len(gens)) == (group.generators, k)
        assert e not in gens
        # each reaches every element from the identity, and none is redundant
        for kept in [gens, *(tuple(h for h in gens if h != g) for g in gens)]:
            reached = frontier = {e}
            while frontier:
                frontier = {group.table[r][g] for r in frontier for g in kept} - reached
                reached = reached | frontier
            assert (reached == set(range(group.order))) == (kept == gens)


def relabelled(group, sigma):
    """``group`` with element ``i`` renamed ``sigma[i]``, validated again."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.table[a][b]]
    return validate_cayley_table(table)


GENERATED = {
    "Z": lambda n: cyclic_group(n),
    "D": lambda n: dihedral_group(max(n, 3)),
    "S4": lambda n: symmetric_group(4),
    "S5": lambda n: symmetric_group(5),
    "Q8": lambda n: quaternion_group(),
}


@pytest.fixture(scope="module")
def stored_b4():
    """B4 given as its 384 signed permutation matrices in a shuffled order,
    its generators searched here rather than in a timed example."""
    group = MatrixGroup.general_linear(4, elements=shuffled(signed_permutation_matrices(4), 4))
    assert group.generators is not None
    return group


@example("B4", 4, Random(0))
@given(st.sampled_from(sorted(GENERATED)), st.integers(1, 12), st.randoms(use_true_random=False))
def test_generators_of_a_relabelled_group_reach_it_without_the_identity(stored_b4, family, n, rng):
    if family == "B4":
        group, e = stored_b4, stored_b4.index_of(stored_b4.identity)
    else:
        base = GENERATED[family](n)
        sigma = list(range(base.order))
        rng.shuffle(sigma)
        group = relabelled(base, sigma)
        e = group.identity_index
    order, gens = len(group.table), group.generators
    assert e not in gens
    assert all(0 <= s < order for s in gens)
    # one generator for a cyclic group but the trivial one, two for the others
    assert len(gens) == (min(order - 1, 1) if family == "Z" else 2)
    # right multiplication by the generators reaches every element from e
    reached, frontier = {e}, [e]
    while frontier:
        frontier = [group.table[x][s] for x in frontier for s in gens]
        frontier = [x for x in dict.fromkeys(frontier) if x not in reached]
        reached.update(frontier)
    assert reached == set(range(order))
    # each generator leaves the subgroup the earlier ones reach, so at
    # least doubles it
    assert 2 ** len(gens) <= order


def test_the_trivial_group_has_no_generators_and_case_1_decides_its_side_law():
    trivial = validate_cayley_table([[0]])
    assert trivial.generators == ()
    for shift in (left_shift(trivial), right_shift(trivial)):
        assert check_axioms(shift) == Verdict(True, "exhaustive(generators=0)", 1, None, None)


def test_table_size_cap():
    n = 300
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(BasiskitError):
        validate_cayley_table(table)


# -- matrix families -----------------------------------------------------------


def test_gl_membership():
    gl2 = MatrixGroup.general_linear(2)
    ok, residual = gl2.membership(Matrix.from_rows([[1, 2], [3, 4]], EXACT))
    # a plain invertibility test measures no defect
    assert ok and residual is None
    ok, _ = gl2.membership(Matrix.from_rows([[1, 2], [2, 4]], EXACT))
    assert not ok


def test_sl_membership_residual():
    sl2 = MatrixGroup.special_linear(2)
    ok, residual = sl2.membership(Matrix.from_rows([[2, 0], [0, 1]], EXACT))
    assert not ok
    assert residual == pytest.approx(1.0)
    ok, residual = sl2.membership(Matrix.from_rows([[2, 0], [0, F(1, 2)]], EXACT))
    assert ok and residual == 0.0


def test_so_membership_is_the_metric_condition():
    so2 = MatrixGroup.metric_preserving(2, 0)
    ok, residual = so2.membership(rotation_2d(0.3))
    assert ok and residual < 1e-12
    # orientation-reversing isometries belong too: the predicate is
    # M^T eta M = eta, nothing else
    flip = Matrix.from_rows([[1.0, 0.0], [0.0, -1.0]], APPROX)
    ok, residual = so2.membership(flip)
    assert ok and residual == 0.0
    stretch = Matrix.from_rows([[2.0, 0.0], [0.0, 1.0]], APPROX)
    ok, residual = so2.membership(stretch)
    assert not ok and residual == pytest.approx(3.0)


def test_lorentz_boost_membership():
    so11 = MatrixGroup.metric_preserving(1, 1)
    ok, residual = so11.membership(boost_2d(0.7))
    assert ok and residual < 1e-12


def test_store_membership_check_reports_the_worst_measured_defect():
    boosts = MatrixGroup.metric_preserving(
        1, 1, elements=[boost_2d(r) for r in (0.0, 0.5, 1.0)]
    )
    verdict = store_membership_check(boosts)
    assert verdict.passed and verdict.checked == 3
    assert verdict.residual_max == max(boosts.membership(g.payload)[1] for g in boosts.store)
    assert verdict.residual_max > 0.0
    # exact stores and plain invertibility tests measure no defect
    sl2 = MatrixGroup.special_linear(2, EXACT, elements=[[[1, 1], [0, 1]]])
    assert store_membership_check(sl2) == Verdict(True, checked=1)
    gl2 = MatrixGroup.general_linear(2, APPROX, elements=[[[2.0, 0.0], [0.0, 1.0]]])
    assert store_membership_check(gl2).residual_max is None
    with pytest.raises(InfeasibleExhaustive):
        store_membership_check(MatrixGroup.general_linear(2))


def test_element_constructor_raises_with_residual():
    so2 = MatrixGroup.metric_preserving(2, 0)
    bad = Matrix.from_rows([[2.0, 0.0], [0.0, 1.0]], APPROX)
    with pytest.raises(MembershipError) as err:
        so2.element(bad)
    assert err.value.residual == pytest.approx(3.0)


def test_matrix_group_compose_and_inverse():
    gl2 = MatrixGroup.general_linear(2)
    a = gl2.element(Matrix.from_rows([[1, 1], [0, 1]], EXACT))
    b = gl2.element(Matrix.from_rows([[1, 0], [1, 1]], EXACT))
    ab = gl2.compose_elements(a, b)
    assert ab.payload.entries == ((2, 1), (1, 1))
    assert gl2.inverse_element(a).payload.entries == ((1, -1), (0, 1))


def test_element_accepts_nested_rows():
    gl2 = MatrixGroup.general_linear(2)
    a = gl2.element([[2, 0], [0, 3]])
    assert a.payload.entries == ((2, 0), (0, 3))
    with pytest.raises(MembershipError):
        gl2.element([[1, 1], [1, 1]])


# -- affine transforms ---------------------------------------------------------


def test_affine_normative_example():
    # quarter turn plus shift by (1, 1) sends (1, 0) to (1, 2)
    backend = EXACT
    t = AffineTransform(
        Matrix.from_rows([[0, -1], [1, 0]], backend),
        (F(1), F(1)),
    )
    assert affine_apply(t, (1, 0)) == (F(1), F(2))


def test_affine_after_applies_right_operand_first():
    shift = AffineTransform(Matrix.identity(2, EXACT), (F(1), F(0)))
    turn = AffineTransform(Matrix.from_rows([[0, -1], [1, 0]], EXACT), (F(0), F(0)))
    # turn.after(shift): shift first, then rotate
    combined = turn.after(shift)
    assert affine_apply(combined, (0, 0)) == affine_apply(turn, affine_apply(shift, (0, 0)))
    assert affine_apply(combined, (0, 0)) == (F(0), F(1))


def test_affine_inverse_round_trip():
    t = AffineTransform(
        Matrix.from_rows([[2, 1], [1, 1]], EXACT), (F(3), F(-2))
    )
    u = t.after(t.inverted())
    assert u.eq(AffineTransform.identity(2, EXACT))


affine_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def exact_affine(draw):
    a, b, c, d = (F(draw(affine_entries)) for _ in range(4))
    assume(a * d - b * c != 0)
    shift = (F(draw(affine_entries)), F(draw(affine_entries)))
    return AffineTransform(Matrix.from_rows([[a, b], [c, d]], EXACT), shift)


@given(exact_affine(), exact_affine(), exact_affine())
def test_affine_composition_is_associative(t1, t2, t3):
    left = t1.after(t2).after(t3)
    right = t1.after(t2.after(t3))
    assert left.eq(right)


@given(exact_affine(), exact_affine())
def test_affine_composition_matches_pointwise(t1, t2):
    combined = t1.after(t2)
    for point in [(0, 0), (1, 0), (0, 1), (2, -3)]:
        assert affine_apply(combined, point) == affine_apply(
            t1, affine_apply(t2, point)
        )


# -- generated groups ----------------------------------------------------------


def test_closure_of_quarter_rotation():
    so2 = MatrixGroup.metric_preserving(2, 0, backend=approx(1e-9))
    quarter = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], APPROX)
    so2.close_over([quarter])
    assert len(so2.store) == 4


def test_closure_cap_enforced():
    gl1 = MatrixGroup.general_linear(1, EXACT)
    doubling = Matrix.from_rows([[2]], EXACT)
    with pytest.raises(EnumerationCapExceeded):
        gl1.close_over([doubling], cap=50)


def test_closure_refuses_a_group_that_already_has_a_store():
    # closing over a quarter turn would silently drop the stored diag(2, 1)
    identity, stretch = [[1, 0], [0, 1]], [[2, 0], [0, 1]]
    group = MatrixGroup.general_linear(2, EXACT, elements=[identity, stretch])
    with pytest.raises(BasiskitError, match="already has stored elements"):
        group.close_over([Matrix.from_rows([[0, -1], [1, 0]], EXACT)])
    assert [g.payload.entries for g in group.store] == [((1, 0), (0, 1)), ((2, 0), (0, 1))]


def test_permutation_matrix_acts_on_columns():
    # perm sends 0->1, 1->2, 2->0; the matrix must move basis column j
    # to column perm[j]
    p = permutation_matrix((1, 2, 0))
    e0 = (F(1), F(0), F(0))
    moved = p.matvec(e0)
    assert moved == (F(0), F(1), F(0))


def test_permutation_matrices_compose_like_permutations():
    from itertools import permutations

    perms = list(permutations(range(3)))
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))  # apply q first
            assert permutation_matrix(p).mul(permutation_matrix(q)).eq(
                permutation_matrix(pq)
            )


# -- float closure through the cell index ----------------------------------------


def scan_closure(group, generators, cap=DEFAULT_CLOSURE_CAP):
    """The closure by a scan of every element found so far: the reference
    for ``close_over``.  Returns the payloads in the order found, or the
    message of the cap error."""
    gens = [group.element(g) for g in generators]
    seen = [group.identity]
    frontier = [group.identity]
    while frontier:
        new_frontier = []
        for current in frontier:
            for g in gens:
                candidate = group.compose_elements(current, g)
                if any(candidate.eq_to(s) for s in seen):
                    continue
                if len(seen) >= cap:
                    return (
                        f"closure exceeded the cap of {cap} elements "
                        f"({len(seen)} found, frontier of {len(frontier)})"
                    )
                seen.append(candidate)
                new_frontier.append(candidate)
        frontier = new_frontier
    return [s.payload for s in seen]


def indexed_closure(group, generators, cap=DEFAULT_CLOSURE_CAP):
    try:
        group.close_over(generators, cap=cap)
    except EnumerationCapExceeded as exc:
        return str(exc)
    return [s.payload for s in group.store]


def assert_same_closure(make_group, generators, cap=DEFAULT_CLOSURE_CAP):
    """Equal stores (payloads compared with ``==``, in order) or the same
    cap point, through two fresh groups."""
    expected = scan_closure(make_group(), generators, cap)
    assert indexed_closure(make_group(), generators, cap) == expected
    return expected


def rotation_3d(axis, angle):
    """Rodrigues' rotation about ``axis`` by ``angle``."""
    norm = math.sqrt(sum(a * a for a in axis))
    x, y, z = (a / norm for a in axis)
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return Matrix.from_rows(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ],
        APPROX,
    )


PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Generators of the rotation groups T (order 12), O (24), I (60) and D<m> (2m).
SO3_GENERATORS = {
    "T": [((1, 1, 1), 2 * math.pi / 3), ((0, 0, 1), math.pi)],
    "O": [((0, 0, 1), math.pi / 2), ((1, 1, 1), 2 * math.pi / 3)],
    "I": [((0, 1, PHI), 2 * math.pi / 5), ((1, 1, 1), 2 * math.pi / 3)],
    **{
        f"D{m}": [((0, 0, 1), 2 * math.pi / m), ((1, 0, 0), math.pi)]
        for m in (2, 3, 5, 12, 30)
    },
}
SO3_ORDERS = {"T": 12, "O": 24, "I": 60, "D2": 4, "D3": 6, "D5": 10, "D12": 24, "D30": 60}


def test_indexed_closure_of_so2_matches_the_scan():
    rng = Random(2)
    so2 = lambda: MatrixGroup.metric_preserving(2, 0)
    # every order up to 40, then a spread up to 200 (the scan is quadratic)
    for m in [*range(1, 41), *range(47, 200, 19), 200]:
        k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1] or [0])
        store = assert_same_closure(so2, [rotation_2d(2 * math.pi * k / m)])
        assert len(store) == m


@pytest.mark.parametrize("name", sorted(SO3_GENERATORS))
def test_indexed_closure_of_so3_matches_the_scan(name):
    rng = Random(name)
    so3 = lambda: MatrixGroup.metric_preserving(3, 0)
    for _ in range(3):
        r = rotation_3d([rng.gauss(0, 1) for _ in range(3)], rng.uniform(0, 2 * math.pi))
        gens = [
            r.mul(rotation_3d(axis, angle)).mul(r.transpose())
            for axis, angle in SO3_GENERATORS[name]
        ]
        assert len(assert_same_closure(so3, gens)) == SO3_ORDERS[name]


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_indexed_closure_of_near_ties_matches_the_scan(tol, factor):
    # products that differ from stored elements by tol * (1 -+ 1e-3), in a
    # cell-key entry and in an entry outside the key
    backend = approx(tol)
    gl = lambda n: (lambda: MatrixGroup.general_linear(n, backend))
    d = tol * factor
    for entry in [(0, 0), (0, 1), (1, 1)]:
        tie = [[0.0, -1.0], [1.0, 0.0]]
        tie[entry[0]][entry[1]] += d
        quarter = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], backend)
        assert_same_closure(gl(2), [quarter, Matrix.from_rows(tie, backend)], cap=120)
    flip = Matrix.from_rows([[-1.0, 0.0], [0.0, 1.0]], backend)
    near_flip = Matrix.from_rows([[-(1.0 + d), 0.0], [0.0, 1.0]], backend)
    capped = factor > 1
    result = assert_same_closure(gl(2), [flip, near_flip], cap=100)
    assert isinstance(result, str) == capped
    rng = Random(f"{tol}/{factor}")
    for _ in range(5):
        m = rng.randrange(3, 40)
        theta = 2 * math.pi / m
        c, s = math.cos(theta), math.sin(theta)
        eps = d / max(abs(c), abs(s))
        gens = [rotation_2d(theta, backend), rotation_2d(theta + eps, backend)]
        assert_same_closure(gl(2), gens, cap=120)
    assert_same_closure(
        gl(1), [Matrix.from_rows([[-1.0]], backend), Matrix.from_rows([[-1.0 - d]], backend)], cap=100
    )


@pytest.mark.parametrize("scale", [1e6, 2.0**50 * 4e-9, 1e9, 1e12])
def test_indexed_closure_of_large_entries_matches_the_scan(scale):
    # 2**50 * 4e-9 puts entries on both sides of the point where cell
    # coordinates (entry / 4e-9) are no longer rounded but computed exactly
    gl2 = lambda: MatrixGroup.general_linear(2, approx())
    for m in (4, 6, 12):
        r = rotation_2d(2 * math.pi / m)
        (c, ms), (s, _) = r.entries
        stretched = Matrix.from_rows([[c, ms / scale], [s * scale, c]], APPROX)
        assert_same_closure(gl2, [stretched], cap=150)
    affine1 = lambda: MatrixGroup.affine(1, approx())
    one = Matrix.from_rows([[1.0]], APPROX)
    for shift, tie in [(scale, 1e-9 * 0.999), (scale * 0.999, 1e-9 * 1.001)]:
        gens = [AffineTransform(one, (shift,)), AffineTransform(one, (shift + tie,))]
        assert_same_closure(affine1, gens, cap=150)
    gl1 = lambda: MatrixGroup.general_linear(1, approx())
    assert_same_closure(gl1, [Matrix.from_rows([[-scale]], APPROX)], cap=20)


def test_indexed_closure_of_affine_groups_matches_the_scan():
    rng = Random(3)
    affine2 = lambda: MatrixGroup.affine(2, approx())
    for m in (2, 5, 12, 40):
        r = rotation_2d(2 * math.pi / m)
        turn = AffineTransform(r, (rng.uniform(-5, 5), rng.uniform(-5, 5)))
        assert len(assert_same_closure(affine2, [turn])) == m
        other = AffineTransform(r, (rng.uniform(-5, 5), rng.uniform(-5, 5)))
        assert_same_closure(affine2, [turn, other], cap=150)


@pytest.mark.parametrize("tol", [1e-320, 1e-300, 1e-6, 1e-2, 0.3])
def test_indexed_closure_with_other_tolerances_matches_the_scan(tol):
    # below about 1e-300, entry / (4 * tol) overflows and the cell is
    # computed exactly; rotations then rarely close, so the cap is low
    so2 = lambda: MatrixGroup.metric_preserving(2, 0, backend=approx(tol))
    for m in (7, 50, 200):
        assert_same_closure(so2, [rotation_2d(2 * math.pi / m, approx(tol))], cap=120)


def test_indexed_closure_comparisons_grow_linearly(monkeypatch):
    # the closure's point index compares payloads with the group's payload_eq
    calls = [0]
    payload_eq = MatrixGroup.payload_eq

    def counted(self, p, q):
        calls[0] += 1
        return payload_eq(self, p, q)

    monkeypatch.setattr(MatrixGroup, "payload_eq", counted)
    so2 = MatrixGroup.metric_preserving(2, 0)
    so2.close_over([rotation_2d(2 * math.pi * 7 / 200)])
    assert len(so2.store) == 200
    assert 0 < calls[0] <= 2 * len(so2.store)
    calls[0] = 0
    so3 = MatrixGroup.metric_preserving(3, 0)
    so3.close_over([rotation_3d(axis, angle) for axis, angle in SO3_GENERATORS["I"]])
    assert len(so3.store) == 60
    assert 0 < calls[0] <= 2 * 2 * len(so3.store)


def test_closure_cap_error_says_how_far_it_got():
    gl1 = MatrixGroup.general_linear(1, EXACT)
    with pytest.raises(EnumerationCapExceeded, match=r"cap of 50 elements \(50 found, frontier of 1\)"):
        gl1.close_over([Matrix.from_rows([[2]], EXACT)], cap=50)
    with pytest.raises(EnumerationCapExceeded, match=r"\(1 found, frontier of 1\)"):
        gl1.close_over([Matrix.from_rows([[2]], EXACT)], cap=0)


# -- looking up stored elements ------------------------------------------------------


def scan_index(group, g):
    """Oracle: the position of the first stored element equal to ``g``, by scan."""
    return next((i for i, h in enumerate(group.store) if g.eq_to(h)), None)


def test_index_of_a_finite_group_element_is_its_payload():
    for group in (symmetric_group(4), quaternion_group()):
        assert [group.index_of(g) for g in group.store] == list(range(group.order))
    with pytest.raises(MixedGroups):
        cyclic_group(3).index_of(cyclic_group(3).store[1])


def test_index_of_an_exact_store_is_the_first_equal_element():
    grids = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]]]
    group = MatrixGroup.general_linear(2, EXACT, elements=grids)
    assert [group.index_of(g) for g in group.store] == [0, 1, 2]
    assert group.index_of(group.element([[F(2, 2), 0], [0, 1]])) == 0
    turn = group.store[1]
    assert group.index_of(turn * turn) == 2 == scan_index(group, turn * turn)
    assert group.index_of(group.element([[0, 1], [1, 0]])) is None
    with pytest.raises(MixedGroups):
        group.index_of(MatrixGroup.general_linear(2, EXACT, elements=grids).store[0])
    unstored = MatrixGroup.general_linear(2)
    with pytest.raises(InfeasibleExhaustive):
        unstored.index_of(unstored.identity)


def test_index_of_a_closed_store_reuses_the_closure_index():
    group = MatrixGroup.general_linear(2, EXACT)
    group.close_over([[[0, -1], [1, 0]], [[1, 0], [0, -1]]])
    index = group._index
    assert [group.index_of(g) for g in group.store] == list(range(8))
    assert group._index is index


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_index_of_a_float_store_matches_the_scan(tol):
    # stored near-duplicates and queries up to 1.5 tolerances off a rotation:
    # the lookup returns the first stored element within the tolerance
    rng = Random(5)
    backend = approx(tol)
    turns = [rotation_2d(2 * math.pi * k / 6, backend) for k in range(6)]

    def jitter(m):
        rows = [[x + rng.uniform(-1.5, 1.5) * tol for x in row] for row in m.entries]
        return Matrix.from_rows(rows, backend)

    # a store holds no two elements within the tolerance, but a query can
    # lie within it of two stored elements
    probe = MatrixGroup.general_linear(2, backend)
    stored = []
    for _ in range(30):
        m = jitter(rng.choice(turns))
        if not any(probe.payload_eq(m, s) for s in stored):
            stored.append(m)
    group = MatrixGroup.general_linear(2, backend, elements=stored)
    queries = [group.element(jitter(rng.choice(turns))) for _ in range(200)]
    found = [group.index_of(g) for g in queries]
    assert found == [scan_index(group, g) for g in queries]
    assert None in found and len(set(found)) > 7


@pytest.mark.parametrize("family", ["GL", "AFFINE"])
@pytest.mark.parametrize("backend", [EXACT, approx(1e-9), approx(0.5)], ids=["exact", "float", "coarse"])
def test_a_sampled_element_is_a_member_decided_once(family, backend, monkeypatch):
    # the sampler's rejection test is the family's membership test, so each
    # candidate matrix takes one determinant and every draw is a member
    from basiskit import sampling

    make = MatrixGroup.general_linear if family == "GL" else MatrixGroup.affine
    group = make(3, backend)
    counts = {"det": 0, "candidates": 0}

    def counting(fn, key):
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", counting(det, "det"))
    monkeypatch.setattr(sampling, "_random_square", counting(sampling._random_square, "candidates"))
    rng = Random(5)
    drawn = [sampling.sample_group_element(group, rng) for _ in range(20)]
    assert counts["det"] == counts["candidates"] >= 20
    monkeypatch.setattr(Matrix, "det", det)
    for g in drawn:
        assert group.membership(g.payload)[0]


def test_an_exact_special_linear_sample_takes_one_determinant(monkeypatch):
    # the rejection loop's determinant scales the first row, and det = 1 by
    # construction, so no membership determinant follows
    from basiskit import sampling

    def scaled(rng):
        # the sample as drawn before: a GL(3) sample, its first row over its det
        m = sampling.random_invertible_matrix(rng, 3, EXACT)
        det = m.det()
        return Matrix(((tuple(x / det for x in m.entries[0]),) + m.entries[1:]), EXACT)

    rng = Random(5)
    expected = [scaled(rng) for _ in range(10)]
    sl3 = MatrixGroup.special_linear(3)
    dets = []
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: dets.append(1) or det(self))
    rng = Random(5)
    drawn = [sampling.sample_group_element(sl3, rng) for _ in range(10)]
    assert len(dets) == 10
    monkeypatch.setattr(Matrix, "det", det)
    assert [g.payload for g in drawn] == expected
    assert all(sl3.membership(g.payload)[0] for g in drawn)


def test_a_float_special_linear_sample_keeps_its_membership_test(monkeypatch):
    from basiskit import sampling

    sl2 = MatrixGroup.special_linear(2, approx(1e-9))
    tested = []
    membership = MatrixGroup.membership
    monkeypatch.setattr(
        MatrixGroup, "membership", lambda self, p: tested.append(1) or membership(self, p)
    )
    rng = Random(5)
    drawn = [sampling.sample_group_element(sl2, rng) for _ in range(4)]
    assert len(tested) == 4
    assert all(abs(g.payload.det() - 1.0) <= 1e-9 for g in drawn)


# -- generators and tables of stored groups --------------------------------------------


def golden_group(name, folder="exact"):
    path = Path(__file__).parent / "golden" / folder / name
    return group_from_descriptor(json.loads(path.read_text(encoding="utf-8")))


def signed_permutation_matrices(n):
    return [
        Matrix.from_rows([[signs[i] if j == p[i] else 0 for j in range(n)] for i in range(n)], EXACT)
        for p in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
    ]


QUARTER = [[0, -1], [1, 0]]
FLIP = [[1, 0], [0, -1]]
B3_GENERATORS = [
    permutation_matrix((1, 2, 0)),
    permutation_matrix((1, 0, 2)),
    Matrix.diagonal((-1, 1, 1), EXACT),
]


def closed_over(group, generators):
    group.close_over(generators)
    return group


def shuffled(grids, seed):
    grids = list(grids)
    Random(seed).shuffle(grids)
    return grids


EXACT_CLOSED_STORES = {
    # closures: an identity and a repeat among the generators are dropped
    "gl2-closure": lambda: closed_over(
        MatrixGroup.general_linear(2), [QUARTER, [[1, 0], [0, 1]], QUARTER, FLIP]
    ),
    "b3-closure": lambda: closed_over(MatrixGroup.general_linear(3), B3_GENERATORS),
    "sl3-golden-closure": lambda: golden_group("sl3_generated_group.json"),
    "affine-closure": lambda: closed_over(
        MatrixGroup.affine(2),
        [AffineTransform(Matrix.from_rows(QUARTER, EXACT), (F(1), F(0)))],
    ),
    # stores given as elements
    "gl3-order8-golden": lambda: golden_group("gl3_order8_group.json"),
    "b3-shuffled": lambda: MatrixGroup.general_linear(
        3, elements=shuffled(signed_permutation_matrices(3), 7)
    ),
    "s3-permutation-matrices": lambda: MatrixGroup.general_linear(
        3, elements=[permutation_matrix(p) for p in itertools.permutations(range(3))]
    ),
    "trivial": lambda: MatrixGroup.special_linear(2, elements=[[[1, 0], [0, 1]]]),
    # the four powers of the affine closure's generator
    "affine-powers": lambda: MatrixGroup.affine(2, elements=list(itertools.accumulate(
        [AffineTransform(Matrix.from_rows(QUARTER, EXACT), (F(1), F(0)))] * 3,
        AffineTransform.after,
        initial=AffineTransform.identity(2, EXACT),
    ))),
}


TABLE_GROUPS = {
    **EXACT_CLOSED_STORES,
    "S4": lambda: symmetric_group(4),
    "Q8": quaternion_group,
    "Z6": lambda: cyclic_group(6),
}


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_the_product_table_agrees_with_compose_elements(name):
    group = TABLE_GROUPS[name]()
    store, gens, table = group.store, group.generators, group.table
    e = group.index_of(group.identity)
    assert e not in gens and len(set(gens)) == len(gens)
    assert len(table) == len(store)
    for i, row in enumerate(table):
        for j in range(len(store)):
            assert store[row[j]].payload == group.compose_elements(store[i], store[j]).payload
    # right multiplication by the generators reaches every element from e
    reached, frontier = {e}, [e]
    while frontier:
        frontier = [j for x in frontier for j in (table[x][s] for s in gens) if j not in reached]
        reached.update(frontier)
    assert reached == set(range(len(store)))


def test_a_closure_keeps_its_distinct_generators_in_order(monkeypatch):
    group = EXACT_CLOSED_STORES["gl2-closure"]()
    assert len(group.store) == 8
    assert [group.store[s].payload for s in group.generators] == [
        Matrix.from_rows(QUARTER, EXACT),
        Matrix.from_rows(FLIP, EXACT),
    ]
    b3 = EXACT_CLOSED_STORES["b3-closure"]()
    assert [b3.store[s].payload for s in b3.generators] == B3_GENERATORS
    # the closure forms no product beyond those it always formed: one per
    # element and generator given
    products = []
    mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: products.append(1) or mul(self, other))
    group = closed_over(MatrixGroup.general_linear(2), [QUARTER, QUARTER, FLIP])
    assert len(group.generators) == 2
    # and its table holds them: reading it at the generators forms none
    by_generators = [[row[s] for s in group.generators] for row in group.table]
    assert len(products) == 8 * 3
    assert by_generators[0] == list(group.generators)


def test_a_store_that_is_not_closed_has_no_generators_and_none_at_its_missing_product():
    # each store with a stored element whose square is no stored element
    stores = [
        (MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], [[2, 0], [0, 1]]]), 1),
        # without the identity: -I squared is I
        (MatrixGroup.general_linear(2, elements=[[[-1, 0], [0, -1]]]), 0),
        (MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], QUARTER]), 1),
        (MatrixGroup.metric_preserving(2, 0, elements=[[[1.0, 0.0], [0.0, 1.0]], rotation_2d(0.3)]), 1),
    ]
    for group, a in stores:
        assert group.generators is None
        assert group.table[a][a] is None
        assert group.index_of(group.compose_elements(group.store[a], group.store[a])) is None
    unstored = MatrixGroup.general_linear(2)
    assert (unstored.generators, unstored.table) == (None, None)


@pytest.mark.parametrize("name", ["so2_order12_group.json", "so3_I_group.json", "quarter turns"])
def test_a_closed_float_store_has_a_table_of_its_representatives_and_no_generators(name):
    if name == "quarter turns":
        elements = [rotation_2d(k * math.pi / 2) for k in range(4)]
        group = MatrixGroup.metric_preserving(2, 0, elements=elements)
    else:
        group = golden_group(name, "float")
    store, table = group.store, group.table
    assert group.generators is None
    assert len(table) == len(store)
    for i, row in enumerate(table):
        for j in range(len(store)):
            assert row[j] == group.index_of(group.compose_elements(store[i], store[j])) is not None


def test_a_store_that_is_not_closed_stops_at_its_first_missing_product(monkeypatch):
    looked_up = []
    find = PointIndex.find
    monkeypatch.setattr(PointIndex, "find", lambda self, p: looked_up.append(p) or find(self, p))
    group = MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], [[2, 0], [0, 1]], FLIP])
    assert group.generators is None
    # the identity, then the first power of g = diag(2, 1): g * g is no element
    assert len(looked_up) == 2
    assert looked_up[-1] == Matrix.diagonal((4, 1), EXACT)


def test_a_store_with_equal_elements_is_rejected_with_both_positions():
    identity_twice = [[[1, 0], [0, 1]], QUARTER, [[F(2, 2), 0], [0, 1]]]
    with pytest.raises(BasiskitError, match=r"^stored elements 0 and 2 are equal$"):
        MatrixGroup.general_linear(2, elements=identity_twice)
    near = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1e-12], [-1e-12, 1.0]]]
    with pytest.raises(BasiskitError, match=r"^stored elements 0 and 1 are equal within the tolerance"):
        MatrixGroup.metric_preserving(2, 0, elements=near)
    # one tolerance and a half apart they are two elements
    apart = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.5e-9], [0.0, 1.0]]]
    assert len(MatrixGroup.general_linear(2, approx(1e-9), elements=apart).store) == 2


def test_point_index_add_returns_the_position_found_or_appended():
    index = PointIndex(lambda p, q: abs(p[0] - q[0]) <= 0.1, lambda p: p, 0.1)
    assert [index.add(p) for p in [(0.0,), (1.0,), (0.05,), (2.0,), (0.95,)]] == [0, 1, 0, 2, 1]
    assert index.points == [(0.0,), (1.0,), (2.0,)]


def test_point_index_add_and_find_name_the_first_point_added():
    # (4.7, 0) equals both points; the later one lies in the cell searched first
    index = PointIndex(lambda p, q: abs(p[0] - q[0]) <= 1.0, lambda p: p, 1.0)
    assert [index.add(p) for p in [(5.5, 0.0), (3.9, 0.0)]] == [0, 1]
    assert index.find((4.7, 0.0)) == index.add((4.7, 0.0)) == 0
    assert len(index.points) == 2
    # a store names the pair that index_of gives
    stored = [[[x, 0.0], [0.0, 1.0]] for x in (1.0000000055, 1.0000000039, 1.0000000047)]
    with pytest.raises(BasiskitError, match=r"^stored elements 0 and 2 are equal within the tolerance"):
        MatrixGroup.general_linear(2, APPROX, elements=stored)
    group = MatrixGroup.general_linear(2, APPROX, elements=stored[:2])
    assert group.index_of(group.element(stored[2])) == 0


# -- float lookups against a scan ----------------------------------------------------


class ScanIndex:
    """The reference for float lookups: a scan of every point added, in order."""

    def __init__(self, eq):
        self.points, self._eq = [], eq

    def find(self, point):
        return next((i for i, p in enumerate(self.points) if self._eq(point, p)), None)

    def add(self, point):
        found = self.find(point)
        if found is None:
            self.points.append(point)
            return len(self.points) - 1
        return found


def ulps(x, steps):
    """``x`` moved by ``steps`` ulps, down for a negative ``steps``."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def cell_edge(index, k):
    """The least float in cell ``k`` of ``index``, found from ``k`` cell widths."""
    x = k * index._width
    while index._cell(x) >= k:
        x = ulps(x, -1)
    while index._cell(x) < k:
        x = ulps(x, 1)
    return x


def neighbourhoods(index, cells, tolerances):
    """For each cell ``k``: its edge and the points one tolerance either side
    of it, each with the floats one ulp below and above."""
    out = []
    for k in cells:
        edge = cell_edge(index, k)
        centres = [edge, *(edge + s * t for t in tolerances for s in (1, -1))]
        out.append([ulps(c, d) for c in centres for d in (-1, 0, 1)])
    return out


NON_FINITE = (math.inf, -math.inf, math.nan)


def assert_lookups_match_the_scan(index, reference, points, rng):
    """Adds and finds, interleaved, name the same positions as the scan."""
    for p in points:
        if rng.random() < 0.4:
            assert index.find(p) == reference.find(p), p
        else:
            assert index.add(p) == reference.add(p), p
    assert index.points == reference.points
    for p in points:
        assert index.find(p) == reference.find(p), p


@pytest.mark.parametrize("tol", [1e-9, 2.0**-10, 0.3, 1e-300])
@pytest.mark.parametrize("seed", range(3))
def test_float_lookups_name_the_first_point_a_scan_finds(tol, seed):
    # points on, and one ulp either side of, cell edges and the tolerance
    # box, below, at and past the limit where cell coordinates are rounded;
    # with non-finite entries, and with one, two, three or no entries
    rng = Random(f"{tol}/{seed}")
    backend = approx(tol)
    index, reference = PointIndex(backend.close, tuple, tol), ScanIndex(backend.close)
    limit = 2**50
    cells = [0, -1, 1, rng.randrange(-10**6, 10**6), limit - 2, limit - 1, limit, limit + 1, 2 * limit]
    near = neighbourhoods(index, cells, [tol])

    def entry():
        roll = rng.random()
        if roll < 0.03:
            return rng.choice(NON_FINITE)
        # most entries come from the first cells, so that points meet
        return rng.choice(near[rng.randrange(4) if roll < 0.7 else rng.randrange(len(near))])

    points = []
    for _ in range(600):
        length = rng.choice((0, 1, 2, 2, 2, 3))
        points.append(tuple(entry() for _ in range(length)))
    assert_lookups_match_the_scan(index, reference, points, rng)
    assert len(reference.points) < len(points) / 2


@pytest.mark.parametrize("tols", [(1e-9, 1e-6), (1e-6, 1e-9), (0.25, 0.25)])
def test_float_lookups_of_product_points_with_two_tolerances_match_the_scan(tols):
    left, right = (CoordCarrier(n, "column", approx(t)) for n, t in zip((1, 2), tols))
    carrier = ProductCarrier(left, right)
    rng = Random(str(tols))
    index = PointIndex(carrier.point_eq, carrier.entries, carrier.tolerance)
    reference = ScanIndex(carrier.point_eq)
    near = neighbourhoods(index, [0, -1, 1, rng.randrange(1, 10**6)], tols)
    pick = lambda: rng.choice(near[rng.randrange(len(near))])
    points = [((pick(),), (pick(), pick())) for _ in range(600)]
    assert_lookups_match_the_scan(index, reference, points, rng)
    assert len(reference.points) < len(points) / 2


class CountedCells(dict):
    """The cells of a point index, counting the cells a lookup reads."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_a_float_lookup_reads_only_the_cells_its_tolerance_box_meets():
    # one, two or four cells for a two-entry key, 2.25 on average; one or
    # two for a one-entry key, and the single cell of a point without entries
    rng = Random(11)
    index = PointIndex(APPROX.close, tuple, APPROX.tolerance)
    index._cells = CountedCells()
    reads = {}
    for n in (0, 1, 2, 3):
        for _ in range(4000):
            before = index._cells.reads
            index.find(tuple(rng.uniform(-1.0, 1.0) for _ in range(n)))
            reads.setdefault(n, []).append(index._cells.reads - before)
    assert set(reads[0]) == {1}
    assert set(reads[1]) == {1, 2}
    assert set(reads[2]) == set(reads[3]) == {1, 2, 4}
    assert 2.15 < sum(reads[2]) / len(reads[2]) < 2.35


# -- integer keys of exact points ----------------------------------------------------


class FractionTupleIndex:
    """An exact point index that files a point under the tuple of its
    entries, ``Fraction`` hashes and all: the reference for the integer keys."""

    def __init__(self, eq, entries):
        self.points, self._eq, self._entries, self._cells = [], eq, entries, {}

    def find(self, point):
        near = self._cells.get(tuple(self._entries(point)), [])
        return min((i for i in near if self._eq(point, self.points[i])), default=None)

    def add(self, point):
        key = tuple(self._entries(point))
        near = self._cells.get(key, [])
        found = next((i for i in near if self._eq(point, self.points[i])), None)
        if found is not None:
            return found
        self._cells.setdefault(key, []).append(len(self.points))
        self.points.append(point)
        return len(self.points) - 1


def assert_integer_keys_keep_positions(points, eq, entries, probes=()):
    index, reference = PointIndex(eq, entries, 0.0), FractionTupleIndex(eq, entries)
    assert [index.add(p) for p in points] == [reference.add(p) for p in points]
    assert index.points == reference.points
    for p in [*points, *probes]:
        assert index.find(p) == reference.find(p)


def element_entries(g):
    return g.group.payload_entries(g.payload)


def products(group, elements):
    return [group.compose_elements(a, b) for a in elements for b in elements]


def test_integer_keys_keep_the_positions_of_an_exact_closure():
    group = MatrixGroup.general_linear(2, EXACT)
    group.close_over([[[0, F(1, 2)], [-2, 0]], [[1, 0], [0, -1]]])
    assert len(group.store) == 8
    points = products(group, group.store)
    assert_integer_keys_keep_positions(points, GroupElement.eq_to, element_entries)
    reference = FractionTupleIndex(GroupElement.eq_to, element_entries)
    for g in group.store:
        reference.add(g)
    assert [group.index_of(p) for p in points] == [reference.find(p) for p in points]


def test_integer_keys_keep_the_positions_of_stores():
    shear = [[1, F(1, 2)], [0, 1]]
    stored = [[[1, 0], [0, 1]], shear, [[F(2, 3), 0], [0, F(3, 2)]], [[0, -1], [1, 0]]]
    group = MatrixGroup.general_linear(2, EXACT, elements=stored)
    # products mostly leave the store: lookups that miss are compared too
    points = products(group, group.store)
    assert_integer_keys_keep_positions([*group.store, *points], GroupElement.eq_to, element_entries)
    assert [group.index_of(g) for g in group.store] == [0, 1, 2, 3]
    assert group.index_of(group.compose_elements(group.store[1], group.store[1])) is None


def test_integer_keys_keep_the_positions_of_affine_stores():
    linear = [Matrix.from_rows(m, EXACT) for m in ([[1, 0], [0, 1]], [[0, -1], [1, 0]], [[2, 1], [1, 1]])]
    shifts = [(F(0), F(0)), (F(1, 2), F(-3)), (F(5), F(2, 7))]
    group = MatrixGroup.affine(
        2, EXACT, elements=[AffineTransform(m, t) for m in linear for t in shifts]
    )
    points = products(group, group.store[:5])
    assert_integer_keys_keep_positions([*group.store, *points], GroupElement.eq_to, element_entries)
    assert [group.index_of(g) for g in group.store] == list(range(9))


def test_integer_keys_keep_the_positions_of_an_object_orbit():
    group = MatrixGroup.general_linear(2, EXACT)
    group.close_over([[[0, -1], [1, 0]], [[1, 0], [0, -1]]])
    anchor = Basis.make(VectorSpace("central_affine", 2, EXACT), [[4, F(1, 2)], [F(1, 3), 4]])
    obj = GeometricalObject.make(tensor_power_functor(2), [2, 0, F(-3, 2), 1], anchor)
    carrier = ObjectCarrier(obj.functor, anchor)
    found = orbit(object_representation(obj, group), obj).points
    assert len(found) == 8
    moved = [transform_object(o, g) for o in found for g in group.store]
    assert_integer_keys_keep_positions(moved, GeometricalObject.eq, carrier.entries)


def test_an_integer_point_is_its_own_key():
    # finite carriers and Cayley-table elements keep the keys they had
    index = PointIndex(lambda p, q: p == q, lambda p: p, 0.0)
    assert [index.add(p) for p in [(3, 0), (1, 2), (3, 0), (F(1, 2), 1), (F(3), 0)]] == [0, 1, 0, 2, 0]
    assert list(index._cells) == [(3, 0), (1, 2), (F(1, 2), 1)]
    # a rational point is filed under integers; a whole rational and its
    # integer file together
    index = PointIndex(lambda p, q: p == q, lambda p: p, 0.0)
    assert [index.add(p) for p in [(F(1, 2), 4), (F(3), 0), (3, F(0)), (1, 2)]] == [0, 1, 1, 2]
    assert list(index._cells) == [((1, 4), (2, 1)), ((3, 0), (1, 1)), ((1, 2), (1, 1))]
    assert _rational_key((F(3), 0)) == _rational_key((3, F(0))) == ((3, 0), (1, 1))
    assert _rational_key(()) == ((), ())
