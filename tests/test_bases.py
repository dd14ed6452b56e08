"""Bases, coordinates, transports and orthonormalisation."""

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from basiskit import bases, representations
from basiskit.bases import (
    Basis,
    BasisManifold,
    VectorSpace,
    active_coordinates_check,
    active_transform,
    basis_metric_signs,
    change_of_basis,
    coordinate_representation,
    coordinate_representation_check,
    coordinate_transformation,
    gram_schmidt,
    is_g_basis,
    passive_transform,
    standard_coordinates,
    vector_coordinates,
)
from basiskit.errors import (
    DegenerateBasis,
    DependentInput,
    GroupSpaceMismatch,
    NotInOrbit,
    NullVector,
)
from basiskit.descriptors import group_from_descriptor
from basiskit.groups import (
    AffineTransform,
    MatrixGroup,
    boost_2d,
    cyclic_group,
    dihedral_group,
    permutation_matrix,
    rotation_2d,
    symmetric_group,
)
from basiskit.matrices import Matrix
from basiskit.representations import (
    CoordCarrier,
    FiniteCarrier,
    LinearTransformation,
    MappingTransformation,
    Representation,
    Verdict,
    check_axioms,
    check_variance,
    solve_transport,
)
from basiskit.sampling import random_vector, sample_group_element
from basiskit.scalars import APPROX, EXACT, approx

F = Fraction


def linear_space(dim=2, backend=EXACT):
    return VectorSpace("central_affine", dim, backend)


def exact_basis(rows, space=None):
    space = space or linear_space()
    return Basis.make(space, rows)


# -- basis construction ----------------------------------------------------------


def test_make_rejects_dependent_vectors():
    with pytest.raises(DegenerateBasis):
        exact_basis([[1, 2], [2, 4]])


def test_make_rejects_wrong_count():
    with pytest.raises(DegenerateBasis):
        exact_basis([[1, 0]])


def test_linear_basis_takes_no_origin():
    with pytest.raises(Exception):
        Basis.make(linear_space(), [[1, 0], [0, 1]], origin=(0, 0))


def test_affine_basis_defaults_origin_to_zero():
    space = VectorSpace("affine", 2, EXACT)
    b = Basis.make(space, [[1, 0], [0, 1]])
    assert b.origin == (F(0), F(0))


# -- coordinates -----------------------------------------------------------------


def test_vector_coordinates_oracle():
    b = exact_basis([[1, 1], [0, 1]])
    cv = vector_coordinates((2, 5), b)
    assert cv.components == (F(2), F(3))
    assert cv.reconstruct() == (F(2), F(5))


def test_standard_coordinates_oracle():
    ref = exact_basis([[2, 0], [0, 1]])
    b = exact_basis([[2, 2], [0, 3]])
    sc = standard_coordinates(b, ref)
    assert sc.grid.entries == ((F(1), F(2)), (F(0), F(3)))
    assert not sc.is_identity()
    assert standard_coordinates(ref, ref).is_identity()


def test_coordinate_transformation_oracle():
    gl2 = MatrixGroup.general_linear(2)
    b = exact_basis([[1, 0], [0, 1]])
    a = gl2.element(Matrix.from_rows([[2, 0], [0, 1]], EXACT))
    cv = vector_coordinates((4, 3), b)
    moved = coordinate_transformation(cv, a)
    assert moved.components == (F(2), F(3))
    # the ambient vector is untouched
    assert moved.reconstruct() == (F(4), F(3))
    assert moved.basis.eq(passive_transform(b, a))


# -- active and passive ------------------------------------------------------------


def test_passive_recombines_rows():
    gl2 = MatrixGroup.general_linear(2)
    b = exact_basis([[1, 0], [0, 1]])
    a = gl2.element(Matrix.from_rows([[1, 1], [0, 1]], EXACT))
    moved = passive_transform(b, a)
    # e'_0 = e_0 + e_1, e'_1 = e_1
    assert moved.vectors == ((F(1), F(1)), (F(0), F(1)))


def test_passive_rows_are_built_once_and_float_rank_is_still_checked():
    gl2 = MatrixGroup.general_linear(2)
    moved = passive_transform(
        exact_basis([[1, 2], [0, 1]]), gl2.element(Matrix.from_rows([[0, 1], [1, 0]], EXACT))
    )
    assert moved.rows() is moved.rows()
    assert moved.vectors == ((F(0), F(1)), (F(1), F(2)))
    # grid and basis each clear the 1e-9 tolerance; their product does not
    shrink = Matrix.from_rows([[1e-5, 0.0], [0.0, 1.0]], APPROX)
    flat = Basis.make(linear_space(backend=APPROX), shrink.entries)
    with pytest.raises(DegenerateBasis):
        passive_transform(flat, MatrixGroup.general_linear(2, APPROX).element(shrink))


@pytest.mark.parametrize("mover", [active_transform, passive_transform])
def test_exact_moved_bases_take_no_determinant(mover, monkeypatch):
    # the basis and the element are checked on entry; their image inherits it
    space = VectorSpace("affine", 2, EXACT)
    b = Basis.make(space, [[1, 1], [0, 1]], origin=[1, 2])
    affine = MatrixGroup.affine(2)
    g = affine.element(AffineTransform(Matrix.from_rows([[2, 1], [1, 1]], EXACT), (F(1), F(0))))
    calls = [0]
    det = Matrix.det

    def counted(self):
        calls[0] += 1
        return det(self)

    monkeypatch.setattr(Matrix, "det", counted)
    moved = mover(b, g)
    assert calls[0] == 0
    monkeypatch.setattr(Matrix, "det", det)
    assert moved.eq(Basis.make(space, moved.vectors, origin=moved.origin))


def test_float_active_transform_still_checks_rank():
    # grid and basis each clear the 1e-9 tolerance; the moved vectors do not
    shrink = Matrix.from_rows([[1e-5, 0.0], [0.0, 1.0]], APPROX)
    flat = Basis.make(linear_space(backend=APPROX), [[1e-5, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateBasis):
        active_transform(flat, MatrixGroup.general_linear(2, APPROX).element(shrink))


def test_active_moves_each_vector():
    gl2 = MatrixGroup.general_linear(2)
    b = exact_basis([[1, 0], [0, 1]])
    g = gl2.element(Matrix.from_rows([[0, -1], [1, 0]], EXACT))
    moved = active_transform(b, g)
    assert moved.vectors == ((F(0), F(1)), (F(-1), F(0)))


def test_active_preserves_coordinates():
    gl2 = MatrixGroup.general_linear(2)
    b = exact_basis([[1, 1], [0, 1]])
    g = gl2.element(Matrix.from_rows([[2, 1], [1, 1]], EXACT))
    v = (F(3), F(5))
    before = vector_coordinates(v, b).components
    moved_v = g.payload.matvec(v)
    after = vector_coordinates(moved_v, active_transform(b, g)).components
    assert before == after


@pytest.mark.parametrize("backend", [EXACT, APPROX], ids=["exact", "float"])
def test_active_coordinates_check_probes_kronecker_then_all_ones(backend):
    b = Basis.make(linear_space(3, backend), [[1, 1, 0], [0, 1, 0], [0, 2, 1]])
    g = MatrixGroup.general_linear(3, backend).element(
        Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], backend)
    )
    verdict = active_coordinates_check(b, g)
    assert verdict.passed and verdict.checked == 4
    assert verdict == active_coordinates_check(b, g, active_transform(b, g))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("backend", [EXACT, APPROX], ids=["exact", "float"])
def test_active_coordinates_check_fails_at_the_unmoved_vector(backend, k):
    # a moved basis with vector k left in place breaks the law first at the
    # k-th Kronecker probe, whose only component is on that vector
    b = Basis.make(linear_space(3, backend), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g = MatrixGroup.general_linear(3, backend).element(
        Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], backend)
    )
    rows = list(active_transform(b, g).vectors)
    rows[k] = b.vectors[k]
    verdict = active_coordinates_check(b, g, Basis.make(b.space, rows))
    assert not verdict.passed
    assert verdict.checked == k + 1
    v, before, after = verdict.counterexample
    assert v == b.vectors[k] == before
    assert not backend.close(before, after)
    if backend.is_exact:
        assert verdict.residual_max is None
    else:
        assert verdict.residual_max > 0.5


def test_active_and_passive_commute():
    gl2 = MatrixGroup.general_linear(2)
    b = exact_basis([[1, 1], [0, 1]])
    g = gl2.element(Matrix.from_rows([[2, 1], [1, 1]], EXACT))
    a = gl2.element(Matrix.from_rows([[1, 0], [3, 1]], EXACT))
    one_way = passive_transform(active_transform(b, g), a)
    other_way = active_transform(passive_transform(b, a), g)
    assert one_way.eq(other_way)


def test_affine_origin_moves_actively_only():
    space = VectorSpace("affine", 2, EXACT)
    b = Basis.make(space, [[1, 0], [0, 1]], origin=(1, 0))
    aff = MatrixGroup.affine(2)
    from basiskit.groups import AffineTransform

    g = aff.element(
        AffineTransform(Matrix.from_rows([[0, -1], [1, 0]], EXACT), (F(1), F(1)))
    )
    assert active_transform(b, g).origin == (F(1), F(2))
    assert passive_transform(b, g).origin == (F(1), F(0))


# -- change of basis -----------------------------------------------------------------


def test_change_of_basis_solves_the_transport():
    gl2 = MatrixGroup.general_linear(2)
    b1 = exact_basis([[1, 0], [0, 1]])
    b2 = exact_basis([[2, 2], [0, 3]])
    a = change_of_basis(b1, b2, gl2)
    assert passive_transform(b1, a).eq(b2)
    assert a.payload.entries == ((F(2), F(2)), (F(0), F(3)))


def test_change_of_basis_respects_the_family():
    so2 = MatrixGroup.metric_preserving(2, 0)
    space = VectorSpace("euclid", 2, APPROX)
    b1 = Basis.make(space, [[1.0, 0.0], [0.0, 1.0]])
    b2 = Basis.make(space, [[0.0, 1.0], [-1.0, 0.0]])
    skew = Basis.make(space, [[1.0, 1.0], [0.0, 1.0]])
    a = change_of_basis(b1, b2, so2)
    assert passive_transform(b1, a).eq(b2)
    with pytest.raises(NotInOrbit):
        change_of_basis(b1, skew, so2)


def test_change_of_basis_affine_moves_origin():
    space = VectorSpace("affine", 2, EXACT)
    b1 = Basis.make(space, [[1, 0], [0, 1]], origin=(0, 0))
    b2 = Basis.make(space, [[0, 1], [-1, 0]], origin=(3, 4))
    aff = MatrixGroup.affine(2)
    a = change_of_basis(b1, b2, aff)
    assert a.payload.translation == (F(3), F(4))
    moved = passive_transform(b1, a)
    # passive transports leave the origin alone; the group element still
    # records how the frames' origins relate
    assert moved.origin == (F(0), F(0))
    assert moved.rows().eq(b2.rows())


def test_linear_group_cannot_move_origins():
    space = VectorSpace("affine", 2, EXACT)
    b1 = Basis.make(space, [[1, 0], [0, 1]], origin=(0, 0))
    b2 = Basis.make(space, [[1, 0], [0, 1]], origin=(1, 0))
    gl2 = MatrixGroup.general_linear(2)
    with pytest.raises(NotInOrbit):
        change_of_basis(b1, b2, gl2)


def test_mismatched_spaces_rejected():
    b1 = exact_basis([[1, 0], [0, 1]])
    b3 = Basis.make(linear_space(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    gl2 = MatrixGroup.general_linear(2)
    with pytest.raises(GroupSpaceMismatch):
        change_of_basis(b1, b3, gl2)


# -- coordinate representation law -----------------------------------------------------


def test_coordinate_rep_check_on_stored_rotations():
    group = MatrixGroup.metric_preserving(
        2, 0, elements=[rotation_2d(k * math.pi / 5) for k in range(5)]
    )
    result = coordinate_representation_check(group, seed=7)
    assert result.passed
    assert result.composition.residual_max <= 1e-9


def test_coordinate_rep_check_sampled_exact():
    gl3 = MatrixGroup.general_linear(3)
    result = coordinate_representation_check(gl3, samples=25, seed=11)
    assert result.passed
    assert result.composition.residual_max is None


def test_coordinate_rep_check_reports_its_first_failure():
    # with a tolerance of 1e-300, float rounding breaks the composition law;
    # the count, witness and residual pin the first failing case
    tiny = approx(1e-300)
    group = MatrixGroup.general_linear(
        2, tiny, elements=[rotation_2d(2 * math.pi * k / 5, tiny) for k in range(5)]
    )
    result = coordinate_representation_check(group)
    composition = result.composition
    assert not result.passed
    assert (composition.passed, composition.mode, composition.checked) == (
        False,
        "exhaustive-pairs(25)",
        19,
    )
    a, b, v = composition.counterexample
    assert a is group.store[1] and b is group.store[1]
    assert v == (1.9764279855179687, 0.7111185141854763)
    assert composition.residual_max == 2.220446049250313e-16
    assert result.effectiveness == Verdict(True, "exhaustive", 5, None, None)


def test_coordinate_rep_check_inverts_each_element_once(monkeypatch):
    # in floating point one inverse per element for the steps and one per
    # pair for the products; over the rationals one per distinct element,
    # a product included, stored or sampled
    inverted = []
    inverse = Matrix.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    group = MatrixGroup.metric_preserving(
        2, 0, elements=[rotation_2d(k * math.pi / 5) for k in range(5)]
    )
    assert coordinate_representation_check(group, seed=7).passed
    assert len(inverted) == 25 + 5
    inverted.clear()
    assert coordinate_representation_check(MatrixGroup.general_linear(2), samples=9).passed
    assert len(inverted) == len(set(inverted)) > 9
    # a closed group of order eight: every product is one of its elements
    inverted.clear()
    assert coordinate_representation_check(golden_gl3_order8(), seed=5).passed
    assert len(inverted) == len(set(inverted)) == 8


# -- the exact law decided on grids ----------------------------------------------------


def kronecker_oracle(rep, seconds=None):
    """The side law one triple at a time, on every pair ``(a, b)`` with
    ``b`` in ``seconds`` (all stored elements by default) and every
    Kronecker vector: ``(passed, checked, witness)``, where ``checked``
    counts the identity law and the pairs run, as the grid engine does."""
    group = rep.group
    seconds = group.store if seconds is None else seconds
    kronecker = Matrix.identity(rep.carrier.dim, rep.carrier.backend).entries
    for i, (a, b) in enumerate(itertools.product(group.store, seconds)):
        outer, inner = (a, b) if rep.side == "left" else (b, a)
        for u in kronecker:
            if rep.apply(group.compose_elements(a, b), u) != rep.apply(outer, rep.apply(inner, u)):
                return False, i + 2, (a, b, u)
    return True, 1 + len(group.store) * len(seconds), None


def generator_elements(group):
    return [group.store[s] for s in group.generators]


def engine_key(verdict):
    return (verdict.passed, verdict.checked, verdict.counterexample)


def assert_confirmed(rep, witness):
    """The witness ``(a, b, u)`` breaks the side law, evaluated directly."""
    a, b, u = witness
    outer, inner = (a, b) if rep.side == "left" else (b, a)
    assert rep.carrier.contains(u)
    assert rep.apply(rep.group.compose_elements(a, b), u) != rep.apply(outer, rep.apply(inner, u))


def golden_gl3_order8():
    path = Path(__file__).parent / "golden" / "exact" / "gl3_order8_group.json"
    return group_from_descriptor(json.loads(path.read_text(encoding="utf-8")))


def signed_permutations(n, special=False):
    """The signed permutation matrices of size ``n``, those of determinant
    one only when ``special``."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            grid = Matrix.from_rows(
                [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)],
                EXACT,
            )
            if not special or grid.det() == 1:
                out.append(grid)
    return out


def conjugated(grids, conjugator):
    c = Matrix.from_rows(conjugator, EXACT)
    c_inv = c.inverse()
    return MatrixGroup.general_linear(c.nrows, elements=[c.mul(g).mul(c_inv) for g in grids])


CONJUGATED_GROUPS = {
    "signed-perms-2": lambda: conjugated(signed_permutations(2), [[2, F(1, 3)], [F(-1, 2), 1]]),
    "rotations-of-the-cube": lambda: conjugated(
        signed_permutations(3, special=True),
        [[1, F(1, 2), 0], [0, 1, F(-2, 3)], [F(1, 3), 0, 1]],
    ),
    "sign-flips-3": lambda: conjugated(
        [Matrix.diagonal(signs, EXACT) for signs in itertools.product((1, -1), repeat=3)],
        [[3, 1, 0], [0, F(1, 2), 1], [1, 0, F(-5, 4)]],
    ),
}


@pytest.mark.parametrize("seed", [1, 5, 42])
@pytest.mark.parametrize("name", ["golden-gl3-order8", *CONJUGATED_GROUPS])
def test_grid_decided_law_agrees_with_the_per_vector_oracle(name, seed):
    # each store is closed, so the pairs run are (a, s) with s a generator
    group = golden_gl3_order8() if name == "golden-gl3-order8" else CONJUGATED_GROUPS[name]()
    result = coordinate_representation_check(group, seed=seed)
    assert result.passed
    composition = result.composition
    rep = coordinate_representation(group)
    assert engine_key(composition) == kronecker_oracle(rep, generator_elements(group))
    assert kronecker_oracle(rep)[0]
    # decided on grids, so the seed plays no part
    assert composition == coordinate_representation_check(group, seed=seed + 1).composition
    k = len(group.generators)
    assert composition.mode == f"exhaustive(grids, generators={k})"
    assert composition.checked == 1 + len(group.store) * k
    assert (result.effectiveness.mode, result.effectiveness.checked) == ("exhaustive", len(group.store))


@pytest.mark.parametrize("seed", [3, 11])
def test_grid_decided_law_agrees_with_the_oracle_when_sampled(seed):
    # without a store the exact law is checked on seeded triples (a, b, u),
    # here against x (ab)^-1 = (x b^-1) a^-1 worked out on the matrices
    gl3 = MatrixGroup.general_linear(3)
    composition = coordinate_representation_check(gl3, samples=12, seed=seed).composition
    rng = Random(seed)
    for _ in range(12):
        a, b = sample_group_element(gl3, rng), sample_group_element(gl3, rng)
        u = random_vector(rng, 3, EXACT)
        once = a.payload.mul(b.payload).inverse().vecmat(u)
        assert once == a.payload.inverse().vecmat(b.payload.inverse().vecmat(u))
    assert engine_key(composition) == (True, 13, None)
    assert composition.mode == f"sampled(k=12, seed={seed})"


def test_exact_coordrep_above_the_work_cap_samples_triples(monkeypatch):
    # 8 elements * 2 generators on a three-dimensional carrier: 48 units of
    # work on grids
    group = golden_gl3_order8()
    monkeypatch.setattr(representations, "EXHAUSTIVE_WORK_CAP", 48)
    assert coordinate_representation_check(group).composition.mode == "exhaustive(grids, generators=2)"
    monkeypatch.setattr(representations, "EXHAUSTIVE_WORK_CAP", 47)
    result = coordinate_representation_check(group, samples=7, seed=3)
    assert result.passed
    assert engine_key(result.composition) == (True, 8, None)
    # effectiveness is a law on single elements: 8 units, still exhaustive
    assert (result.effectiveness.mode, result.effectiveness.checked) == ("exhaustive", 8)


def stored_linear_rep(group, side, layout, planted=None):
    """The stored grids of ``group`` acting on coordinates; ``planted``
    maps a store position to the position whose grid it is given instead."""
    carrier = CoordCarrier(group.dim, layout, EXACT)

    def assign(g):
        i = group.index_of(g)
        grid = group.store[planted[i]].payload if planted and i in planted else g.payload
        return LinearTransformation(carrier, grid)

    return Representation(group, carrier, side, assign)


def all_pairs_variance(rep):
    """``check_variance``'s classification over every stored pair."""
    f, store = rep.transformation, rep.group.store
    homo = all(f(a * b).grid == f(a).grid.mul(f(b).grid) for a in store for b in store)
    anti = all(f(b * a).grid == f(a).grid.mul(f(b).grid) for a in store for b in store)
    return {(True, True): "both", (True, False): "covariant", (False, True): "contravariant"}.get(
        (homo, anti), "neither"
    )


def variance_pairs_run(rep, seconds):
    """How many pairs ``(a, s)``, ``s`` in ``seconds``, ``check_variance``
    runs: all of them, or up to the first at which both halves have failed."""
    f, homo, anti = rep.transformation, True, True
    pairs = list(itertools.product(rep.group.store, seconds))
    for n, (a, s) in enumerate(pairs, 1):
        product = f(a).grid.mul(f(s).grid)
        homo = homo and f(a * s).grid == product
        anti = anti and f(s * a).grid == product
        if not (homo or anti):
            return n
    return len(pairs)


@pytest.mark.parametrize("planted", [None, 3], ids=["natural", "planted"])
@pytest.mark.parametrize(
    "side, layout", [("left", "column"), ("right", "row"), ("left", "row"), ("right", "column")]
)
@pytest.mark.parametrize("name", ["golden-gl3-order8", *CONJUGATED_GROUPS])
def test_reduced_grid_law_on_a_closed_store_agrees_with_all_pairs(name, side, layout, planted):
    # a closed exact store has generators, so the side law runs the pairs
    # (a, s); it must fail exactly when some pair (a, b) fails, and name a
    # triple that does
    group = golden_gl3_order8() if name == "golden-gl3-order8" else CONJUGATED_GROUPS[name]()
    rep = stored_linear_rep(group, side, layout, planted and {planted: planted + 1})
    verdict = check_axioms(rep)
    k = len(group.generators)
    assert verdict.mode == f"exhaustive(grids, generators={k})"
    assert engine_key(verdict) == kronecker_oracle(rep, generator_elements(group))
    assert verdict.passed == kronecker_oracle(rep)[0]
    if planted:
        assert not verdict.passed
    if not verdict.passed:
        assert_confirmed(rep, verdict.counterexample)
    variance = check_variance(rep)
    run = variance_pairs_run(rep, generator_elements(group))
    assert (variance.mode, variance.checked) == (f"exhaustive(generators={k})", run)
    assert variance.verdict == all_pairs_variance(rep)


def test_a_store_that_is_not_closed_keeps_every_pair():
    group = MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], [[2, 0], [0, 1]]])
    assert group.generators is None
    for side, layout in [("left", "column"), ("left", "row")]:
        rep = stored_linear_rep(group, side, layout)
        verdict = check_axioms(rep)
        assert (verdict.mode, verdict.checked) == ("exhaustive(grids)", 1 + 4)
        assert engine_key(verdict) == kronecker_oracle(rep)
        assert check_variance(rep).mode == "exhaustive"
    composition = coordinate_representation_check(group).composition
    assert (composition.passed, composition.mode, composition.checked) == (True, "exhaustive(grids)", 5)


def patch_inverse_of(monkeypatch, value):
    """Make ``Matrix.inverse`` wrong in one entry for the matrix ``value``."""
    inverse = Matrix.inverse

    def patched(self):
        inv = inverse(self)
        if self != value:
            return inv
        rows = [list(row) for row in inv.entries]
        rows[0][0] += 1
        return Matrix(tuple(map(tuple, rows)), inv.backend)

    monkeypatch.setattr(Matrix, "inverse", patched)


@pytest.mark.parametrize("seed", [2, 5, 9])
@pytest.mark.parametrize("index", [0, 3, 7])
def test_a_wrong_inverse_of_an_element_gives_the_oracle_witness(monkeypatch, index, seed):
    # every product of a closed group is an element; the wrong inverse of
    # store[index] breaks the steps and the products that land on it
    group = golden_gl3_order8()
    patch_inverse_of(monkeypatch, group.store[index].payload)
    composition = coordinate_representation_check(group, seed=seed).composition
    rep = coordinate_representation(group)
    assert not composition.passed
    assert engine_key(composition) == kronecker_oracle(rep, generator_elements(group))
    assert not kronecker_oracle(rep)[0]
    assert_confirmed(rep, composition.counterexample)
    if index:
        # the pairs before the first failure were decided on their grids
        assert composition.checked > 2


@pytest.mark.parametrize("seed", [4, 8])
def test_a_wrong_inverse_of_a_product_gives_the_oracle_witness(monkeypatch, seed):
    # a store that is not closed: the wrong product is no element, so only
    # the independent side goes wrong, at pair 8 of 9
    grids = [
        Matrix.from_rows(rows, EXACT)
        for rows in ([[1, 2], [0, 1]], [[F(1, 2), 0], [1, 3]], [[0, -1], [1, F(2, 3)]])
    ]
    group = MatrixGroup.general_linear(2, elements=grids)
    patch_inverse_of(monkeypatch, grids[2].mul(grids[1]))
    composition = coordinate_representation_check(group, seed=seed).composition
    rep = coordinate_representation(group)
    assert engine_key(composition) == kronecker_oracle(rep)
    assert (composition.passed, composition.checked) == (False, 1 + 8)
    assert composition.counterexample == (group.store[2], group.store[1], (1, 0))
    assert_confirmed(rep, composition.counterexample)


def test_float_and_exact_witnesses_name_the_same_pair(monkeypatch):
    # the wrong inverse of the product x y breaks f(xy) on both backends;
    # each reports (x, y, u) with f(xy) u != f(x)(f(y) u)
    rows = ([[1, 2], [0, 1]], [[F(1, 2), 0], [1, 3]], [[0, -1], [1, F(3, 4)]])
    for backend in (EXACT, approx(1e-9)):
        grids = [Matrix.from_rows(r, backend) for r in rows]
        group = MatrixGroup.general_linear(2, backend, elements=grids)
        with monkeypatch.context() as patch:
            patch_inverse_of(patch, grids[2].mul(grids[1]))
            composition = coordinate_representation_check(group, seed=4).composition
            rep = coordinate_representation(group)
            x, y, u = composition.counterexample
            assert (x, y) == (group.store[2], group.store[1])
            moved = rep.apply(x, rep.apply(y, u))
            assert not backend.close(rep.apply(group.compose_elements(x, y), u), moved)


def test_an_element_assigned_the_identity_fails_effectiveness(monkeypatch):
    group = golden_gl3_order8()
    target = group.store[3].payload
    inverse = Matrix.inverse
    monkeypatch.setattr(
        Matrix,
        "inverse",
        lambda self: Matrix.identity(3, self.backend) if self == target else inverse(self),
    )
    effectiveness = coordinate_representation_check(group).effectiveness
    assert (effectiveness.passed, effectiveness.checked) == (False, 4)
    assert effectiveness.counterexample == (group.store[3],)


def test_passing_exact_check_draws_no_vectors(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return random_vector(*args)

    monkeypatch.setattr(bases, "random_vector", counted)
    monkeypatch.setattr(representations, "random_vector", counted)
    assert coordinate_representation_check(golden_gl3_order8(), seed=5).passed
    assert calls[0] == 0


def permutation_rep(group, perms, side="left", layout="column", planted=None):
    """The permutation matrices of ``perms`` as an exact linear representation
    of ``group``, whose element ``i`` is ``perms[i]``; ``planted`` maps an
    element index to a wrong matrix."""
    carrier = CoordCarrier(len(perms[0]), layout, EXACT)
    grids = [permutation_matrix(p) for p in perms]
    for i, grid in (planted or {}).items():
        grids[i] = grid
    return Representation(
        group, carrier, side, lambda g: LinearTransformation(carrier, grids[g.payload])
    )


def all_perms(n):
    return list(itertools.permutations(range(n)))


PERMUTATION_GROUPS = {
    "S4": lambda: (symmetric_group(4), all_perms(4)),
    "Z5": lambda: (cyclic_group(5), [tuple((x + k) % 5 for x in range(5)) for k in range(5)]),
    "D4": lambda: (
        dihedral_group(4),
        [tuple((x + k) % 4 for x in range(4)) for k in range(4)]
        + [tuple((k - x) % 4 for x in range(4)) for k in range(4)],
    ),
}


@pytest.mark.parametrize(
    "side, layout, planted",
    [
        ("left", "column", None),
        ("right", "row", None),
        ("left", "row", None),
        ("right", "column", None),
        ("left", "column", 3),
    ],
    ids=["left-column", "right-row", "left-row", "right-column", "planted"],
)
@pytest.mark.parametrize("name", PERMUTATION_GROUPS)
def test_grid_engine_agrees_with_the_oracle_on_permutation_matrices(name, side, layout, planted):
    # the natural action holds on either side with the matching layout; the
    # mismatched layouts fail on a noncommuting pair, the planted matrix anywhere.
    # The engine runs the pairs (a, s) with s a generator; all pairs agree
    group, perms = PERMUTATION_GROUPS[name]()
    wrong = None if planted is None else {planted: permutation_matrix(perms[planted + 1])}
    rep = permutation_rep(group, perms, side, layout, wrong)
    verdict = check_axioms(rep)
    k = len(group.generators)
    assert verdict.mode == f"exhaustive(grids, generators={k})"
    assert engine_key(verdict) == kronecker_oracle(rep, generator_elements(group))
    assert verdict.passed == kronecker_oracle(rep)[0]
    if not verdict.passed:
        assert_confirmed(rep, verdict.counterexample)
    assert check_axioms(rep, "exhaustive") == verdict
    variance = check_variance(rep)
    run = variance_pairs_run(rep, generator_elements(group))
    assert (variance.mode, variance.checked) == (f"exhaustive(generators={k})", run)
    # the same action on the indices of the Kronecker vectors takes the
    # table path, and fails at the same pair and point
    on_indices = kronecker_index_action(rep)
    table_verdict = check_axioms(on_indices)
    assert table_verdict.mode == f"exhaustive(generators={k})"
    assert table_verdict.passed == verdict.passed
    if not verdict.passed:
        a, s, u = verdict.counterexample
        assert table_verdict.counterexample == (a, s, u.index(1))
    if layout == "column":
        # grids are classified by their product, maps by composition; the
        # two agree when grids multiply points from the left
        assert check_variance(on_indices) == variance


def kronecker_index_action(rep):
    """``rep``, a representation by permutation matrices, acting on the
    indices of the Kronecker vectors it permutes."""
    dim = rep.carrier.dim
    kronecker = Matrix.identity(dim, rep.carrier.backend).entries
    carrier = FiniteCarrier(dim)

    def assign(g):
        return MappingTransformation(carrier, [rep.apply(g, u).index(1) for u in kronecker])

    return Representation(rep.group, carrier, rep.side, assign)


def test_grid_plan_costs_the_pairs_times_the_dimension(monkeypatch):
    # S4 on four coordinates: 24 elements * 2 generators * 4 = 192 units of work
    rep = permutation_rep(*PERMUTATION_GROUPS["S4"]())
    monkeypatch.setattr(representations, "EXHAUSTIVE_WORK_CAP", 192)
    assert check_axioms(rep).mode == "exhaustive(grids, generators=2)"
    assert check_variance(rep).mode == "exhaustive(generators=2)"
    monkeypatch.setattr(representations, "EXHAUSTIVE_WORK_CAP", 191)
    assert check_axioms(rep, samples=5, seed=1).mode == "sampled(k=5, seed=1)"
    assert check_variance(rep, samples=5, seed=1).mode == "sampled(k=5, seed=1)"


def test_a_planted_matrix_passes_a_sample_and_fails_the_grid_proof():
    # S5 with one wrong permutation matrix: the 100 triples of seed 7 miss
    # it, and the default plan decides every pair (a, s) with s a generator
    perms = all_perms(5)
    rep = permutation_rep(
        symmetric_group(5), perms, planted={37: permutation_matrix(perms[38])}
    )
    assert check_axioms(rep, "sampled", 100, 7).passed
    verdict = check_axioms(rep)
    assert (verdict.passed, verdict.mode) == (False, "exhaustive(grids, generators=2)")
    assert_confirmed(rep, verdict.counterexample)
    assert engine_key(verdict) == kronecker_oracle(rep, generator_elements(rep.group))


def test_float_grids_are_sampled_on_coordinates():
    # a grid match within the tolerance bounds no image, so float linear
    # representations of a stored group keep the sampled plan
    group = MatrixGroup.metric_preserving(
        2, 0, elements=[rotation_2d(k * math.pi / 4) for k in range(8)]
    )
    carrier = CoordCarrier(2, "column", group.backend)
    rep = Representation(group, carrier, "left", lambda g: LinearTransformation(carrier, g.payload))
    assert check_axioms(rep, samples=20, seed=4).mode == "sampled(k=20, seed=4)"
    assert check_variance(rep, samples=20, seed=4).mode == "sampled(k=20, seed=4)"


def test_coordinate_representation_needs_a_matrix_group():
    with pytest.raises(GroupSpaceMismatch):
        coordinate_representation_check(cyclic_group(2))


def test_change_of_basis_needs_a_matrix_group():
    b = exact_basis([[1, 0], [0, 1]])
    with pytest.raises(GroupSpaceMismatch):
        change_of_basis(b, b, cyclic_group(2))


def test_stored_group_above_the_work_cap_is_sampled(monkeypatch):
    group = MatrixGroup.metric_preserving(
        2, 0, elements=[rotation_2d(k * math.pi / 5) for k in range(5)]
    )
    # five elements, three vectors per pair: 75 cases exhaustively
    monkeypatch.setattr(bases, "EXHAUSTIVE_WORK_CAP", 75)
    result = coordinate_representation_check(group, samples=4, seed=7)
    assert (result.composition.mode, result.composition.checked) == ("exhaustive-pairs(25)", 75)
    monkeypatch.setattr(bases, "EXHAUSTIVE_WORK_CAP", 74)
    result = coordinate_representation_check(group, samples=4, seed=7)
    assert result.passed
    assert (result.composition.mode, result.composition.checked) == ("sampled(k=4, seed=7)", 12)
    # effectiveness still runs over every stored element
    assert result.effectiveness.checked == 5


# -- the float coordinate law on bound kernels -------------------------------------------


def reference_float_composition(rep, samples, seed):
    """The float side law of :func:`coordinate_representation_check`, every
    vector moved by ``Matrix.vecmat``."""
    group, rng = rep.group, Random(seed)
    store = group.store
    exhaustive = (
        store is not None
        and len(store) ** 2 * bases.VECTORS_PER_PAIR <= bases.EXHAUSTIVE_WORK_CAP
    )
    elements = store
    if not exhaustive:
        elements = [sample_group_element(group, rng) for _ in range(2 * samples)]
    steps = [(g, rep.transformation(g).grid) for g in elements]
    if exhaustive:
        pairs = itertools.product(steps, steps)
        mode = f"exhaustive-pairs({len(store) ** 2})"
    else:
        pairs = zip(steps[::2], steps[1::2])
        mode = f"sampled(k={samples}, seed={seed})"
    checked, worst = 0, None
    for (a, step_a), (b, step_b) in pairs:
        once = bases._linear_grid(b).mul(bases._linear_grid(a)).inverse()
        for _ in range(bases.VECTORS_PER_PAIR):
            v = random_vector(rng, group.dim, group.backend)
            stepped, direct = step_b.vecmat(step_a.vecmat(v)), once.vecmat(v)
            checked += 1
            r = max(abs(x - y) for x, y in zip(stepped, direct))
            worst = r if worst is None else max(worst, r)
            if not group.backend.close(stepped, direct):
                return Verdict(False, mode, checked, (b, a, v), worst)
    return Verdict(True, mode, checked, None, worst)


def composition_key(verdict):
    return (
        verdict.passed,
        verdict.mode,
        verdict.checked,
        verdict.counterexample,
        verdict.residual_max.hex(),
    )


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


def float_closure(dim, generators):
    group = MatrixGroup.metric_preserving(dim, 0)
    group.close_over(generators)
    return group


def so2_closure(m):
    return float_closure(2, [rotation_2d(2 * math.pi / m)])


FLOAT_COMPOSITION_GROUPS = {
    **{f"SO2-order{m}": functools.partial(so2_closure, m) for m in range(13, 21)},
    "SO3-T": lambda: float_closure(
        3, [rotation_3d((1, 1, 1), 2 * math.pi / 3), rotation_3d((0, 0, 1), math.pi)]
    ),
    "SO3-O": lambda: float_closure(
        3, [rotation_3d((0, 0, 1), math.pi / 2), rotation_3d((1, 1, 1), 2 * math.pi / 3)]
    ),
    # 2,000**2 pairs of three vectors are above the work cap: sampled
    "SO2-order2000": functools.partial(so2_closure, 2000),
    # no 4-by-4 kernel: the vecmat loop moves the vectors
    "SO4-order6": lambda: MatrixGroup.metric_preserving(
        4,
        0,
        elements=[
            rotation_2d(k * math.pi / 3).block_diag(rotation_2d(2 * k * math.pi / 3))
            for k in range(6)
        ],
    ),
}


def count_vecmat_calls(monkeypatch):
    calls, vecmat = [], Matrix.vecmat

    def counted(self, u):
        calls.append(self)
        return vecmat(self, u)

    monkeypatch.setattr(Matrix, "vecmat", counted)
    return calls


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("name", FLOAT_COMPOSITION_GROUPS)
def test_the_bound_vecmat_kernel_gives_the_matrix_vecmat_verdict(monkeypatch, name, seed):
    group = FLOAT_COMPOSITION_GROUPS[name]()
    expected = reference_float_composition(coordinate_representation(group), 100, seed)
    assert expected.mode.startswith("sampled" if len(group.store) == 2000 else "exhaustive")
    calls = count_vecmat_calls(monkeypatch)
    got = bases._float_composition(coordinate_representation(group), 100, seed)
    assert composition_key(got) == composition_key(expected)
    # the kernel, or the loop where the table has none, is bound once
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["SO2-order17", "SO3-O", "SO4-order6"])
def test_a_planted_step_grid_gives_the_matrix_vecmat_witness(monkeypatch, name):
    group = FLOAT_COMPOSITION_GROUPS[name]()
    # a wrong inverse of one element breaks its step, f(g) = grid(g)^-1,
    # and the independent side of every pair whose product rounds to it
    patch_inverse_of(monkeypatch, group.store[5].payload)
    expected = reference_float_composition(coordinate_representation(group), 100, 42)
    got = bases._float_composition(coordinate_representation(group), 100, 42)
    assert not got.passed
    assert composition_key(got) == composition_key(expected)


# -- orthonormalisation ------------------------------------------------------------------


def test_gram_schmidt_oracle():
    b = gram_schmidt([[1.0, 1.0], [0.0, 1.0]], (2, 0))
    r = 1.0 / math.sqrt(2.0)
    assert b.vectors[0] == pytest.approx((r, r))
    assert b.vectors[1] == pytest.approx((-r, r))
    assert is_g_basis(b).passed


def test_gram_schmidt_keeps_input_order():
    b = gram_schmidt([[0.0, 2.0], [1.0, 1.0]], (2, 0))
    assert b.vectors[0] == pytest.approx((0.0, 1.0))
    assert b.vectors[1] == pytest.approx((1.0, 0.0))


def test_gram_schmidt_dependent_input():
    with pytest.raises(DependentInput) as err:
        gram_schmidt([[1.0, 0.0], [2.0, 0.0]], (2, 0))
    assert err.value.index == 1


def test_gram_schmidt_null_vector():
    with pytest.raises(NullVector) as err:
        gram_schmidt([[1.0, 1.0], [0.0, 1.0]], (1, 1))
    assert err.value.index == 0


def test_gram_schmidt_near_null_euclid_is_dependence():
    # in a definite metric a vanishing square can only mean dependence
    with pytest.raises(DependentInput):
        gram_schmidt([[1.0, 0.0], [1.0, 1e-12]], (2, 0))


def test_gram_schmidt_lorentz_plane():
    ch, sh = math.cosh(0.6), math.sinh(0.6)
    b = gram_schmidt([[ch, sh], [0.0, 1.0]], (1, 1))
    signs = basis_metric_signs(b)
    assert signs[0] == pytest.approx(1.0)
    assert signs[1] == pytest.approx(-1.0)
    assert is_g_basis(b).passed


def test_gram_schmidt_regroups_by_sign():
    # first input is timelike, so the raw process would put the negative
    # square in slot 0; the result must still match the metric's order
    b = gram_schmidt([[0.0, 1.0], [1.0, 0.0]], (1, 1))
    assert b.vectors[0] == pytest.approx((1.0, 0.0))
    assert b.vectors[1] == pytest.approx((0.0, 1.0))
    assert is_g_basis(b).passed


def test_is_g_basis_residual():
    space = VectorSpace("euclid", 2, APPROX)
    skew = Basis.make(space, [[1.0, 1.0], [0.0, 1.0]])
    report = is_g_basis(skew)
    assert not report.passed
    assert report.residual_max == pytest.approx(1.0)


def test_is_g_basis_wants_metric_order():
    # right scalar squares, wrong order: still not a valid frame
    space = VectorSpace("pseudo_euclid", 2, APPROX, signature=(1, 1))
    flipped = Basis.make(space, [[0.0, 1.0], [1.0, 0.0]])
    assert not is_g_basis(flipped).passed


# -- the manifold of bases ------------------------------------------------------------------


def test_manifold_representation_laws():
    space = VectorSpace("euclid", 2, approx(1e-9))
    reference = Basis.make(space, [[1.0, 0.0], [0.0, 1.0]])
    manifold = BasisManifold(reference, MatrixGroup.metric_preserving(2, 0))
    rep = manifold.representation()
    assert rep.side == "left"
    verdict = check_axioms(rep, sample="sampled", samples=25, seed=3)
    assert verdict.passed
    assert verdict.residual_max is None


def test_manifold_transport_solver():
    space = VectorSpace("euclid", 2, approx(1e-9))
    reference = Basis.make(space, [[1.0, 0.0], [0.0, 1.0]])
    manifold = BasisManifold(reference, MatrixGroup.metric_preserving(2, 0))
    rep = manifold.representation()
    target = passive_transform(reference, manifold.group.element(rotation_2d(0.4)))
    g = solve_transport(rep, reference, target)
    assert passive_transform(reference, g).eq(target)
    assert manifold.contains(target)
    skew = Basis.make(space, [[1.0, 1.0], [0.0, 1.0]])
    assert not manifold.contains(skew)


def test_manifold_rejects_mismatched_reference():
    space = VectorSpace("euclid", 2, approx(1e-9))
    skew = Basis.make(space, [[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(GroupSpaceMismatch):
        BasisManifold(skew, MatrixGroup.metric_preserving(2, 0))


def test_manifold_rejects_a_finite_group():
    reference = Basis.make(linear_space(2, EXACT), [[1, 0], [0, 1]])
    with pytest.raises(GroupSpaceMismatch):
        BasisManifold(reference, cyclic_group(2))


def test_manifold_boost_transport():
    space = VectorSpace("pseudo_euclid", 2, approx(1e-9), signature=(1, 1))
    reference = Basis.make(space, [[1.0, 0.0], [0.0, 1.0]])
    so11 = MatrixGroup.metric_preserving(1, 1)
    manifold = BasisManifold(reference, so11)
    moved = passive_transform(reference, so11.element(boost_2d(0.8)))
    g = manifold.change_of_basis(manifold.reference, moved)
    assert passive_transform(reference, g).eq(moved)
