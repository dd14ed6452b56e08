"""Geometrical objects: transformation law, invariance, orbits, linear structure."""

import itertools
import json
import math
import re
import struct
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from basiskit.bases import Basis, VectorSpace, passive_transform
from basiskit.descriptors import group_from_descriptor
from basiskit.errors import (
    AnchorMismatch,
    BasiskitError,
    DimensionMismatch,
    EnumerationCapExceeded,
    GroupSpaceMismatch,
    InfeasibleExhaustive,
    Singular,
    TypeMismatch,
)
from basiskit.groups import GroupElement, MatrixGroup, cyclic_group, rotation_2d
from basiskit import objects
from basiskit.matrices import Matrix
from basiskit.objects import (
    GeometricalObject,
    ObjectCarrier,
    ObjectTransformation,
    add_objects,
    direct_sum_functor,
    dual_functor,
    fundamental_functor,
    functor_eval,
    identity_functor,
    invariance_check,
    invariance_sweep,
    object_representation,
    rebase,
    representative,
    scale_object,
    table_functor,
    tensor_power_functor,
    transform_object,
    vector_space_axioms_check,
    weight_dim,
)
from basiskit.representations import (
    FunctionTransformation,
    Representation,
    Verdict,
    _first_failure,
    check_axioms,
    check_variance,
    inverse_law_check,
    orbit,
    orbit_closure_check,
)
from basiskit.sampling import sample_group_element
from basiskit.scalars import APPROX, EXACT, approx

F = Fraction


def anchor_2d():
    space = VectorSpace("central_affine", 2, EXACT)
    return Basis.make(space, [[1, 0], [0, 1]])


GL2 = MatrixGroup.general_linear(2)


def elem(rows):
    return GL2.element(Matrix.from_rows(rows, EXACT))


def quarter_turns():
    group = MatrixGroup.general_linear(2, EXACT)
    group.close_over([Matrix.from_rows([[0, -1], [1, 0]], EXACT)])
    return group


# -- functors -------------------------------------------------------------------


def test_functor_evals_on_a_diagonal_element():
    g = elem([[2, 0], [0, 3]])
    assert functor_eval(identity_functor(), g).entries == ((F(1),),)
    assert functor_eval(fundamental_functor(), g).entries == (
        (F(2), F(0)),
        (F(0), F(3)),
    )
    assert functor_eval(dual_functor(), g).entries == (
        (F(1, 2), F(0)),
        (F(0), F(1, 3)),
    )


def test_dual_is_inverse_transpose():
    g = elem([[1, 1], [0, 1]])
    assert functor_eval(dual_functor(), g).entries == (
        (F(1), F(0)),
        (F(-1), F(1)),
    )


def test_tensor_power_eval():
    g = elem([[2, 0], [0, 3]])
    grid = functor_eval(tensor_power_functor(2), g)
    assert grid.entries == (
        (F(4), F(0), F(0), F(0)),
        (F(0), F(6), F(0), F(0)),
        (F(0), F(0), F(6), F(0)),
        (F(0), F(0), F(0), F(9)),
    )


def test_direct_sum_eval():
    g = elem([[2, 0], [0, 3]])
    grid = functor_eval(direct_sum_functor(fundamental_functor(), dual_functor()), g)
    assert grid.entries == (
        (F(2), F(0), F(0), F(0)),
        (F(0), F(3), F(0), F(0)),
        (F(0), F(0), F(1, 2), F(0)),
        (F(0), F(0), F(0), F(1, 3)),
    )


def test_weight_dims():
    assert weight_dim(identity_functor(), 3) == 1
    assert weight_dim(fundamental_functor(), 3) == 3
    assert weight_dim(dual_functor(), 3) == 3
    assert weight_dim(tensor_power_functor(3), 2) == 8
    assert (
        weight_dim(
            direct_sum_functor(fundamental_functor(), tensor_power_functor(2)), 3
        )
        == 12
    )


def test_functor_constructor_validation():
    with pytest.raises(BasiskitError):
        tensor_power_functor(0)
    with pytest.raises(BasiskitError):
        direct_sum_functor()


def test_functor_needs_matrix_payload():
    z2 = cyclic_group(2)
    with pytest.raises(GroupSpaceMismatch):
        functor_eval(fundamental_functor(), z2.element(1))


def test_table_functor_on_a_finite_group():
    z2 = cyclic_group(2)
    grids = [
        Matrix.identity(2, EXACT),
        Matrix.from_rows([[1, 0], [0, -1]], EXACT),
    ]
    functor = table_functor(z2, grids)
    assert weight_dim(functor, 5) == 2
    assert functor_eval(functor, z2.element(1)).entries == (
        (F(1), F(0)),
        (F(0), F(-1)),
    )


def test_table_functor_rejects_broken_product():
    z2 = cyclic_group(2)
    grids = [
        Matrix.identity(2, EXACT),
        Matrix.from_rows([[2, 0], [0, 1]], EXACT),
    ]
    with pytest.raises(BasiskitError):
        table_functor(z2, grids)


def test_table_functor_rejects_wrong_identity():
    z2 = cyclic_group(2)
    grids = [
        Matrix.from_rows([[1, 0], [0, -1]], EXACT),
        Matrix.identity(2, EXACT),
    ]
    with pytest.raises(BasiskitError):
        table_functor(z2, grids)


def test_table_functor_rejects_wrong_count():
    z2 = cyclic_group(2)
    with pytest.raises(BasiskitError):
        table_functor(z2, [Matrix.identity(2, EXACT)])


def signed_permutation_grids(n):
    """The signed permutation matrices of size ``n``, the identity first."""
    return [
        Matrix.from_rows(
            [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)], EXACT
        )
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def test_table_functor_on_b3_names_the_pair_a_wrong_grid_breaks():
    grids = signed_permutation_grids(3)
    b3 = MatrixGroup.general_linear(3, EXACT, elements=grids)
    assert table_functor(b3, grids).table == tuple(grids)
    wrong = list(grids)
    wrong[20], wrong[21] = grids[21], grids[20]

    def scanned(g):
        return wrong[next(i for i, h in enumerate(b3.store) if g.eq_to(h))]

    # the store is closed and the grids exact, so the pairs run are (a, s)
    # with s a generator, in store order, each s in the order of the generators
    a, b = next(
        (a, b)
        for a in b3.store
        for b in (b3.store[s] for s in b3.generators)
        if not scanned(a * b).eq(scanned(a).mul(scanned(b)))
    )
    # the named pair breaks the product, evaluated on the matrices directly;
    # every pair would first fail at (store[2], store[20])
    x, y = a.payload, b.payload
    assert wrong[grids.index(x.mul(y))] != wrong[grids.index(x)].mul(wrong[grids.index(y)])
    assert (b3.index_of(a), b3.index_of(b)) == (14, 25)
    with pytest.raises(BasiskitError, match=re.escape(f"breaks the product at ({a!r}, {b!r})")):
        table_functor(b3, wrong)


def test_table_functor_on_a_closed_exact_store_runs_the_generator_pairs(monkeypatch):
    grids = signed_permutation_grids(3)
    b3 = MatrixGroup.general_linear(3, EXACT, elements=grids)
    products = []
    mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: products.append(1) or mul(self, other))
    gens = b3.generators
    # the search forms each product it reads once, into the table, and
    # fills the generators' columns
    searched = len(products)
    assert searched == sum(map(len, b3.table))
    assert all(s in row for row in b3.table for s in gens)
    # the check reads those columns and forms |G| |S| grid products; all pairs are 48 * 48
    table_functor(b3, grids)
    assert len(products) == searched + 48 * len(gens) < 48 * 48
    assert (len(gens), searched) == (2, 262)


def test_table_functor_with_float_grids_runs_every_pair():
    # a float grid product only lands near a grid, so nothing is induced
    grids = signed_permutation_grids(3)
    b3 = MatrixGroup.general_linear(3, EXACT, elements=grids)
    floats = [Matrix.from_rows(g.entries, APPROX) for g in grids]
    assert table_functor(b3, floats).table == tuple(floats)
    wrong = list(floats)
    wrong[20], wrong[21] = floats[21], floats[20]
    a, b = next(
        (a, b)
        for i, a in enumerate(b3.store)
        for j, b in enumerate(b3.store)
        if not wrong[b3.index_of(a * b)].eq(wrong[i].mul(wrong[j]))
    )
    # the generator pairs would first fail at (store[4], store[16])
    assert (b3.index_of(a), b3.index_of(b)) == (2, 20)
    with pytest.raises(BasiskitError, match=re.escape(f"breaks the product at ({a!r}, {b!r})")):
        table_functor(b3, wrong)


def test_table_functor_on_a_store_that_is_not_closed_names_the_missing_product():
    grids = [Matrix.identity(2, EXACT), Matrix.from_rows([[2, 0], [0, 1]], EXACT)]
    group = MatrixGroup.general_linear(2, EXACT, elements=grids)
    with pytest.raises(BasiskitError, match="is not in the stored enumeration"):
        table_functor(group, grids)


# -- objects ---------------------------------------------------------------------


def test_make_checks_coordinate_count():
    with pytest.raises(DimensionMismatch):
        GeometricalObject.make(fundamental_functor(), [1, 2, 3], anchor_2d())


def test_make_rejects_degenerate_auxiliary_basis():
    with pytest.raises(Singular):
        GeometricalObject.make(
            fundamental_functor(),
            [1, 2],
            anchor_2d(),
            w_basis=Matrix.from_rows([[1, 1], [1, 1]], EXACT),
        )


def test_representative_contracts_with_the_auxiliary_basis():
    obj = GeometricalObject.make(fundamental_functor(), [5, 7], anchor_2d())
    assert representative(obj) == (F(5), F(7))
    swapped = GeometricalObject.make(
        fundamental_functor(),
        [5, 7],
        anchor_2d(),
        w_basis=Matrix.from_rows([[0, 1], [1, 0]], EXACT),
    )
    assert representative(swapped) == (F(7), F(5))


def test_transform_oracle():
    obj = GeometricalObject.make(fundamental_functor(), [4, 6], anchor_2d())
    g = elem([[2, 0], [0, 1]])
    moved = transform_object(obj, g)
    assert moved.coords == (F(2), F(6))
    assert moved.w_basis.entries == ((F(2), F(0)), (F(0), F(1)))
    assert moved.anchor.eq(passive_transform(obj.anchor, g))
    assert representative(moved) == (F(4), F(6))


@pytest.mark.parametrize(
    "functor",
    [
        identity_functor(),
        fundamental_functor(),
        dual_functor(),
        tensor_power_functor(2),
        direct_sum_functor(fundamental_functor(), dual_functor()),
    ],
)
def test_invariance_across_functors(functor):
    m = weight_dim(functor, 2)
    obj = GeometricalObject.make(functor, list(range(1, m + 1)), anchor_2d())
    for rows in ([[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]):
        verdict = invariance_check(obj, elem(rows))
        assert verdict.passed
        assert verdict.mode == "direct"
        assert verdict.residual_max is None


def test_transforms_compose_through_the_product():
    obj = GeometricalObject.make(dual_functor(), [3, 5], anchor_2d())
    a = elem([[1, 1], [0, 1]])
    b = elem([[2, 0], [1, 1]])
    stepwise = transform_object(transform_object(obj, b), a)
    at_once = transform_object(obj, a * b)
    assert stepwise.eq(at_once)


# -- orbits -----------------------------------------------------------------------


def object_orbit(obj, group, move=transform_object, cap=100_000):
    """Oracle: the images of ``obj`` under every stored element, each kept
    unless it equals one kept before, found by a scan.  Returns the points
    and the ``(point, element)`` witnesses."""
    store = group.store
    if store is None:
        raise InfeasibleExhaustive("object orbit needs stored elements")
    if len(store) > cap:
        raise EnumerationCapExceeded(f"group store of {len(store)} exceeds the cap {cap}")
    points, witnesses = [], []
    for g in store:
        moved = move(obj, g)
        if not any(moved.eq(p) for p in points):
            points.append(moved)
            witnesses.append((moved, g))
    return tuple(points), tuple(witnesses)


def object_orbit_well_defined_check(obj, group, move=transform_object):
    """Oracle: re-enumerating the orbit from any of its points gives the
    same set, compared by scans."""
    base, _ = object_orbit(obj, group, move)

    def outcome(point):
        other, _ = object_orbit(point, group, move)
        if len(other) != len(base):
            return (point,), False, None
        for q in other:
            if not any(q.eq(p) for p in base):
                return (point, q), False, None
        return (point,), True, None

    return _first_failure("exhaustive", map(outcome, base))


def dihedral_8():
    """The symmetries of a square as a stored GL(2) group; not abelian."""
    group = MatrixGroup.general_linear(2, EXACT)
    group.close_over(
        [
            Matrix.from_rows([[0, -1], [1, 0]], EXACT),
            Matrix.from_rows([[1, 0], [0, -1]], EXACT),
        ]
    )
    return group


def so2_order_12():
    group = MatrixGroup.general_linear(2, APPROX)
    group.close_over([rotation_2d(2 * math.pi / 12)])
    return group


def float_anchor():
    space = VectorSpace("euclid", 2, APPROX)
    return Basis.make(space, [[1.5, 0.25], [-0.5, 2.0]])


ORACLE_CASES = [
    (functor, group, anchor)
    for functor in ("fundamental", "dual", "identity")
    for group, anchor in (
        (quarter_turns, anchor_2d),
        (dihedral_8, anchor_2d),
        (so2_order_12, float_anchor),
    )
]


def oracle_case(functor, make_group, make_anchor):
    functor = {
        "fundamental": fundamental_functor(),
        "dual": dual_functor(),
        "identity": identity_functor(),
    }[functor]
    coords = [F(3, 2), -2][: weight_dim(functor, 2)]
    return GeometricalObject.make(functor, coords, make_anchor()), make_group()


def test_object_orbit_of_a_vector_under_quarter_turns():
    group = quarter_turns()
    assert len(group.store) == 4
    obj = GeometricalObject.make(fundamental_functor(), [1, 0], anchor_2d())
    result = orbit(object_representation(obj, group), obj)
    assert len(result.points) == 4
    for moved, g in result.witnesses:
        assert transform_object(obj, g).eq(moved)
        assert representative(moved) == (F(1), F(0))


def test_object_orbit_well_defined():
    group = quarter_turns()
    obj = GeometricalObject.make(fundamental_functor(), [1, 0], anchor_2d())
    rep = object_representation(obj, group)
    verdict = orbit_closure_check(rep, orbit(rep, obj))
    assert verdict.passed
    assert verdict.checked == 4


def test_object_orbit_of_an_invariant_point():
    group = quarter_turns()
    obj = GeometricalObject.make(identity_functor(), [9], anchor_2d())
    result = orbit(object_representation(obj, group), obj)
    # the coordinate never moves but the anchor does
    assert len(result.points) == 4
    assert all(p.coords == (F(9),) for p in result.points)


@pytest.mark.parametrize("functor, make_group, make_anchor", ORACLE_CASES)
def test_object_orbit_matches_the_scan_oracle(functor, make_group, make_anchor):
    obj, group = oracle_case(functor, make_group, make_anchor)
    rep = object_representation(obj, group)
    result = orbit(rep, obj)
    points, witnesses = object_orbit(obj, group)
    assert result.points == points
    assert result.witnesses == witnesses
    verdict = orbit_closure_check(rep, result)
    assert verdict == object_orbit_well_defined_check(obj, group)
    assert verdict.passed and verdict.mode == "exhaustive"
    assert verdict.checked == len(points)
    for p, g in witnesses:
        assert result.contains(p)
        assert result.witness_for(p) == g


@pytest.mark.parametrize("functor, make_group, make_anchor", ORACLE_CASES)
def test_a_planted_non_action_fails_with_the_oracle_witness(
    functor, make_group, make_anchor
):
    obj, group = oracle_case(functor, make_group, make_anchor)
    backend = obj.anchor.space.backend
    target = group.store[1]
    # a coordinate shift well beyond the tolerance, for one element only
    shift = backend.coerce(1) if backend.is_exact else 1e-6

    def move(o, g):
        moved = transform_object(o, g)
        if g != target:
            return moved
        coords = (moved.coords[0] + shift,) + moved.coords[1:]
        return GeometricalObject(moved.functor, coords, moved.anchor, moved.w_basis)

    carrier = ObjectCarrier(obj.functor, obj.anchor)

    def assign(g):
        if g != target:
            return ObjectTransformation.of(carrier, g)
        return FunctionTransformation(carrier, lambda o: move(o, g))

    rep = Representation(group, carrier, "left", assign)
    result = orbit(rep, obj)
    assert result.points == object_orbit(obj, group, move)[0]
    verdict = orbit_closure_check(rep, result)
    assert not verdict.passed
    assert verdict == object_orbit_well_defined_check(obj, group, move)


@pytest.mark.parametrize("functor", ["fundamental", "dual", "identity"])
@pytest.mark.parametrize("make_group, make_anchor", [(dihedral_8, anchor_2d), (so2_order_12, float_anchor)])
def test_the_object_action_is_left_and_covariant(functor, make_group, make_anchor):
    obj, group = oracle_case(functor, make_group, make_anchor)
    rep = object_representation(obj, group)
    assert rep.side == "left"
    axioms = check_axioms(rep, sample="sampled", samples=40, seed=3)
    assert axioms.passed and axioms.mode == "sampled(k=40, seed=3)"
    variance = check_variance(rep, sample="sampled", samples=40, seed=3)
    # SO(2) is abelian, so its products match in both orders
    abelian = make_group is so2_order_12
    assert variance.verdict == ("both" if abelian else "covariant")
    assert inverse_law_check(rep).passed
    # T_b(T_a o) = T_{ba} o, checked directly
    for a in group.store[:4]:
        for b in group.store[:4]:
            stepwise = rep.apply(b, rep.apply(a, obj))
            assert stepwise.eq(rep.apply(b * a, obj))
    if not abelian:
        right = Representation(group, rep.carrier, "right", rep.transformation)
        assert not check_axioms(right, sample="sampled", samples=40, seed=3).passed


def test_transform_object_is_the_representation_applied_once():
    obj = GeometricalObject.make(dual_functor(), [3, 5], anchor_2d())
    group = dihedral_8()
    rep = object_representation(obj, group)
    for g in group.store:
        assert transform_object(obj, g) == rep.apply(g, obj)


def test_object_carrier_membership_and_samples():
    from random import Random

    obj = GeometricalObject.make(dual_functor(), [3, 5], anchor_2d())
    carrier = ObjectCarrier(obj.functor, obj.anchor)
    assert carrier.contains(obj)
    assert not carrier.contains(GeometricalObject.make(fundamental_functor(), [3, 5], anchor_2d()))
    assert not carrier.contains((3, 5))
    sample = carrier.sample(Random(1))
    assert carrier.contains(sample) and sample.anchor == obj.anchor
    assert carrier.point_eq(obj, obj)


# -- the invariance sweep ------------------------------------------------------------


def per_element_sweep(obj, group):
    """The stored-elements sweep as an element-by-element loop: the first
    failure's witness, the count, and the worst and mean residuals."""
    backend = obj.anchor.space.backend
    before = representative(obj)
    worst = total = 0.0
    failed, checked = None, 0
    for g in group.store:
        after = representative(objects.transform_object(obj, g))
        diffs = [abs(x - y) for x, y in zip(before, after)]
        residual = 0.0 if backend.is_exact else max(diffs, default=0.0)
        checked += 1
        worst = max(worst, residual)
        total += residual
        if not all(d <= backend.tolerance for d in diffs) and failed is None:
            failed = (g, before, after)
    return failed, checked, None if backend.is_exact else worst, total / checked


@pytest.mark.parametrize("planted", [(), (2, 5)], ids=["holds", "planted"])
@pytest.mark.parametrize(
    "make_group, make_anchor", [(dihedral_8, anchor_2d), (so2_order_12, float_anchor)]
)
def test_invariance_sweep_matches_the_per_element_loop(
    make_group, make_anchor, planted, monkeypatch
):
    group = make_group()
    obj = GeometricalObject.make(fundamental_functor(), [F(3, 2), -2], make_anchor())
    targets = [group.store[i] for i in planted]
    # a fundamental functor's grid is the element's own matrix
    target_grids = [g.payload for g in targets]
    moved_w_basis = ObjectTransformation._moved_w_basis

    def skip_w_basis(self, w_basis):
        # the planted defect: the auxiliary basis stays put for the targets,
        # in the moved object and in the sweep's w' E' alike
        if any(self.functor_grid is grid for grid in target_grids):
            return w_basis
        return moved_w_basis(self, w_basis)

    row_times_grid = objects._row_times_grid

    def skip_w_basis_on_the_row(functor, row, m, m_inv, backend):
        # the same defect where the sweep moves the row: w' E in place of w' A(g) E
        if any(m is grid for grid in target_grids):
            return Matrix.identity(len(row), backend).vecmat(row)
        return row_times_grid(functor, row, m, m_inv, backend)

    monkeypatch.setattr(ObjectTransformation, "_moved_w_basis", skip_w_basis)
    monkeypatch.setattr(objects, "_row_times_grid", skip_w_basis_on_the_row)
    failed, checked, worst, mean = per_element_sweep(obj, group)
    verdict, swept_mean = invariance_sweep(
        (obj, g, representative(obj), None) for g in group.store
    )
    assert verdict == Verdict(failed is None, "stored-elements", checked, failed, worst)
    assert checked == len(group.store)
    assert swept_mean == mean
    assert (failed is None) == (not planted)
    if planted:
        assert failed[0] == targets[0]
        if obj.anchor.space.backend.is_exact:
            assert worst is None
        else:
            assert worst > 0.1


def test_invariance_check_takes_both_representatives():
    obj = GeometricalObject.make(fundamental_functor(), [5, 7], anchor_2d())
    g = elem([[2, 1], [1, 1]])
    wrong = (F(5), F(8))
    assert invariance_check(obj, g, after=wrong) == Verdict(
        False, "direct", 1, (g, (F(5), F(7)), wrong), None
    )



# -- linear structure ---------------------------------------------------------------


def test_add_and_scale_oracles():
    u = GeometricalObject.make(fundamental_functor(), [1, 2], anchor_2d())
    v = GeometricalObject.make(fundamental_functor(), [3, 4], anchor_2d())
    assert add_objects(u, v).coords == (F(4), F(6))
    assert scale_object(3, u).coords == (F(3), F(6))
    assert scale_object(F(1, 2), v).coords == (F(3, 2), F(2))


def test_sum_needs_matching_functors():
    u = GeometricalObject.make(fundamental_functor(), [1, 2], anchor_2d())
    v = GeometricalObject.make(dual_functor(), [3, 4], anchor_2d())
    with pytest.raises(TypeMismatch):
        add_objects(u, v)


def test_sum_needs_a_shared_anchor():
    u = GeometricalObject.make(fundamental_functor(), [1, 2], anchor_2d())
    space = VectorSpace("central_affine", 2, EXACT)
    other = Basis.make(space, [[2, 0], [0, 1]])
    v = GeometricalObject.make(fundamental_functor(), [3, 4], other)
    with pytest.raises(AnchorMismatch):
        add_objects(u, v)


def test_sum_needs_matching_auxiliary_bases():
    u = GeometricalObject.make(fundamental_functor(), [1, 2], anchor_2d())
    v = GeometricalObject.make(
        fundamental_functor(),
        [3, 4],
        anchor_2d(),
        w_basis=Matrix.from_rows([[0, 1], [1, 0]], EXACT),
    )
    with pytest.raises(AnchorMismatch):
        add_objects(u, v)


def test_rebase_preserves_the_representative():
    obj = GeometricalObject.make(fundamental_functor(), [4, 6], anchor_2d())
    space = VectorSpace("central_affine", 2, EXACT)
    target = Basis.make(space, [[2, 2], [0, 3]])
    moved = rebase(obj, target)
    assert moved.anchor.eq(target)
    assert representative(moved) == representative(obj)
    assert moved.coords != obj.coords


def test_vector_space_axioms():
    verdict = vector_space_axioms_check(
        fundamental_functor(), anchor_2d(), quarter_turns(), samples=40, seed=5
    )
    assert verdict.passed
    assert verdict.checked == 280
    assert verdict.mode == "sampled(k=40, seed=5)"


def test_vector_space_axioms_build_one_transformation_per_sample(monkeypatch):
    built = [0]
    init = ObjectTransformation.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(ObjectTransformation, "__init__", counted)
    verdict = vector_space_axioms_check(
        tensor_power_functor(2), anchor_2d(), quarter_turns(), samples=40, seed=5
    )
    assert verdict.passed and verdict.checked == 280
    assert built[0] == 40


def test_vector_space_axioms_report_the_first_failing_law():
    # float rounding breaks distributivity under a tolerance of 1e-300; the
    # count and witness pin the first failing law
    tiny = approx(1e-300)
    anchor = Basis.make(VectorSpace("central_affine", 2, tiny), [[1, 0], [0, 1]])
    group = MatrixGroup.general_linear(2, tiny, elements=[[[1, 0], [0, 1]]])
    verdict = vector_space_axioms_check(fundamental_functor(), anchor, group, seed=1)
    assert verdict == Verdict(
        False,
        "sampled(k=100, seed=1)",
        5,
        (
            "distributive",
            (-2.1938145353255925, 2.084602421623396),
            (1.582647713859684, -1.4695858455634698),
            0.9095578363365777,
        ),
        None,
    )


# -- rational work done once ---------------------------------------------------------

def golden_group(folder, name, backend):
    path = Path(__file__).parent / "golden" / folder / f"{name}.json"
    return group_from_descriptor(json.loads(path.read_text(encoding="utf-8")), backend)


def gl3_order8():
    """The stored exact GL(3) group of order 8 of the golden files."""
    return golden_group("exact", "gl3_order8_group", EXACT)


def so3_icosahedral():
    """The float SO(3) closure of order 60 of the golden files."""
    return golden_group("float", "so3_I_group", APPROX)

FAST_PATH_FUNCTORS = {
    "identity": identity_functor(),
    "fundamental": fundamental_functor(),
    "dual": dual_functor(),
    "tensor2": tensor_power_functor(2),
    "tensor3": tensor_power_functor(3),
    "fundamental+dual": direct_sum_functor(fundamental_functor(), dual_functor()),
    "nested-sum": direct_sum_functor(
        identity_functor(),
        direct_sum_functor(dual_functor(), tensor_power_functor(2)),
        fundamental_functor(),
    ),
}


def reference_functor_eval(functor, g, inverse=None):
    """``A(g)`` evaluated part by part as the object law first did, each
    dual inverting ``g`` again, or transposing ``inverse``, the matrix of
    ``g^-1``, when given: the oracle for the grids' entries and bits."""
    m = g.payload
    if functor.tag == "identity":
        return Matrix.from_rows([[1]], m.backend)
    if functor.tag == "fundamental":
        return m
    if functor.tag == "dual":
        return (m.inverse() if inverse is None else inverse).transpose()
    if functor.tag == "tensor_power":
        result = m
        for _ in range(functor.power - 1):
            result = result.kron(m)
        return result
    result = reference_functor_eval(functor.parts[0], g, inverse)
    for part in functor.parts[1:]:
        result = result.block_diag(reference_functor_eval(part, g, inverse))
    return result


def exact_fast_path_elements():
    """Stored elements of two exact groups and sampled GL and SL elements."""
    rng = Random(11)
    sampled = [MatrixGroup.general_linear(n, EXACT) for n in (2, 3)]
    sampled += [MatrixGroup.special_linear(n, EXACT) for n in (2, 3)]
    return [
        *dihedral_8().store,
        *gl3_order8().store,
        *(sample_group_element(group, rng) for group in sampled for _ in range(3)),
    ]


def float_fast_path_elements():
    rng = Random(12)
    sampled = [MatrixGroup.general_linear(n, APPROX) for n in (2, 3)]
    sampled += [MatrixGroup.special_linear(n, APPROX) for n in (2, 3)]
    return [
        *so2_order_12().store,
        *(sample_group_element(group, rng) for group in sampled for _ in range(3)),
    ]


def transformation_of(functor, g):
    n = g.payload.nrows
    backend = g.payload.backend
    anchor = Basis.make(VectorSpace("central_affine", n, backend), Matrix.identity(n, backend).entries)
    return ObjectTransformation.of(ObjectCarrier(functor, anchor), g)


def float_bits(m):
    return tuple(map(float.hex, m.flat))


@pytest.mark.parametrize("name", FAST_PATH_FUNCTORS)
def test_the_exact_inverse_from_the_parts_is_the_inverse_of_the_grid(name):
    functor = FAST_PATH_FUNCTORS[name]
    elements = exact_fast_path_elements()
    if functor.tag == "tensor_power" and functor.power == 3:
        elements = elements[::4]  # a 27-by-27 reference inverse is slow
    for g in elements:
        t = transformation_of(functor, g)
        grid = functor_eval(functor, g)
        assert t.functor_grid.entries == grid.entries == reference_functor_eval(functor, g).entries
        assert t.functor_inverse.entries == grid.inverse().entries


@pytest.mark.parametrize("name", FAST_PATH_FUNCTORS)
def test_float_grids_and_inverses_keep_their_bits(name):
    # the float law inverts g alone, as the exact one does: A(g)^-1 is the
    # grid at g^-1, whose dual transposes g, bit for bit
    functor = FAST_PATH_FUNCTORS[name]
    for g in float_fast_path_elements():
        t = transformation_of(functor, g)
        reference = reference_functor_eval(functor, g)
        g_inv = GroupElement(g.group, g.payload.inverse())
        assert float_bits(t.functor_grid) == float_bits(functor_eval(functor, g))
        assert float_bits(t.functor_grid) == float_bits(reference)
        assert float_bits(t.functor_inverse) == float_bits(
            reference_functor_eval(functor, g_inv, inverse=g.payload)
        )


@pytest.mark.parametrize("name", FAST_PATH_FUNCTORS)
@pytest.mark.parametrize("make_group", [so2_order_12, so3_icosahedral])
def test_a_float_grid_at_the_inverse_inverts_the_grid_within_the_tolerance(make_group, name):
    functor = FAST_PATH_FUNCTORS[name]
    for g in make_group().store:
        t = transformation_of(functor, g)
        product = t.functor_inverse.mul(t.functor_grid)
        identity = Matrix.identity(product.nrows, APPROX)
        residuals = [abs(x - y) for x, y in zip(product.flat, identity.flat)]
        assert max(residuals) <= APPROX.tolerance, (g, max(residuals))


def counted_inverses(monkeypatch):
    """The size of every matrix inverted from now on."""
    sizes = []
    inverse = Matrix.inverse

    def counted(self):
        sizes.append(self.nrows)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    return sizes


@pytest.mark.parametrize(
    "functor, inverted",
    [
        (tensor_power_functor(2), [3] * 8),
        (direct_sum_functor(fundamental_functor(), dual_functor()), [3] * 8),
        (identity_functor(), []),
    ],
    ids=["tensor-square", "fundamental+dual", "identity"],
)
def test_an_exact_sweep_inverts_one_n_by_n_grid_per_element(functor, inverted, monkeypatch):
    # the identity functor's grid [1] is its own inverse: nothing is inverted
    group = gl3_order8()
    anchor = Basis.make(VectorSpace("central_affine", 3, EXACT), [[2, 1, 0], [0, 1, 0], [1, 0, 3]])
    coords = [F(k, 3) for k in range(weight_dim(functor, 3))]
    obj = GeometricalObject.make(functor, coords, anchor)
    sizes = counted_inverses(monkeypatch)
    verdict, _ = invariance_sweep((obj, g, None, None) for g in group.store)
    assert verdict.passed and verdict.checked == 8
    assert sizes == inverted


@pytest.mark.parametrize(
    "functor",
    [tensor_power_functor(2), direct_sum_functor(fundamental_functor(), dual_functor())],
    ids=["tensor-square", "fundamental+dual"],
)
def test_a_float_sweep_inverts_one_n_by_n_grid_per_element(functor, monkeypatch):
    # no 9-by-9 or 6-by-6 grid is eliminated: g^-1 builds A(g)^-1
    group = so3_icosahedral()
    anchor = Basis.make(VectorSpace("euclid", 3, APPROX), [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])
    coords = [k / 3 for k in range(weight_dim(functor, 3))]
    obj = GeometricalObject.make(functor, coords, anchor)
    sizes = counted_inverses(monkeypatch)
    verdict, _ = invariance_sweep((obj, g, None, None) for g in group.store)
    assert verdict.passed and verdict.checked == 60
    assert sizes == [3] * 60


def test_objects_at_one_frame_share_the_moved_frame():
    anchor = anchor_2d()
    t = ObjectTransformation.of(ObjectCarrier(tensor_power_functor(2), anchor), elem([[2, 1], [1, 1]]))
    u, v = (GeometricalObject.make(tensor_power_functor(2), c, anchor) for c in ([1, 2, 3, 4], [0, 5, 0, 1]))
    moved_u, moved_v = t.apply(u), t.apply(v)
    assert moved_u.anchor is moved_v.anchor and moved_u.w_basis is moved_v.w_basis
    assert moved_u.anchor.eq(passive_transform(anchor, elem([[2, 1], [1, 1]])))
    assert add_objects(moved_u, moved_v).eq(t.apply(add_objects(u, v)))
    assert representative(moved_v) == representative(v)


def test_two_auxiliary_bases_at_one_anchor_move_to_two_frames():
    anchor, g = anchor_2d(), elem([[2, 1], [1, 1]])
    t = ObjectTransformation.of(ObjectCarrier(fundamental_functor(), anchor), g)
    swap = Matrix.from_rows([[0, 1], [1, 0]], EXACT)
    u = GeometricalObject.make(fundamental_functor(), [1, 2], anchor)
    v = GeometricalObject.make(fundamental_functor(), [1, 2], anchor, w_basis=swap)
    for first, second in ((u, v), (v, u), (u, u), (v, v)):
        moved = t.apply(first), t.apply(second)
        for obj, after in zip((first, second), moved):
            assert after.w_basis == g.payload.mul(obj.w_basis)
            assert after.eq(transform_object(obj, g))
            assert representative(after) == representative(obj)
    assert not t.apply(u).eq(t.apply(v))


def test_a_float_frame_holding_a_nan_still_fails_add_objects():
    # a NaN is close to nothing, not even at the very same frame
    anchor = float_anchor()
    nan_basis = Matrix(((math.nan, 0.0), (0.0, 1.0)), APPROX)
    obj = GeometricalObject(fundamental_functor(), (1.0, 2.0), anchor, nan_basis)
    with pytest.raises(AnchorMismatch):
        add_objects(obj, obj)
    assert not obj.eq(obj)
    # over the rationals the same frame is the same
    exact = GeometricalObject.make(fundamental_functor(), [1, 2], anchor_2d())
    assert add_objects(exact, exact).coords == (F(2), F(4)) and exact.eq(exact)


def test_vector_space_axioms_move_one_frame_and_u_once_per_sample(monkeypatch):
    applied, framed = [0], [0]
    apply, recombine = ObjectTransformation.apply, objects._recombine

    def counted_apply(self, obj):
        applied[0] += 1
        return apply(self, obj)

    def counted_recombine(*args):
        framed[0] += 1
        return recombine(*args)

    monkeypatch.setattr(ObjectTransformation, "apply", counted_apply)
    monkeypatch.setattr(objects, "_recombine", counted_recombine)
    verdict = vector_space_axioms_check(
        tensor_power_functor(2), anchor_2d(), quarter_turns(), samples=40, seed=5
    )
    assert verdict.passed and verdict.checked == 280
    # u + v, u, v and c u are moved; all four sit at the sample's one frame
    assert applied[0] == 4 * 40
    assert framed[0] == 40


@pytest.mark.parametrize(
    "functor, inverted",
    [
        (fundamental_functor(), []),
        (tensor_power_functor(2), []),
        (tensor_power_functor(3), []),
        (dual_functor(), [2]),
    ],
    ids=["fundamental", "tensor2", "tensor3", "dual"],
)
def test_functor_eval_inverts_g_only_for_a_dual(functor, inverted, monkeypatch):
    sizes = counted_inverses(monkeypatch)
    for g in (elem([[2, 1], [1, 1]]), so2_order_12().store[1]):
        del sizes[:]
        grid = functor_eval(functor, g)
        assert sizes == inverted
        assert grid.entries == reference_functor_eval(functor, g).entries


def test_an_exact_frame_at_the_shared_identity_moves_to_the_grid_itself():
    g = elem([[2, 1], [1, 1]])
    for functor, coords in ((fundamental_functor(), [1, 2]), (tensor_power_functor(2), [1, 2, 3, 4])):
        t = ObjectTransformation.of(ObjectCarrier(functor, anchor_2d()), g)
        obj = GeometricalObject.make(functor, coords, anchor_2d())
        assert obj.w_basis is Matrix.identity(len(coords), EXACT)
        moved = t.apply(obj)
        assert moved.w_basis is t.functor_grid
        assert moved.w_basis == t.functor_grid.mul(obj.w_basis)
        assert moved.eq(transform_object(obj, g))
        assert representative(moved) == representative(obj)


def test_a_float_frame_at_the_identity_keeps_the_product_and_its_bits():
    # 0.0 + (-0.0 * 1.0) + (-1.0 * 0.0) is +0.0: the product is not A(g)
    group = MatrixGroup.general_linear(2, APPROX)
    g = group.element(Matrix(((-0.0, -1.0), (1.0, -0.0)), APPROX))
    t = ObjectTransformation.of(ObjectCarrier(fundamental_functor(), float_anchor()), g)
    obj = GeometricalObject.make(fundamental_functor(), [1.0, 2.0], float_anchor())
    assert obj.w_basis is Matrix.identity(2, APPROX)
    moved = t.apply(obj)
    assert moved.w_basis is not t.functor_grid
    assert float_bits(moved.w_basis) == float_bits(t.functor_grid.mul(obj.w_basis))
    assert moved.w_basis.entries[0][0].hex() == "0x0.0p+0"
    assert t.functor_grid.entries[0][0].hex() == "-0x0.0p+0"


def sweep_after(obj, g):
    """The ``after`` of the sweep's case for ``g``, read off the witness of
    a case whose ``before`` nothing is close to."""
    nowhere = (math.nan,) * len(obj.coords)
    verdict, _ = invariance_sweep([(obj, g, nowhere, None)])
    return verdict.counterexample[2]


def scalar_bits(v):
    """Entries as they compare bit for bit: a float by its eight bytes, so
    the sign of a zero or of a NaN counts."""
    return [struct.pack("<d", x) if isinstance(x, float) else x for x in v]


def float_anchor_3d():
    return Basis.make(VectorSpace("euclid", 3, APPROX), [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])


def exact_anchor_3d():
    return Basis.make(VectorSpace("central_affine", 3, EXACT), [[2, 1, 0], [0, 1, 0], [1, 0, 3]])


def signed_zero_flips():
    """The float GL(2) group ``{1, S}`` of an involution ``S`` that holds a
    ``-0.0``, which ``S 1`` turns into ``0.0``; a huge row overflows under ``S``."""
    flip = ((1.0, 4.0), (-0.0, -1.0))
    return MatrixGroup.general_linear(2, APPROX, elements=[Matrix.identity(2, APPROX).entries, flip])


@pytest.mark.parametrize("at_identity", [True, False], ids=["identity-E", "other-E"])
@pytest.mark.parametrize("name", [*FAST_PATH_FUNCTORS, "table"])
@pytest.mark.parametrize(
    "make_group, make_anchor",
    [
        (so2_order_12, float_anchor),
        (so3_icosahedral, float_anchor_3d),
        (gl3_order8, exact_anchor_3d),
        (signed_zero_flips, float_anchor),
    ],
)
def test_the_sweep_gives_the_representative_of_the_moved_object_bit_for_bit(
    make_group, make_anchor, name, at_identity
):
    group, anchor = make_group(), make_anchor()
    backend = anchor.space.backend
    if name == "table":
        functor = table_functor(group, [g.payload for g in group.store])
    else:
        functor = FAST_PATH_FUNCTORS[name]
    m = weight_dim(functor, anchor.space.dim)
    w_basis = None
    if not at_identity:
        half = F(1, 2) if backend.is_exact else 0.5
        rows = [[1 if i == j else half if j == i + 1 else 0 for j in range(m)] for i in range(m)]
        w_basis = Matrix.from_rows(rows, backend)
    thirds = [(-1) ** k * F(k + 1, 3) for k in range(m)]
    for coords in (thirds, *(row_path_coords(m, backend, kind) for kind in ("signed-zeros", "huge"))):
        obj = GeometricalObject.make(functor, coords, anchor, w_basis)
        assert (obj.w_basis is Matrix.identity(m, backend)) == at_identity
        for g in group.store:
            expected = representative(transform_object(obj, g))
            assert scalar_bits(sweep_after(obj, g)) == scalar_bits(expected), g


def test_an_overflowing_float_grid_moves_the_identity_by_the_product():
    # A(g) has inf at (0, 0); its product with the identity has inf * 0.0,
    # a NaN, in the rest of row 0, which reaches every entry of w' E'
    group = MatrixGroup.general_linear(2, APPROX)
    g = group.element(Matrix(((1e200, 1.0), (0.0, 1.0)), APPROX))
    obj = GeometricalObject.make(tensor_power_functor(2), [0.5, -1.0, 2.0, 0.25], float_anchor())
    t = ObjectTransformation.of(ObjectCarrier(obj.functor, obj.anchor), g)
    shortcut = t.functor_grid.vecmat(t.functor_inverse.vecmat(obj.coords))
    after = sweep_after(obj, g)
    assert scalar_bits(after) == scalar_bits(representative(transform_object(obj, g)))
    assert scalar_bits(after) != scalar_bits(shortcut)
    assert all(map(math.isnan, after))


ROW_PATH_FUNCTORS = {
    "identity": identity_functor(),
    "fundamental": fundamental_functor(),
    "dual": dual_functor(),
    "tensor1": tensor_power_functor(1),
    "tensor2": tensor_power_functor(2),
    "tensor3": tensor_power_functor(3),
    "fundamental+dual": direct_sum_functor(fundamental_functor(), dual_functor()),
    "nested-sum": direct_sum_functor(
        direct_sum_functor(identity_functor(), dual_functor()),
        direct_sum_functor(tensor_power_functor(2), direct_sum_functor(fundamental_functor())),
    ),
}


def row_path_elements(n, backend):
    """GL(n) elements with zero entries, signs and fractions: a signed
    cyclic permutation, a diagonal, a shear and two sampled elements."""
    half = F(1, 2) if backend.is_exact else 0.5
    perm = [[(-1) ** i if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    diag = [[(-2 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    shear = [[1 if i == j else half if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    group = MatrixGroup.general_linear(n, backend)
    rng = Random(n)
    return [group.element(Matrix.from_rows(rows, backend)) for rows in (perm, diag, shear)] + [
        sample_group_element(group, rng) for _ in range(2)
    ]


def row_path_coords(m, backend, kind):
    """``m`` coordinates: signed zeros between small values, or huge values
    up to near the largest float, whose rows overflow under some elements."""
    if backend.is_exact:
        first = {"signed-zeros": [0, F(3, 2), 0, F(-9, 4)], "huge": [10**308, 0, -(10**300), F(1, 2)]}
    else:
        first = {"signed-zeros": [-0.0, 1.5, 0.0, -2.25], "huge": [1e308, -0.0, -1e300, 0.5]}
    return [first[kind][k % 4] for k in range(m)]


def count_grid_paths(monkeypatch):
    """The number of sweep cases that fall back to the grid path."""
    calls = [0]
    moved_representative = ObjectTransformation.moved_representative

    def counted(self, obj):
        calls[0] += 1
        return moved_representative(self, obj)

    monkeypatch.setattr(ObjectTransformation, "moved_representative", counted)
    return calls, moved_representative


@pytest.mark.parametrize("kind", ["signed-zeros", "huge"])
@pytest.mark.parametrize("name", ROW_PATH_FUNCTORS)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("backend", [EXACT, APPROX], ids=["exact", "float"])
def test_the_row_path_gives_the_grid_path_bit_for_bit(backend, n, name, kind, monkeypatch):
    functor = ROW_PATH_FUNCTORS[name]
    anchor = Basis.make(VectorSpace("central_affine", n, backend), Matrix.identity(n, backend).entries)
    coords = row_path_coords(weight_dim(functor, n), backend, kind)
    obj = GeometricalObject.make(functor, coords, anchor)
    carrier = ObjectCarrier(functor, anchor)
    grid_paths, moved_representative = count_grid_paths(monkeypatch)
    rows = 0
    for g in row_path_elements(n, backend):
        grid_path = moved_representative(ObjectTransformation.of(carrier, g), obj)
        before = grid_paths[0]
        assert scalar_bits(sweep_after(obj, g)) == scalar_bits(grid_path), g
        # only a row that does not stay finite takes the grid path
        finite = backend.is_exact or all(map(math.isfinite, grid_path))
        assert grid_paths[0] - before == (not finite)
        rows += finite
    assert rows


def sign_diagonals(n, backend):
    """The stored group of the ``2^n`` diagonal matrices of signs."""
    grids = [Matrix.diagonal(signs, backend) for signs in itertools.product((1, -1), repeat=n)]
    return MatrixGroup.general_linear(n, backend, elements=grids)


@pytest.mark.parametrize("case", ["table", "other-E"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("backend", [EXACT, APPROX], ids=["exact", "float"])
def test_a_table_functor_or_another_auxiliary_basis_keeps_the_grid_path(backend, n, case, monkeypatch):
    group = sign_diagonals(n, backend)
    anchor = Basis.make(VectorSpace("central_affine", n, backend), Matrix.identity(n, backend).entries)
    if case == "table":
        functor, w_basis = table_functor(group, [g.payload for g in group.store]), None
    else:
        functor = direct_sum_functor(dual_functor(), tensor_power_functor(2))
        m = weight_dim(functor, n)
        half = F(1, 2) if backend.is_exact else 0.5
        rows = [[1 if i == j else half if j == i + 1 else 0 for j in range(m)] for i in range(m)]
        w_basis = Matrix.from_rows(rows, backend)
    coords = row_path_coords(weight_dim(functor, n), backend, "signed-zeros")
    obj = GeometricalObject.make(functor, coords, anchor, w_basis)
    grid_paths, moved_representative = count_grid_paths(monkeypatch)
    for g in group.store:
        grid_path = moved_representative(ObjectTransformation.of(ObjectCarrier(functor, anchor), g), obj)
        assert scalar_bits(sweep_after(obj, g)) == scalar_bits(grid_path), g
    assert grid_paths[0] == len(group.store)


@pytest.mark.parametrize("backend", [EXACT, APPROX], ids=["exact", "float"])
def test_a_sweep_forms_no_kronecker_block_diagonal_or_transpose(backend, monkeypatch):
    functor = direct_sum_functor(
        identity_functor(), dual_functor(), tensor_power_functor(3), fundamental_functor()
    )
    anchor = Basis.make(VectorSpace("central_affine", 2, backend), Matrix.identity(2, backend).entries)
    obj = GeometricalObject.make(functor, row_path_coords(weight_dim(functor, 2), backend, "signed-zeros"), anchor)
    formed = []
    for name in ("kron", "block_diag", "transpose"):
        method = getattr(Matrix, name)
        monkeypatch.setattr(Matrix, name, lambda *args, _m=method, _n=name: formed.append(_n) or _m(*args))
    verdict, _ = invariance_sweep((obj, g, None, None) for g in row_path_elements(2, backend))
    assert verdict.passed and verdict.checked == 5
    assert formed == []
