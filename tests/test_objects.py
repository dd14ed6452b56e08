"""Geometrical objects: transformation law, invariance, orbits, linear structure."""

from fractions import Fraction

import pytest

from basiskit.bases import Basis, VectorSpace, passive_transform
from basiskit.errors import (
    AnchorMismatch,
    BasiskitError,
    DimensionMismatch,
    GroupSpaceMismatch,
    Singular,
    TypeMismatch,
)
from basiskit.groups import MatrixGroup, cyclic_group
from basiskit.matrices import Matrix
from basiskit.objects import (
    GeometricalObject,
    add_objects,
    direct_sum_functor,
    dual_functor,
    fundamental_functor,
    functor_eval,
    identity_functor,
    invariance_check,
    object_orbit,
    object_orbit_well_defined_check,
    rebase,
    representative,
    scale_object,
    table_functor,
    tensor_power_functor,
    transform_object,
    vector_space_axioms_check,
    weight_dim,
)
from basiskit.representations import Verdict
from basiskit.scalars import EXACT, approx

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
    assert functor_eval(identity_functor(), g).rows_as_lists() == [[F(1)]]
    assert functor_eval(fundamental_functor(), g).rows_as_lists() == [
        [F(2), F(0)],
        [F(0), F(3)],
    ]
    assert functor_eval(dual_functor(), g).rows_as_lists() == [
        [F(1, 2), F(0)],
        [F(0), F(1, 3)],
    ]


def test_dual_is_inverse_transpose():
    g = elem([[1, 1], [0, 1]])
    assert functor_eval(dual_functor(), g).rows_as_lists() == [
        [F(1), F(0)],
        [F(-1), F(1)],
    ]


def test_tensor_power_eval():
    g = elem([[2, 0], [0, 3]])
    grid = functor_eval(tensor_power_functor(2), g)
    assert grid.rows_as_lists() == [
        [F(4), F(0), F(0), F(0)],
        [F(0), F(6), F(0), F(0)],
        [F(0), F(0), F(6), F(0)],
        [F(0), F(0), F(0), F(9)],
    ]


def test_direct_sum_eval():
    g = elem([[2, 0], [0, 3]])
    grid = functor_eval(direct_sum_functor(fundamental_functor(), dual_functor()), g)
    assert grid.rows_as_lists() == [
        [F(2), F(0), F(0), F(0)],
        [F(0), F(3), F(0), F(0)],
        [F(0), F(0), F(1, 2), F(0)],
        [F(0), F(0), F(0), F(1, 3)],
    ]


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
    assert functor_eval(functor, z2.element(1)).rows_as_lists() == [
        [F(1), F(0)],
        [F(0), F(-1)],
    ]


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
    assert moved.w_basis.rows_as_lists() == [[F(2), F(0)], [F(0), F(1)]]
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
        assert verdict.residual_max == 0.0


def test_transforms_compose_through_the_product():
    obj = GeometricalObject.make(dual_functor(), [3, 5], anchor_2d())
    a = elem([[1, 1], [0, 1]])
    b = elem([[2, 0], [1, 1]])
    stepwise = transform_object(transform_object(obj, b), a)
    at_once = transform_object(obj, a * b)
    assert stepwise.eq(at_once)


# -- orbits -----------------------------------------------------------------------


def test_object_orbit_of_a_vector_under_quarter_turns():
    group = quarter_turns()
    assert len(group.store) == 4
    obj = GeometricalObject.make(fundamental_functor(), [1, 0], anchor_2d())
    orbit = object_orbit(obj, group)
    assert len(orbit.points) == 4
    for moved, g in orbit.witnesses:
        assert transform_object(obj, g).eq(moved)
        assert representative(moved) == (F(1), F(0))


def test_object_orbit_well_defined():
    group = quarter_turns()
    obj = GeometricalObject.make(fundamental_functor(), [1, 0], anchor_2d())
    verdict = object_orbit_well_defined_check(obj, group)
    assert verdict.passed
    assert verdict.checked == 4


def test_object_orbit_of_an_invariant_point():
    group = quarter_turns()
    obj = GeometricalObject.make(identity_functor(), [9], anchor_2d())
    orbit = object_orbit(obj, group)
    # the coordinate never moves but the anchor does
    assert len(orbit.points) == 4
    assert all(p.coords == (F(9),) for p in orbit.points)


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
        0.0,
    )
