"""Side laws, variance, orbits, transports, twins."""

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from basiskit.descriptors import to_jsonable
from basiskit.errors import (
    BackendMismatch,
    BasiskitError,
    CarrierMismatch,
    CayleyTableError,
    DimensionMismatch,
    EnumerationCapExceeded,
    InfeasibleExhaustive,
    MixedGroups,
    NoSolution,
    NotCovariant,
    NotSingleTransitive,
    SideMismatch,
    Singular,
)
from basiskit.groups import (
    FiniteGroup,
    GroupElement,
    MatrixGroup,
    PointIndex,
    _generating_set,
    cyclic_group,
    dihedral_group,
    permutation_matrix,
    quaternion_group,
    rotation_2d,
    symmetric_group,
    validate_cayley_table,
)
from basiskit.matrices import Matrix
from basiskit.representations import (
    CoordCarrier,
    FiniteCarrier,
    FunctionTransformation,
    LinearTransformation,
    MappingTransformation,
    PairTransformation,
    ProductCarrier,
    Representation,
    SelfCarrier,
    Verdict,
    _first_failure,
    _point_compare,
    _variance_product,
    check_axioms,
    check_laws,
    check_variance,
    classify,
    commutation_check,
    compose_transformations,
    contragredient,
    direct_product,
    inverse_law_check,
    kernel_of_inefficiency,
    left_shift,
    orbit,
    orbit_closure_check,
    orbit_well_defined_check,
    right_shift,
    same_side_noncommuting_witness,
    same_side_witness_check,
    shifts_commute_check,
    single_transitivity_check,
    solve_transport,
    transformations_equal,
    twin_representation,
    variance_claim_check,
)
from basiskit.sampling import sample_group_element
from basiskit.scalars import EXACT, approx
from basiskit.selftest import finite_fixtures

F = Fraction


# -- small helper actions -------------------------------------------------------


def rotation_action_of_z6_on_triangle():
    """Z6 turning three points: ``g . x = (x + g) mod 3``.

    Transitive but not effective; 3 and 0 act identically.
    """
    z6 = cyclic_group(6)
    carrier = FiniteCarrier(3)

    def assign(g):
        return MappingTransformation(carrier, [(x + g.payload) % 3 for x in range(3)])

    return Representation(z6, carrier, "left", assign, label="triangle-turn")


def swap_action_of_z2():
    """Z2 swapping two of three points, fixing the third."""
    z2 = cyclic_group(2)
    carrier = FiniteCarrier(3)
    swap = [1, 0, 2]
    ident = [0, 1, 2]

    def assign(g):
        return MappingTransformation(carrier, swap if g.payload else ident)

    return Representation(z2, carrier, "left", assign, label="swap")


# -- constructor and transformation plumbing ------------------------------------


def test_identity_must_map_to_identity():
    z2 = cyclic_group(2)
    carrier = FiniteCarrier(2)
    swap = [1, 0]
    with pytest.raises(Exception):
        Representation(z2, carrier, "left", lambda g: MappingTransformation(carrier, swap))


def test_apply_checks_carrier_membership():
    rep = swap_action_of_z2()
    g = rep.group.element(1)
    with pytest.raises(CarrierMismatch):
        rep.apply(g, 17)


def test_foreign_elements_rejected():
    rep = swap_action_of_z2()
    other = cyclic_group(2)
    with pytest.raises(MixedGroups):
        rep.transformation(other.element(1))


def test_mapping_transformation_validation():
    carrier = FiniteCarrier(3)
    with pytest.raises(Singular):
        MappingTransformation(carrier, [1, 1, 2])
    with pytest.raises(Exception):
        MappingTransformation(carrier, [0])


# -- shift representations -------------------------------------------------------


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_cyclic_shift_axioms(order):
    g = cyclic_group(order)
    assert check_axioms(left_shift(g)).passed
    assert check_axioms(right_shift(g)).passed


def test_s3_shift_axioms_and_sides():
    s3 = symmetric_group(3)
    f, h = left_shift(s3), right_shift(s3)
    assert f.side == "left" and h.side == "right"
    assert check_axioms(f).passed
    assert check_axioms(h).passed
    # the wrong side fails on a noncommutative group, witnessed
    wrong = Representation(
        s3, f.carrier, "right", f.transformation, label="left-shift-claimed-right"
    )
    verdict = check_axioms(wrong)
    assert not verdict.passed
    assert verdict.counterexample is not None


def test_variance_verdicts():
    s3 = symmetric_group(3)
    assert check_variance(left_shift(s3)).verdict == "covariant"
    assert check_variance(right_shift(s3)).verdict == "contravariant"
    z3 = cyclic_group(3)
    assert check_variance(left_shift(z3)).verdict == "both"
    assert check_variance(right_shift(z3)).verdict == "both"


def test_variance_neither_with_witnesses():
    z4 = cyclic_group(4)
    carrier = FiniteCarrier(3)
    ident = [0, 1, 2]
    crooked = {
        0: ident,
        1: [1, 0, 2],
        2: [0, 2, 1],
        3: [2, 1, 0],
    }
    rep = Representation(
        z4,
        carrier,
        "left",
        lambda g: MappingTransformation(carrier, crooked[g.payload]),
        label="crooked",
    )
    verdict = check_variance(rep)
    assert verdict.verdict == "neither"
    assert verdict.homomorphism_witness is not None
    assert verdict.antihomomorphism_witness is not None


def test_inverse_law_failure_is_witnessed():
    z4 = cyclic_group(4)
    carrier = FiniteCarrier(4)
    cycle = [1, 2, 3, 0]
    ident = list(range(4))

    def assign(g):
        return MappingTransformation(carrier, cycle if g.payload == 1 else ident)

    rep = Representation(z4, carrier, "left", assign, label="lopsided")
    verdict = inverse_law_check(rep)
    assert not verdict.passed
    (witness,) = verdict.counterexample
    assert witness.payload == 1


def test_shifts_commute():
    for group in (cyclic_group(4), symmetric_group(3), dihedral_group(4)):
        assert shifts_commute_check(group).passed


def shift_commutation_oracle(group):
    """The shifts' commutation one triple ``(a, b, w)`` at a time, ``a (w b)``
    against ``(a w) b``, counting every case run.  Each product of two
    stored elements is formed once with ``compose_elements`` and named by
    the first stored element it is ``eq_to``."""
    store = group.store

    def position(g):
        return next(k for k, x in enumerate(store) if x.eq_to(g))

    mul = [[position(group.compose_elements(a, b)) for b in store] for a in store]
    checked = 0
    for a, b, w in itertools.product(range(len(store)), repeat=3):
        checked += 1
        if mul[a][mul[w][b]] != mul[mul[a][w]][b]:
            return Verdict(False, "exhaustive", checked, (store[a], store[b], store[w]))
    return Verdict(True, "exhaustive", checked)


def non_associative_loop():
    """A loop of order 5 (identity 0, each element its own inverse) that is
    not associative: (1 2) 2 = 4 but 1 (2 2) = 1.  Built past validation."""
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(CayleyTableError):
        validate_cayley_table(table)
    return unvalidated(table)


def unvalidated(table):
    """A :class:`FiniteGroup` on ``table``, identity 0 and each element its
    own inverse, built past validation with the generators searched on it."""
    table = tuple(map(tuple, table))
    return FiniteGroup(table, 0, tuple(range(len(table))), _generating_set(table, 0))


def closed_group(group, generators):
    group.close_over(generators)
    return group


def b3_closure():
    """The signed permutation matrices of order 48, closed from three generators."""
    generators = [
        permutation_matrix((1, 2, 0)),
        permutation_matrix((1, 0, 2)),
        Matrix.diagonal((-1, 1, 1), EXACT),
    ]
    return closed_group(MatrixGroup.general_linear(3), generators)


def d4_matrix_closure():
    """The eight exact symmetries of the square, closed from a quarter turn and a flip."""
    return closed_group(MatrixGroup.general_linear(2), [[[0, -1], [1, 0]], [[1, 0], [0, -1]]])


def so2_closure(n):
    """The float rotations by multiples of ``2 pi / n``, closed from one."""
    return closed_group(MatrixGroup.metric_preserving(2, 0), [rotation_2d(2 * math.pi / n)])


@pytest.mark.parametrize(
    "make_group",
    [lambda group=group: group for _, group in finite_fixtures()]
    + [
        lambda: symmetric_group(4),
        lambda: dihedral_group(6),
        lambda: cyclic_group(1),
        lambda: symmetric_group(5),
        lambda: cyclic_group(5),
        lambda: dihedral_group(5),
        non_associative_loop,
        # not associative: (1*1)*2 != 1*(1*2)
        lambda: unvalidated(((0, 1, 2), (1, 2, 2), (2, 2, 1))),
        lambda: unvalidated(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1))),
        b3_closure,
        lambda: so2_closure(12),
    ],
    ids=[name for name, _ in finite_fixtures()]
    + ["S4", "D6", "Z1", "S5", "Z5", "D5", "loop", "magma3", "magma4", "B3-closure", "SO2-order12"],
)
def test_shift_commutation_matches_the_triple_oracle(make_group):
    group = make_group()
    assert shifts_commute_check(group) == shift_commutation_oracle(group)


def test_b3_shift_commutation_forms_only_the_rows_of_the_shifts(monkeypatch):
    # a triple loop would form four exact products for each of 48^3 triples;
    # both shifts read one product table, which holds the closure's products
    b3 = b3_closure()
    products = []
    mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: products.append(1) or mul(self, other))
    verdict = shifts_commute_check(b3)
    assert verdict == Verdict(True, "exhaustive", 48**3)
    assert len(products) <= 48 * 48


def test_shift_commutation_refuses_a_store_that_is_not_closed():
    # diag(2, 1) squared is not stored, so neither shift exists
    group = MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], [[2, 0], [0, 1]]])
    with pytest.raises(BasiskitError, match="outside the carrier"):
        shifts_commute_check(group)


def test_shift_commutation_fails_on_a_non_associative_table():
    loop = non_associative_loop()
    verdict = shifts_commute_check(loop)
    a, b, w = verdict.counterexample
    assert not verdict.passed
    assert not (a * (w * b)).eq_to((a * w) * b)


# -- the first-failure loop -------------------------------------------------------


def test_first_failure_counts_the_failing_case_and_stops_there():
    consumed = []

    def outcomes():
        cases = [("a", True, 0.5), ("b", False, 0.25), ("c", False, 9.0)]
        for witness, holds, residual in cases:
            consumed.append(witness)
            yield witness, holds, residual

    verdict = _first_failure("mode", outcomes())
    assert verdict == Verdict(False, "mode", 2, "b", 0.5)
    assert consumed == ["a", "b"]


def test_first_failure_passes_with_the_worst_residual():
    cases = [((1,), True, 0.0), ((2,), True, 3.0), ((3,), True, 1.0)]
    assert _first_failure("m", iter(cases)) == Verdict(True, "m", 3, None, 3.0)
    assert _first_failure("m", iter([])) == Verdict(True, "m", 0, None, None)


# -- the natural matrix action ---------------------------------------------------


def _stored_gl2():
    rows = [
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[0, 1], [1, 0]],
        [[2, 0], [0, 1]],
    ]
    return MatrixGroup.general_linear(
        2, EXACT, elements=[Matrix.from_rows(r, EXACT) for r in rows]
    )


def natural_action(group, layout):
    carrier = CoordCarrier(group.dim, layout, group.backend)
    side = "left" if layout == "column" else "right"
    return Representation(
        group,
        carrier,
        side,
        lambda g: LinearTransformation(carrier, g.payload),
        label=f"natural-{layout}",
    )


def test_natural_column_action_is_left_covariant():
    rep = natural_action(_stored_gl2(), "column")
    assert check_axioms(rep, samples=40).passed
    assert check_variance(rep).verdict == "covariant"


def test_natural_row_action_is_right_covariant():
    rep = natural_action(_stored_gl2(), "row")
    assert check_axioms(rep, samples=40).passed
    # the grid product does not care about the layout, so the verdict
    # stays covariant even though the side flipped
    assert check_variance(rep).verdict == "covariant"


def test_row_action_on_the_left_side_fails():
    group = _stored_gl2()
    carrier = CoordCarrier(2, "row", EXACT)
    rep = Representation(
        group,
        carrier,
        "left",
        lambda g: LinearTransformation(carrier, g.payload),
        label="natural-row-misdeclared",
    )
    assert not check_axioms(rep, samples=40).passed


def test_sampled_axioms_report_the_first_drawn_failure():
    # draws come in the order a, b, u: the witness pins which draw fails first
    group = _stored_gl2()
    carrier = CoordCarrier(2, "row", EXACT)
    rep = Representation(
        group, carrier, "left", lambda g: LinearTransformation(carrier, g.payload)
    )
    verdict = check_axioms(rep, "sampled", samples=40, seed=3)
    assert (verdict.passed, verdict.mode, verdict.checked) == (
        False,
        "sampled(k=40, seed=3)",
        2,
    )
    assert verdict.counterexample == (group.store[1], group.store[4], (F(8, 3), F(1, 4)))
    s3 = symmetric_group(3)
    shift = left_shift(s3)
    misdeclared = Representation(s3, shift.carrier, "right", shift.transformation)
    verdict = check_axioms(misdeclared, "sampled", samples=40, seed=3)
    assert verdict.checked == 2
    assert [g.payload for g in verdict.counterexample] == [1, 4, 4]


def test_coordinate_style_action_is_contravariant():
    # components pick up the inverse grid; classification against the
    # grid product flips to the antihomomorphism reading
    group = _stored_gl2()
    carrier = CoordCarrier(2, "row", EXACT)
    rep = Representation(
        group,
        carrier,
        "left",
        lambda g: LinearTransformation(carrier, g.payload.inverse()),
        label="coordinate-style",
    )
    assert check_axioms(rep, samples=40).passed
    assert check_variance(rep).verdict == "contravariant"


def test_a_refuted_variance_claim_reports_the_pair_that_refutes_it():
    # the left shift of S3 is covariant; claimed contravariant, the witness
    # is a pair with f(ba) != f(a) f(b), and no homomorphism witness exists
    s3 = symmetric_group(3)
    shift = left_shift(s3)
    claimed = Representation(
        s3, shift.carrier, "left", shift.transformation, variance_claim="contravariant"
    )
    vv = check_variance(claimed)
    assert (vv.verdict, vv.homomorphism_witness) == ("covariant", None)
    verdict = variance_claim_check(claimed.variance_claim, vv)
    assert not verdict.passed
    assert verdict.detail == "verdict covariant, expected contravariant"
    a, b = verdict.counterexample
    product = compose_transformations(shift.transformation(a), shift.transformation(b))
    assert not transformations_equal(shift.transformation(b * a), product)
    assert variance_claim_check("covariant", vv) == Verdict(
        True, vv.mode, vv.checked, None, detail="verdict covariant, expected covariant"
    )
    # a contragredient of an abelian action claims both readings
    assert variance_claim_check("both", vv).counterexample == (a, b)
    abelian = contragredient(left_shift(cyclic_group(3)))
    assert variance_claim_check(abelian.variance_claim, check_variance(abelian)).passed


def test_a_variance_claim_of_none_needs_one_of_the_two_readings():
    backend = approx(1e-9)
    z2 = cyclic_group(2)
    carrier = CoordCarrier(2, "column", backend)
    squeeze = Matrix.from_rows([[1e-5, 0.0], [0.0, 1.0]], backend)
    grids = [Matrix.identity(2, backend), squeeze]
    rep = Representation(
        z2, carrier, "left", lambda g: LinearTransformation(carrier, grids[g.payload])
    )
    verdict = variance_claim_check(None, check_variance(rep))
    pair = (z2.element(1), z2.element(1))
    assert (verdict.passed, verdict.counterexample) == (False, (pair, pair))
    assert verdict.detail == "verdict neither, expected covariant or contravariant"
    assert variance_claim_check(None, check_variance(left_shift(z2))).passed


@pytest.mark.parametrize("backend", [EXACT, approx(1e-9)], ids=["exact", "float"])
def test_linear_transformation_refuses_a_singular_grid(backend):
    carrier = CoordCarrier(2, "column", backend)
    with pytest.raises(Singular):
        LinearTransformation(carrier, Matrix.from_rows([[1, 2], [2, 4]], backend))
    # a float grid counts as singular once its determinant is within the tolerance
    if not backend.is_exact:
        flat = Matrix.from_rows([[1e-10, 0.0], [0.0, 1.0]], backend)
        with pytest.raises(Singular):
            LinearTransformation(carrier, flat)


@pytest.mark.parametrize(
    "carrier_backend, grid_backend",
    [(EXACT, approx(1e-9)), (approx(1e-9), EXACT), (approx(1e-9), approx(1e-6))],
    ids=["exact-carrier-float-grid", "float-carrier-exact-grid", "other-tolerance"],
)
def test_linear_transformation_refuses_a_grid_of_another_backend(carrier_backend, grid_backend):
    carrier = CoordCarrier(2, "column", carrier_backend)
    grid = Matrix.from_rows([[2, 1], [1, 1]], grid_backend)
    with pytest.raises(BackendMismatch, match="backends differ"):
        LinearTransformation(carrier, grid)
    same = Matrix.from_rows([[2, 1], [1, 1]], carrier_backend)
    assert LinearTransformation(carrier, same).grid is same


@pytest.mark.parametrize("backend", [EXACT, approx(1e-9)], ids=["exact", "float"])
def test_derived_linear_transformations_take_no_determinant(backend, monkeypatch):
    # a product or an inverse of checked grids is invertible already
    carrier = CoordCarrier(2, "row", backend)
    t1 = LinearTransformation(carrier, Matrix.from_rows([[2, 1], [1, 1]], backend))
    t2 = LinearTransformation(carrier, Matrix.from_rows([[1, 0], [3, 1]], backend))
    calls = [0]
    det = Matrix.det

    def counted(self):
        calls[0] += 1
        return det(self)

    monkeypatch.setattr(Matrix, "det", counted)
    composed = t1.after(t2)
    inverted = t1.inverted()
    product = _variance_product(t1, t2)
    assert calls[0] == 0
    assert composed.grid.eq(t2.grid.mul(t1.grid))
    assert inverted.grid.eq(t1.grid.inverse())
    assert product.grid.eq(t1.grid.mul(t2.grid))
    assert all(type(t) is LinearTransformation for t in (composed, inverted, product))
    assert all(t.carrier is carrier for t in (composed, inverted, product))


def test_a_float_variance_product_under_the_tolerance_is_a_verdict():
    # each grid clears the tolerance, the product of the squeeze with itself
    # does not; the law fails on it instead of the product being refused
    backend = approx(1e-9)
    z2 = cyclic_group(2)
    carrier = CoordCarrier(2, "column", backend)
    grids = [
        Matrix.identity(2, backend),
        Matrix.from_rows([[1e-5, 0.0], [0.0, 1.0]], backend),
    ]
    rep = Representation(
        z2, carrier, "left", lambda g: LinearTransformation(carrier, grids[g.payload])
    )
    verdict = check_variance(rep)
    assert verdict.verdict == "neither"
    assert verdict.homomorphism_witness == (z2.element(1), z2.element(1))


def test_exhaustive_demand_on_coordinates_is_refused():
    # an exact stored group is decided on its grids; float grids and a group
    # without a store leave only the coordinates, which do not enumerate
    stored = natural_action(_stored_gl2(), "column")
    assert check_axioms(stored, sample="exhaustive").mode == "exhaustive(grids)"
    floats = MatrixGroup.general_linear(
        2, approx(1e-9), elements=[g.payload.entries for g in _stored_gl2().store]
    )
    for group in (floats, MatrixGroup.general_linear(2)):
        with pytest.raises(InfeasibleExhaustive):
            check_axioms(natural_action(group, "column"), sample="exhaustive")


def test_inverse_law_honours_the_sample_mode():
    # a law of the group alone: a stored group runs exhaustively even on a
    # coordinate carrier, and "sampled" draws seeded elements instead
    rep = natural_action(_stored_gl2(), "column")
    assert inverse_law_check(rep) == Verdict(True, "exhaustive", 5, None)
    assert inverse_law_check(rep, "sampled", samples=7, seed=3) == Verdict(
        True, "sampled(k=7, seed=3)", 7, None
    )
    with pytest.raises(BasiskitError):
        inverse_law_check(rep, "bogus")
    unstored = natural_action(MatrixGroup.general_linear(2), "column")
    assert inverse_law_check(unstored, samples=4).mode == "sampled(k=4, seed=42)"
    with pytest.raises(InfeasibleExhaustive):
        inverse_law_check(unstored, "exhaustive")


# -- contragredient ---------------------------------------------------------------


def test_contragredient_flips_side_and_variance():
    s3 = symmetric_group(3)
    f = left_shift(s3)
    h = contragredient(f)
    assert h.side == "right"
    assert h.variance_claim == "contravariant"
    assert check_axioms(h).passed
    assert check_variance(h).verdict == "contravariant"


def test_contragredient_is_an_involution():
    s3 = symmetric_group(3)
    f = left_shift(s3)
    hh = contragredient(contragredient(f))
    assert hh.side == f.side
    for g in s3.store:
        assert transformations_equal(hh.transformation(g), f.transformation(g))


def test_contragredient_rejects_unclassifiable():
    z4 = cyclic_group(4)
    carrier = FiniteCarrier(3)
    crooked = {
        0: [0, 1, 2],
        1: [1, 0, 2],
        2: [0, 2, 1],
        3: [2, 1, 0],
    }
    rep = Representation(
        z4,
        carrier,
        "left",
        lambda g: MappingTransformation(carrier, crooked[g.payload]),
    )
    with pytest.raises(NotCovariant):
        contragredient(rep)


# -- orbits and classification ----------------------------------------------------


def test_orbit_of_triangle_turn():
    rep = rotation_action_of_z6_on_triangle()
    o = orbit(rep, 0)
    assert o.points == (0, 1, 2)
    # first witness in element order for each point
    assert o.witness_for(1).payload == 1
    assert o.witness_for(2).payload == 2
    with pytest.raises(NoSolution):
        o.witness_for(9)


def test_kernel_of_triangle_turn():
    rep = rotation_action_of_z6_on_triangle()
    kernel = kernel_of_inefficiency(rep)
    assert tuple(g.payload for g in kernel) == (0, 3)


def test_classification_of_triangle_turn():
    rep = rotation_action_of_z6_on_triangle()
    result = classify(rep)
    assert result.transitive
    assert not result.effective
    assert not result.single_transitive
    assert result.unique_transport is False
    assert result.uniqueness_agrees


def test_classification_of_left_shift():
    s3 = symmetric_group(3)
    result = classify(left_shift(s3))
    assert result.transitive and result.effective and result.single_transitive
    assert result.unique_transport is True
    assert result.uniqueness_agrees


def test_classify_reports_structure_without_checking_the_laws(monkeypatch):
    import basiskit.representations as representations

    def refused(*args, **kwargs):
        raise AssertionError("classify ran a law check")

    monkeypatch.setattr(representations, "check_axioms", refused)
    monkeypatch.setattr(representations, "check_variance", refused)
    s3 = symmetric_group(3)
    for rep in (left_shift(s3), twin_representation(left_shift(s3))):
        assert classify(rep).single_transitive


def test_orbit_refuses_a_store_above_the_cap():
    rep = left_shift(cyclic_group(5))
    base = rep.group.identity
    with pytest.raises(EnumerationCapExceeded, match="group store of 5 exceeds the cap 4"):
        orbit(rep, base, cap=4)
    assert len(orbit(rep, base, cap=5).points) == 5


def test_orbit_partition_for_intransitive_action():
    rep = swap_action_of_z2()
    report = orbit_well_defined_check(rep)
    assert report.passed
    assert sorted(len(points) for points in report.orbits) == [1, 2]


def test_orbit_partition_for_shift():
    report = orbit_well_defined_check(left_shift(dihedral_group(4)))
    assert report.passed
    assert len(report.orbits) == 1


# -- transport ---------------------------------------------------------------------


def test_solve_transport_for_shift():
    s3 = symmetric_group(3)
    rep = left_shift(s3)
    u, v = s3.element(2), s3.element(5)
    g = solve_transport(rep, u, v)
    # f(g) u = g * u must equal v, and the solution is v u^-1
    assert (g * u).eq_to(v)
    assert g.eq_to(v * u.inverse())


def test_solve_transport_rejects_ambiguity():
    rep = rotation_action_of_z6_on_triangle()
    with pytest.raises(NotSingleTransitive):
        solve_transport(rep, 0, 1)


def test_solve_transport_rejects_unreachable():
    rep = swap_action_of_z2()
    with pytest.raises(NoSolution):
        solve_transport(rep, 0, 2)


# -- twin representation ------------------------------------------------------------


def test_twin_of_left_shift():
    s3 = symmetric_group(3)
    f = left_shift(s3)
    h = twin_representation(f)
    assert h.side == "right"
    assert h.origin.eq_to(s3.identity)
    assert check_axioms(h).passed
    assert commutation_check(f, h).passed
    assert check_variance(h).verdict == "contravariant"


def test_twin_of_right_shift():
    d4 = dihedral_group(4)
    h = right_shift(d4)
    f = twin_representation(h)
    assert f.side == "left"
    assert check_axioms(f).passed
    assert commutation_check(h, f).passed
    # the twin of the right shift is conjugation-free left composition,
    # which matches the left shift pointwise
    g = left_shift(d4)
    for a in d4.store:
        assert transformations_equal(f.transformation(a), g.transformation(a))


def test_twin_needs_single_transitivity():
    rep = rotation_action_of_z6_on_triangle()
    with pytest.raises(NotSingleTransitive):
        twin_representation(rep)


def test_twin_needs_a_unique_transport():
    # S3 on three points is transitive and effective, but the identity and
    # the transposition (1 2) both fix point 0
    s3 = symmetric_group(3)
    rep = permutation_action(s3, symmetric_perms(3))
    summary = classify(rep)
    assert summary.single_transitive and not summary.unique_transport
    with pytest.raises(NotSingleTransitive):
        twin_representation(rep)


def test_a_self_carrier_of_a_stored_group_holds_only_the_stored_elements():
    quarter_turns = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]]
    group = MatrixGroup.general_linear(2, elements=quarter_turns)
    carrier = SelfCarrier(group)
    inside, outside = group.element([[0, -1], [1, 0]]), group.element([[2, 0], [0, 1]])
    assert (carrier.contains(inside), carrier.index(inside)) == (True, 1)
    assert (carrier.contains(outside), carrier.index(outside)) == (False, None)
    assert not ProductCarrier(carrier, FiniteCarrier(2)).contains((outside, 0))
    rep = left_shift(group)
    with pytest.raises(CarrierMismatch, match="^base point .* is not in the carrier$"):
        orbit(rep, outside)
    with pytest.raises(CarrierMismatch, match="^origin .* is not in the carrier$"):
        twin_representation(rep, origin=outside)
    # without a store, every element of the group is a point of its carrier
    unstored = MatrixGroup.general_linear(2)
    assert SelfCarrier(unstored).contains(unstored.element([[2, 0], [0, 1]]))


def test_twin_respects_chosen_origin():
    s3 = symmetric_group(3)
    f = left_shift(s3)
    origin = s3.element(3)
    h = twin_representation(f, origin=origin)
    assert h.origin.eq_to(origin)
    assert check_axioms(h).passed
    assert commutation_check(f, h).passed


@pytest.mark.parametrize(
    "make_group",
    [lambda group=group: group for _, group in finite_fixtures()]
    + [lambda: symmetric_group(4), lambda: symmetric_group(5), b3_closure, lambda: so2_closure(12)],
    ids=[name for name, _ in finite_fixtures()] + ["S4", "S5", "B3-closure", "SO2-order12"],
)
def test_the_twin_of_a_shift_at_the_identity_is_the_opposite_shift(make_group):
    group = make_group()
    for shift, opposite in ((left_shift, right_shift), (right_shift, left_shift)):
        twin = twin_representation(shift(group), origin=group.identity)
        assert twin.side == opposite(group).side
        assert twin._action_table() == opposite(group)._action_table()


@pytest.mark.parametrize(
    "make_group, abelian",
    [(lambda: symmetric_group(5), False), (b3_closure, False), (lambda: so2_closure(12), True)],
    ids=["S5", "B3-closure", "SO2-order12"],
)
def test_the_twin_and_the_witness_read_the_product_table(make_group, abelian, monkeypatch):
    group = make_group()
    f = left_shift(group)  # reads every row of the table
    products = []
    compose_elements = type(group).compose_elements

    def counted(self, a, b):
        products.append((a, b))
        return compose_elements(self, a, b)

    monkeypatch.setattr(type(group), "compose_elements", counted)
    twin_representation(f)._action_table()
    assert products == []
    w = same_side_noncommuting_witness(group)
    # the one product formed is the conjugate b a b^-1
    assert (w is None) == abelian
    assert len(products) == (not abelian)
    monkeypatch.undo()
    if w is not None:
        pairs = itertools.product(group.store, repeat=2)
        first = next((a, b) for a, b in pairs if not (a * b).eq_to(b * a))
        assert (w.a, w.b) == first
        assert w.same_side_value.eq_to(w.a * w.b) and w.required_value.eq_to(w.b * w.a)
        assert w.conjugate.eq_to(w.b * w.a * w.b.inverse())


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_twin_refuses_a_store_that_is_not_closed(side):
    # R90 squared is -I, which is not stored; the two points are swapped by R90
    r90 = [[0, -1], [1, 0]]
    group = MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], r90])
    carrier = FiniteCarrier(2)
    rows = [[0, 1], [1, 0]]
    rep = Representation(
        group, carrier, side, lambda g: MappingTransformation(carrier, rows[group.index_of(g)])
    )
    assert classify(rep).single_transitive and classify(rep).unique_transport
    with pytest.raises(CarrierMismatch, match="product of stored elements 1 and 1 lies outside"):
        twin_representation(rep)


# -- the same-side obstruction -------------------------------------------------------


def test_no_witness_on_abelian_groups():
    assert same_side_noncommuting_witness(cyclic_group(6)) is None


def test_witness_structure_on_s3():
    s3 = symmetric_group(3)
    w = same_side_noncommuting_witness(s3)
    assert w is not None
    assert not (w.a * w.b).eq_to(w.b * w.a)
    assert w.same_side_value.eq_to(w.a * w.b)
    assert w.required_value.eq_to(w.b * w.a)
    assert w.point.eq_to(w.b)
    assert w.origin.eq_to(s3.identity)
    assert w.conjugate.eq_to(w.b * w.a * w.b.inverse())
    # first noncommuting pair in element order
    for a in s3.store:
        for b in s3.store:
            if not (a * b).eq_to(b * a):
                assert w.a.eq_to(a) and w.b.eq_to(b)
                return


def test_the_witness_refuses_a_store_that_is_not_closed():
    # swap times diag(-1, 1) is not stored; two missing products are not an equal pair
    swap, flip = [[0, 1], [1, 0]], [[-1, 0], [0, 1]]
    group = MatrixGroup.general_linear(2, elements=[[[1, 0], [0, 1]], swap, flip])
    with pytest.raises(CarrierMismatch, match="product of stored elements 1 and 2 lies outside"):
        same_side_noncommuting_witness(group)


def test_witness_pins_down_the_conjugate():
    """The transformation forced at the witness point really is the conjugate.

    Any map commuting with all left shifts must send ``b`` to ``b a``;
    acting with the same-side rule sends it to ``a b`` instead, and the
    element realising the required value by left action is ``b a b^-1``.
    """
    s3 = symmetric_group(3)
    w = same_side_noncommuting_witness(s3)
    assert (w.conjugate * w.point).eq_to(w.required_value)


# -- products ------------------------------------------------------------------------


def test_direct_product_action():
    z2 = cyclic_group(2)
    rep = direct_product(left_shift(z2), left_shift(z2))
    assert check_axioms(rep).passed
    assert classify(rep).effective
    e, a = z2.store
    moved = rep.apply(a, (e, e))
    assert moved[0].eq_to(a) and moved[1].eq_to(a)


def test_direct_product_requires_matching_sides():
    z2 = cyclic_group(2)
    with pytest.raises(SideMismatch):
        direct_product(left_shift(z2), right_shift(z2))


def test_compose_transformations_row_layout_order():
    carrier = CoordCarrier(2, "row", EXACT)
    a = LinearTransformation(carrier, Matrix.from_rows([[1, 1], [0, 1]], EXACT))
    b = LinearTransformation(carrier, Matrix.from_rows([[2, 0], [0, 1]], EXACT))
    combined = compose_transformations(a, b)
    u = (F(1), F(1))
    assert combined.apply(u) == a.apply(b.apply(u))


def test_compose_transformations_column_layout_order():
    # the column layout multiplies points from the left: the grid of
    # ``a after b`` is ``a b``, which here is not ``b a``
    carrier = CoordCarrier(2, "column", EXACT)
    a = LinearTransformation(carrier, Matrix.from_rows([[1, 1], [0, 1]], EXACT))
    b = LinearTransformation(carrier, Matrix.from_rows([[2, 0], [0, 1]], EXACT))
    combined = compose_transformations(a, b)
    assert combined.grid == a.grid.mul(b.grid) != b.grid.mul(a.grid)
    u = (F(1), F(1))
    assert combined.apply(u) == a.apply(b.apply(u))


def test_a_pair_transformation_inverts_each_part():
    z3 = cyclic_group(3)
    rep = direct_product(left_shift(z3), left_shift(z3))
    g = z3.element(1)
    inverse = rep.transformation(g).inverted()
    assert isinstance(inverse, PairTransformation)
    assert transformations_equal(inverse, rep.transformation(z3.inverse_element(g)))
    for p in rep.carrier.points():
        assert inverse.apply(rep.apply(g, p)) == p


# -- action tables against the generic path ---------------------------------------
#
# A finite group acting through mappings is checked on the table of their
# integer rows.  Wrapping the same assignment in opaque
# FunctionTransformations (with an explicit inverse) leaves it without a
# table, so every check takes the generic path; both must return
# identical verdicts, witnesses included.


def opaque(rep):
    def assign(g):
        t = rep.transformation(g)
        return FunctionTransformation(rep.carrier, t.apply, t.inverted().apply)

    return Representation(rep.group, rep.carrier, rep.side, assign, label=rep.label)


def permutation_action(group, perms, side="left", points=None):
    """Element ``i`` moves point ``x`` to ``perms[i][x]``."""
    carrier = FiniteCarrier(points or len(perms[0]))

    def assign(g):
        perm = perms[g.payload]
        return MappingTransformation(
            carrier, [perm[x] if x < len(perm) else x for x in range(carrier.size)]
        )

    return Representation(group, carrier, side, assign, label="natural")


def symmetric_perms(n):
    return list(itertools.permutations(range(n)))


def dihedral_perms(n):
    return [tuple((x + k) % n for x in range(n)) for k in range(n)] + [
        tuple((k - x) % n for x in range(n)) for k in range(n)
    ]


def three_cycle_of_z2():
    """Z2 assigned a 3-cycle: f(1)f(1) is not f(0), so orbits computed from
    different points differ (0 reaches {0, 1}, 1 reaches {1, 2})."""
    z2 = cyclic_group(2)
    carrier = FiniteCarrier(3)
    cycle = [1, 2, 0]

    def assign(g):
        return MappingTransformation(carrier, cycle if g.payload else [0, 1, 2])

    return Representation(z2, carrier, "left", assign, label="three-cycle")


def table_fixture_builders():
    """``(name, build)`` of each table fixture.  Nothing is built at import:
    a contragredient runs the variance check, and a fault there must fail
    the tests that use it, not the collection of this module."""
    builders = []
    for name, group in finite_fixtures():
        builders += [
            (f"{name}/left-shift", lambda g=group: left_shift(g)),
            (f"{name}/right-shift", lambda g=group: right_shift(g)),
            (f"{name}/contragredient-left", lambda g=group: contragredient(left_shift(g))),
            (f"{name}/contragredient-right", lambda g=group: contragredient(right_shift(g))),
        ]
    for name, group in (("S3", symmetric_group(3)), ("D4", dihedral_group(4))):
        builders += [
            (f"{name}/twin-left", lambda g=group: twin_representation(left_shift(g))),
            (f"{name}/twin-right", lambda g=group: twin_representation(right_shift(g))),
        ]
    s4, d5, d6 = symmetric_group(4), dihedral_group(5), dihedral_group(6)
    # matrix groups: a shift's rows are read through the store's point index
    builders += [
        ("GL2-D4/left-shift", lambda: left_shift(d4_matrix_closure())),
        ("SO2-order12/right-shift", lambda: right_shift(so2_closure(12))),
    ]
    builders += [
        ("S4/natural", lambda: permutation_action(s4, symmetric_perms(4))),
        ("D5/natural", lambda: permutation_action(d5, dihedral_perms(5))),
        ("D6/natural", lambda: permutation_action(d6, dihedral_perms(6))),
    ]
    # planted failures
    perms = symmetric_perms(4)
    swapped = list(perms)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    inverted = [perms[s4.inverses[i]] for i in range(s4.order)]
    s3 = symmetric_group(3)
    builders += [
        ("S4/swapped-rows", lambda: permutation_action(s4, swapped)),
        ("S4/antihomomorphic", lambda: permutation_action(s4, inverted)),
        ("S4/natural-claimed-right", lambda: permutation_action(s4, perms, "right")),
        ("S3/not-transitive", lambda: permutation_action(s3, symmetric_perms(3), points=5)),
        ("Z6/not-effective", rotation_action_of_z6_on_triangle),
        ("Z2/swap", swap_action_of_z2),
        ("Z2/not-an-action", three_cycle_of_z2),
    ]
    return builders


TABLE_FIXTURE_BUILDERS = dict(table_fixture_builders())


@functools.cache
def table_fixture(name):
    """The table fixture ``name``, built on first use."""
    return TABLE_FIXTURE_BUILDERS[name]()


@pytest.fixture(params=list(TABLE_FIXTURE_BUILDERS), ids=list(TABLE_FIXTURE_BUILDERS))
def compiled_and_generic(request):
    rep = table_fixture(request.param)
    generic = opaque(rep)
    assert rep._action_table() is not None
    assert generic._action_table() is None
    return rep, generic


def test_table_axioms_match_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    for sample in ("auto", "exhaustive"):
        assert check_axioms(rep, sample) == check_axioms(generic, sample)
    for samples, seed in ((60, 0), (60, 7), (60, 42), (0, 1)):
        fast = check_axioms(rep, "sampled", samples=samples, seed=seed)
        assert fast == check_axioms(generic, "sampled", samples=samples, seed=seed)


def test_table_variance_matches_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    assert check_variance(rep, "exhaustive") == check_variance(generic, "exhaustive")
    for seed in (0, 7):
        fast = check_variance(rep, "sampled", samples=40, seed=seed)
        assert fast == check_variance(generic, "sampled", samples=40, seed=seed)


def test_one_pass_matches_generic_and_its_two_views(compiled_and_generic):
    # integer rows and opaque maps give the same pass, exhaustive and
    # sampled, and each view is its half of the pass
    rep, generic = compiled_and_generic
    for plan in (("auto",), ("exhaustive",), ("sampled", 40, 0), ("sampled", 40, 7)):
        laws = check_laws(rep, *plan)
        assert check_laws(generic, *plan) == laws
        assert (check_axioms(rep, *plan), check_variance(rep, *plan)) == laws


def test_table_inverse_law_and_kernel_match_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    assert inverse_law_check(rep) == inverse_law_check(generic)
    assert kernel_of_inefficiency(rep) == kernel_of_inefficiency(generic)


def test_table_sampled_inverse_law_matches_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    for seed in (0, 7):
        fast = inverse_law_check(rep, "sampled", samples=20, seed=seed)
        assert fast == inverse_law_check(generic, "sampled", samples=20, seed=seed)


def test_table_orbits_match_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    for point in rep.carrier.points():
        assert orbit(rep, point) == orbit(generic, point)
    assert orbit_well_defined_check(rep) == orbit_well_defined_check(generic)


def test_table_classification_matches_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    assert classify(rep) == classify(generic)


def test_planted_failures_are_caught():
    for name in ("S4/swapped-rows", "S4/antihomomorphic", "S4/natural-claimed-right"):
        assert not check_axioms(table_fixture(name)).passed
    assert check_variance(table_fixture("S4/antihomomorphic")).verdict == "contravariant"
    assert check_variance(table_fixture("S4/swapped-rows")).verdict == "neither"
    assert not classify(table_fixture("S3/not-transitive")).transitive
    assert not classify(table_fixture("Z6/not-effective")).effective
    partition = orbit_well_defined_check(table_fixture("Z2/not-an-action"))
    assert partition.counterexample == ("orbit-mismatch", 0, 1)


def test_variance_counts_the_pairs_it_ran():
    # "neither" is settled once both halves have failed, and the count
    # stops there, exhaustive or sampled
    rep = table_fixture("S4/swapped-rows")
    exhaustive = check_variance(rep)
    assert (exhaustive.verdict, exhaustive.checked) == ("neither", 3)
    assert exhaustive.checked == variance_pairs_run(rep, generator_elements(rep.group))
    # sampled variance runs the pair (a, b) of each triple (a, b, u) that
    # the side law draws
    sampled = check_variance(rep, "sampled", samples=200, seed=3)
    rng, f, failed = Random(3), rep.transformation, {}
    for n in range(1, 201):
        a, b = sample_group_element(rep.group, rng), sample_group_element(rep.group, rng)
        rep.carrier.sample(rng)
        product = compose_transformations(f(a), f(b))
        for half, ab in (("homo", a * b), ("anti", b * a)):
            if not transformations_equal(f(ab), product):
                failed.setdefault(half, (n, (a, b)))
    (n_homo, homo), (n_anti, anti) = failed["homo"], failed["anti"]
    assert (sampled.verdict, sampled.checked) == ("neither", max(n_homo, n_anti))
    assert (sampled.homomorphism_witness, sampled.antihomomorphism_witness) == (homo, anti)
    assert sampled.checked < 200


def test_single_transitivity_witnesses_an_unreachable_pair():
    rep = table_fixture("S3/not-transitive")
    verdict = single_transitivity_check(rep)
    assert not verdict.passed
    assert verdict.counterexample == ("unreachable", 0, 3)


def test_single_transitivity_witnesses_a_kernel_element():
    rep = table_fixture("Z6/not-effective")
    verdict = single_transitivity_check(rep)
    assert not verdict.passed
    assert verdict.counterexample == ("kernel", rep.group.store[3])


def test_single_transitivity_witnesses_a_pair_with_two_transports():
    # S3 on three points is transitive and effective, yet the identity and
    # the transposition (1 2) both carry 0 to 0
    s3 = symmetric_group(3)
    rep = permutation_action(s3, symmetric_perms(3))
    summary = classify(rep)
    assert summary.transitive and summary.effective
    verdict = single_transitivity_check(rep)
    assert not verdict.passed
    assert verdict.counterexample == ("transports", 0, 0, (s3.store[0], s3.store[1]))
    assert all(rep.apply(g, 0) == 0 for g in verdict.counterexample[3])


def test_single_transitivity_counts_transports_that_classify_leaves_out():
    # D80 on the 80 vertices of its polygon is transitive and effective,
    # but each reflection fixes a vertex; |X|^2 |G| = 1,024,000 is over the
    # cap that used to keep classify from counting transports, and the
    # count, at |X| |G|, now runs whatever the size
    d80 = dihedral_group(80)
    rep = permutation_action(d80, dihedral_perms(80))
    summary = classify(rep)
    assert summary.single_transitive
    assert summary.unique_transport is False
    assert summary.uniqueness_agrees is False
    verdict = single_transitivity_check(rep)
    assert not verdict.passed
    assert verdict.counterexample == ("transports", 0, 0, (d80.store[0], d80.store[80]))


def test_single_transitivity_passes_on_every_shift():
    for _, group in finite_fixtures():
        for shift in (left_shift(group), right_shift(group)):
            assert single_transitivity_check(shift) == Verdict(
                True,
                "exhaustive",
                detail="orbit reaches every element and the kernel is trivial",
            )


def test_table_single_transitivity_matches_generic(compiled_and_generic):
    rep, generic = compiled_and_generic
    assert single_transitivity_check(rep) == single_transitivity_check(generic)


SELFTEST_GOLDEN = Path(__file__).parent / "golden" / "selftest_seed42.json"


def test_same_side_witness_check_passes_on_s3_with_the_golden_witness():
    verdict = same_side_witness_check(symmetric_group(3))
    golden = json.loads(SELFTEST_GOLDEN.read_text(encoding="utf-8"))
    (line,) = [c for c in golden["checks"] if c["name"] == "S3/same-side-witness"]
    assert verdict.passed
    assert json.loads(json.dumps(to_jsonable(verdict.counterexample))) == line["counterexample"]
    assert verdict.detail == line["detail"]


def test_same_side_witness_check_fails_on_an_abelian_group():
    verdict = same_side_witness_check(cyclic_group(4))
    assert not verdict.passed
    assert verdict.counterexample is None


def test_shift_tables_are_read_off_the_cayley_table(monkeypatch):
    # row a of the table on the left, column a on the right, without a
    # single product of elements
    def refused(self, a, b):
        raise AssertionError("a shift row was built from products")

    monkeypatch.setattr(FiniteGroup, "compose_elements", refused)
    for _, group in finite_fixtures():
        mul = [list(row) for row in group.table]
        assert left_shift(group)._action_table() == mul
        assert right_shift(group)._action_table() == [list(col) for col in zip(*mul)]


# -- the laws on generators ----------------------------------------------------------
#
# On a group with generators over an exact carrier the side law and variance
# run the pairs (a, s), s a generator; a float store has none and runs all
# pairs.  The oracles below run the laws one case at a time, on all pairs or
# on the pairs with a generator second, by direct evaluation.


def generator_elements(group):
    """The generators as elements; every stored element for a group without them."""
    if group.generators is None:
        return list(group.store)
    return [group.store[s] for s in group.generators]


def pair_mode(group):
    """The mode of an exhaustive pass over the pairs of ``group``."""
    if group.generators is None:
        return "exhaustive"
    return f"exhaustive(generators={len(group.generators)})"


def side_law_holds(rep, a, b, u):
    outer, inner = (a, b) if rep.side == "left" else (b, a)
    return rep.apply(a * b, u) == rep.apply(outer, rep.apply(inner, u))


def side_law_oracle(rep, seconds):
    """The first ``(a, b, u)`` with ``b`` in ``seconds`` that breaks the side
    law, in enumeration order, and the number of cases run up to it."""
    cases = list(itertools.product(rep.group.store, seconds, rep.carrier.points()))
    for i, (a, b, u) in enumerate(cases):
        if not side_law_holds(rep, a, b, u):
            return (a, b, u), i + 1
    return None, len(cases)


def variance_oracle(rep, seconds):
    """``(homomorphism holds, antihomomorphism holds)`` on the pairs with ``b``
    in ``seconds``, comparing ``f(ab)`` and ``f(ba)`` with ``f(a) f(b)``."""
    f = rep.transformation
    pairs = list(itertools.product(rep.group.store, seconds))
    product = {(a, b): compose_transformations(f(a), f(b)) for a, b in pairs}
    return (
        all(transformations_equal(f(a * b), product[a, b]) for a, b in pairs),
        all(transformations_equal(f(b * a), product[a, b]) for a, b in pairs),
    )


def variance_pairs_run(rep, seconds):
    """How many pairs ``(a, b)``, ``b`` in ``seconds``, variance runs: all of
    them, or up to the first at which both halves have failed."""
    f, homo, anti = rep.transformation, True, True
    pairs = list(itertools.product(rep.group.store, seconds))
    for n, (a, b) in enumerate(pairs, 1):
        product = compose_transformations(f(a), f(b))
        homo = homo and transformations_equal(f(a * b), product)
        anti = anti and transformations_equal(f(b * a), product)
        if not (homo or anti):
            return n
    return len(pairs)


def test_reduced_side_law_agrees_with_all_pairs(compiled_and_generic):
    rep, generic = compiled_and_generic
    group = rep.group
    gens = generator_elements(group)
    verdict, _ = check_laws(rep)
    assert verdict.mode == pair_mode(group)
    assert check_axioms(generic) == verdict
    assert verdict.passed == (side_law_oracle(rep, group.store)[0] is None)
    witness, cases = side_law_oracle(rep, gens)
    assert (verdict.counterexample, verdict.checked) == (witness, 1 + cases)
    if witness is not None:
        a, s, u = witness
        assert s.payload in group.generators
        assert not side_law_holds(rep, a, s, u)


def test_reduced_variance_agrees_with_all_pairs(compiled_and_generic):
    rep, generic = compiled_and_generic
    group = rep.group
    gens = generator_elements(group)
    _, verdict = check_laws(rep)
    assert (verdict.mode, verdict.checked) == (pair_mode(group), variance_pairs_run(rep, gens))
    assert check_variance(generic) == verdict
    full = variance_oracle(rep, group.store)
    assert variance_oracle(rep, gens) == full
    names = {(True, True): "both", (True, False): "covariant",
             (False, True): "contravariant", (False, False): "neither"}
    assert verdict.verdict == names[full]
    f = rep.transformation
    if verdict.homomorphism_witness is not None:
        a, s = verdict.homomorphism_witness
        assert not transformations_equal(f(a * s), compose_transformations(f(a), f(s)))
    if verdict.antihomomorphism_witness is not None:
        a, s = verdict.antihomomorphism_witness
        assert not transformations_equal(f(s * a), compose_transformations(f(a), f(s)))


def test_a_float_self_shift_agrees_with_the_point_by_point_oracle():
    # a float store has no generators, so the pass runs all 900 pairs of
    # the right shift of an order-30 closure, comparing whole rows; the
    # oracle evaluates the 27,000 triples one point at a time
    so2 = MatrixGroup.metric_preserving(2, 0)
    so2.close_over([rotation_2d(2 * math.pi / 30)])
    h = right_shift(so2)
    moved = so2.store[4]
    planted = Representation(
        so2, h.carrier, "right", lambda g: h.transformation(moved if so2.index_of(g) == 3 else g)
    )
    for rep in (h, planted):
        axioms, variance = check_laws(rep)
        witness, cases = side_law_oracle(rep, so2.store)
        assert (axioms.mode, axioms.checked) == ("exhaustive", 1 + cases)
        assert (axioms.counterexample, axioms.residual_max) == (witness, None)
        names = {(True, True): "both", (False, False): "neither"}
        assert variance.verdict == names[variance_oracle(rep, so2.store)]
        assert variance.checked == variance_pairs_run(rep, so2.store)
    assert axioms.counterexample is not None and variance.checked < 900


def exact_closed_matrix_stores():
    quarter, flip = [[0, -1], [1, 0]], [[1, 0], [0, -1]]
    d4 = MatrixGroup.general_linear(2)
    d4.close_over([quarter, flip])
    perms = sorted(itertools.permutations(range(3)))
    s3 = MatrixGroup.general_linear(3, elements=[permutation_matrix(p) for p in perms])
    return {"d4-closure": d4, "s3-stored": s3}


@pytest.mark.parametrize("name", ["d4-closure", "s3-stored"])
@pytest.mark.parametrize("shift, side", [(left_shift, "left"), (right_shift, "right"),
                                         (left_shift, "right"), (right_shift, "left")])
def test_reduced_laws_of_an_exact_matrix_store_agree_with_all_pairs(name, shift, side):
    # a closed exact store has generators too; its shifts, and the shifts
    # put on the wrong side, are decided on the pairs (a, s)
    group = exact_closed_matrix_stores()[name]
    gens = generator_elements(group)
    proper = shift(group)
    rep = Representation(group, proper.carrier, side, proper.transformation)
    verdict = check_axioms(rep)
    assert verdict.mode == f"exhaustive(generators={len(gens)})"
    assert verdict.passed == (side_law_oracle(rep, group.store)[0] is None)
    witness, cases = side_law_oracle(rep, gens)
    assert (verdict.counterexample, verdict.checked) == (witness, 1 + cases)
    if witness is not None:
        a, s, u = witness
        assert group.index_of(s) in group.generators
        assert not side_law_holds(rep, a, s, u)
    variance = check_variance(rep)
    assert (variance.mode, variance.checked) == (
        f"exhaustive(generators={len(gens)})", len(group.store) * len(gens)
    )
    assert variance_oracle(rep, gens) == variance_oracle(rep, group.store)
    names = {(True, True): "both", (True, False): "covariant",
             (False, True): "contravariant", (False, False): "neither"}
    assert variance.verdict == names[variance_oracle(rep, group.store)]


def coset_twisted_action(group, dropped):
    """A left action of ``group`` that is a homomorphism on the pairs
    ``(a, t)`` for every generator ``t`` except ``generators[dropped]``,
    and breaks the side law on some pair with it.

    ``H`` is the subgroup the other generators reach.  The carrier is the
    group's indices plus three points; ``f(x)`` is the left shift by ``x``
    on the indices and turns the three points by the 3-cycle ``c`` when
    ``x`` lies outside ``H``.  So ``f(x t) = f(x) f(t)`` for ``t`` in ``H``,
    while for ``a, s`` outside ``H`` the right side turns by ``c^2`` and the
    left side by ``c`` or not at all.  Returns ``None`` when the other
    generators reach the whole group.
    """
    mul, e, n = group.table, group.identity_index, group.order
    kept = [t for i, t in enumerate(group.generators) if i != dropped]
    subgroup, frontier = {e}, [e]
    while frontier:
        frontier = [mul[x][t] for x in frontier for t in kept if mul[x][t] not in subgroup]
        subgroup.update(frontier)
    if len(subgroup) == n:
        return None
    carrier = FiniteCarrier(n + 3)
    fixed, turned = [n, n + 1, n + 2], [n + 1, n + 2, n]

    def assign(g):
        x = g.payload
        return MappingTransformation(carrier, [*mul[x], *(fixed if x in subgroup else turned)])

    return Representation(group, carrier, "left", assign, label=f"twisted-{dropped}")


COSET_GROUPS = [*finite_fixtures(), ("S4", symmetric_group(4)), ("D6", dihedral_group(6))]


@pytest.mark.parametrize("name, group", COSET_GROUPS, ids=[n for n, _ in COSET_GROUPS])
def test_every_generator_is_needed_to_catch_a_coset_twist(name, group):
    # a sweep that left out one generator would pass the action that is
    # twisted along it; the reduced sweep fails it, with a real witness
    twisted = [coset_twisted_action(group, k) for k in range(len(group.generators))]
    assert any(rep is not None for rep in twisted)
    for k, rep in enumerate(twisted):
        if rep is None:
            continue
        kept = [s for i, s in enumerate(generator_elements(group)) if i != k]
        assert side_law_oracle(rep, kept)[0] is None
        assert side_law_oracle(rep, group.store)[0] is not None
        for checked in (rep, opaque(rep)):
            verdict = check_axioms(checked)
            assert not verdict.passed
            a, s, u = verdict.counterexample
            assert s.payload == group.generators[k]
            assert not side_law_holds(rep, a, s, u)
            assert check_variance(checked).homomorphism_witness[1] == s


def test_reduced_sweep_of_a_right_action_composes_on_the_right():
    # the right shift of S3 holds; the same maps claimed on the left fail
    # at the first pair (a, s) that does not commute
    s3 = symmetric_group(3)
    h = right_shift(s3)
    assert check_axioms(h).passed
    claimed = Representation(s3, h.carrier, "left", h.transformation)
    verdict = check_axioms(claimed)
    witness, cases = side_law_oracle(claimed, generator_elements(s3))
    assert (verdict.passed, verdict.counterexample, verdict.checked) == (False, witness, 1 + cases)
    a, s, _ = witness
    assert a * s != s * a


def test_float_carriers_keep_all_pairs():
    # a tolerance grows with the word length, so a finite group over float
    # coordinates is not reduced to its generators
    z4 = cyclic_group(4)
    carrier = CoordCarrier(2, "column", approx(1e-9))
    quarter = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]], carrier.backend)
    powers = [Matrix.identity(2, carrier.backend)]
    for _ in range(3):
        powers.append(quarter.mul(powers[-1]))
    rep = Representation(z4, carrier, "left", lambda g: LinearTransformation(carrier, powers[g.payload]))
    assert check_axioms(rep, samples=30, seed=2).mode == "sampled(k=30, seed=2)"
    assert check_variance(rep, samples=30, seed=2).mode == "sampled(k=30, seed=2)"


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        cyclic_group(6),
        d4_matrix_closure(),
        so2_closure(12),
    ],
    ids=["S3", "D4", "Q8", "Z6", "GL2-D4", "SO2-order12"],
)
def test_table_commutation_matches_generic(group):
    f = left_shift(group)
    for h in (twin_representation(f), f):
        assert commutation_check(f, h) == commutation_check(opaque(f), opaque(h))
    assert commutation_check(f, twin_representation(f)).passed
    # same-side shifts commute only on an abelian group
    abelian = same_side_noncommuting_witness(group) is None
    assert commutation_check(f, f).passed == abelian


def test_a_sampled_float_repcheck_looks_up_four_transformations_per_triple(capsys, monkeypatch):
    # f(a), f(b), f(ab) and f(ba): the side law and variance read one f(a)
    # and one f(b), where looking them up for each would take six
    import basiskit.cli as cli

    golden = Path(__file__).parent / "golden" / "float"
    job = json.loads((golden / "expected.json").read_text(encoding="utf-8"))["so2_order36_repcheck"]
    argv = [str(golden / a) if a.endswith(".json") else a for a in job["argv"]]
    assert argv[argv.index("--samples") + 1] == "200"
    calls, inside, laws, transformation = [0], [False], cli.check_laws, Representation.transformation

    def counted_laws(*args, **kwargs):
        inside[0] = True
        try:
            return laws(*args, **kwargs)
        finally:
            inside[0] = False

    def counted(self, g):
        calls[0] += inside[0]
        return transformation(self, g)

    monkeypatch.setattr(cli, "check_laws", counted_laws)
    monkeypatch.setattr(Representation, "transformation", counted)
    assert cli.main(argv) == job["rc"]
    assert capsys.readouterr() == (job["stdout"], "")
    # one check_laws pass over 200 sampled triples
    assert calls[0] == 4 * 200


def two_pass_residual(carrier, x, y):
    """The residual of two points measured apart from ``point_eq``: the
    backend's for float coordinates, ``inf`` for unequal lengths, the
    worse of the two parts of a pair, ``None`` where none is measured."""
    if isinstance(carrier, CoordCarrier) and not carrier.backend.is_exact:
        try:
            return carrier.backend.compare(x, y)[1]
        except DimensionMismatch:
            return math.inf
    if isinstance(carrier, ProductCarrier):
        parts = [
            r
            for r in (two_pass_residual(carrier.left, x[0], y[0]), two_pass_residual(carrier.right, x[1], y[1]))
            if r is not None
        ]
        return max(parts) if parts else None
    return None


def test_point_compare_is_point_eq_and_the_residual_in_one_pass():
    # bit for bit, on float and exact coordinates, a product with a finite
    # carrier, and points of unequal lengths
    tol = 1e-9
    backend = approx(tol)
    pool = [0.0, -0.0, 1.0, 1.0 + tol, math.nextafter(1.0 + tol, 2.0), math.inf, -math.inf, math.nan]
    rng = Random(5)
    coords = CoordCarrier(2, "row", backend)
    product = ProductCarrier(coords, FiniteCarrier(3))
    both = ProductCarrier(coords, CoordCarrier(3, "row", backend))
    exact = CoordCarrier(2, "row", EXACT)
    cases = [
        (coords, (1.0, 2.0), (1.0,)),
        (exact, (F(1), F(2)), (F(1), F(3))),
        (exact, (F(1), F(2)), (F(1), F(2))),
    ]
    for _ in range(500):
        x, y = [tuple(rng.choice(pool) for _ in range(2)) for _ in range(2)]
        z, w = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(2)]
        k, m = rng.randrange(3), rng.randrange(3)
        cases += [(coords, x, y), (product, (x, k), (y, m)), (both, (x, z), (y, w))]
    hexed = lambda r: None if r is None else r.hex()
    for carrier, p, q in cases:
        holds, residual = _point_compare(carrier, p, q)
        assert (holds, hexed(residual)) == (carrier.point_eq(p, q), hexed(two_pass_residual(carrier, p, q)))
    assert _point_compare(coords, (1.0, 2.0), (1.0,)) == (False, math.inf)


def test_the_sampled_side_law_keeps_the_carrier_checks_on_the_middle_point():
    # f(1) sends a coordinate pair out of the carrier; the first triple that
    # steps through it raises, as Representation.apply does
    z2 = cyclic_group(2)
    carrier = CoordCarrier(2, "row", approx(1e-9))
    identity = LinearTransformation(carrier, Matrix.identity(2, carrier.backend))
    grow = FunctionTransformation(carrier, lambda p: p + (0.0,))
    rep = Representation(z2, carrier, "left", lambda g: grow if g.payload else identity)
    with pytest.raises(CarrierMismatch, match=r"^point \(.*, 0\.0\) is not in the carrier$"):
        check_axioms(rep, "sampled", 50, 3)


# -- the point index behind orbits ----------------------------------------------


def shear_orbit(base, shifts, tolerance):
    """The orbit of a column point under the stored shears
    ``[[1, s, 0], [0, 1, 0], [0, 0, k]]``: the point ``(x, 1, 0)`` goes to
    ``(x + s, 1, 0)``.  Each shear has its own ``k``, so the stored
    elements stay distinct however close their shifts are."""
    backend = approx(tolerance)
    elements = [
        [[1.0, s, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, float(k)]]
        for k, s in enumerate((0.0, *shifts), start=1)
    ]
    group = MatrixGroup.general_linear(3, backend, elements=elements)
    carrier = CoordCarrier(3, "column", backend)
    rep = Representation(group, carrier, "left", lambda g: LinearTransformation(carrier, g.payload))
    return orbit(rep, (base, 1.0, 0.0))


def test_orbit_dedupes_equal_points_in_adjacent_cells():
    # cells are four tolerances wide: x and x + 4e-10 lie on either side of
    # the cell boundary at 1e-6 but within the tolerance of each other
    x, s = 1e-6 - 2e-10, 4e-10
    assert math.floor(x / 4e-9) + 1 == math.floor((x + s) / 4e-9)
    o = shear_orbit(x, [s], 1e-9)
    assert len(o.points) == 1
    assert o.witness_for((x + s, 1.0, 0.0)) == o.witnesses[0][1]
    assert len(shear_orbit(x, [3 * s], 1e-9).points) == 2


def test_orbit_lookup_returns_the_first_equal_point():
    # two orbit points 1.5 tolerances apart, the second in the cell below
    # the first; a point between them equals both
    x = 1e-6 + 0.5e-9
    o = shear_orbit(x, [-1.5e-9], 1e-9)
    assert len(o.points) == 2
    (p, first), (q, second) = o.witnesses
    assert math.floor(p[0] / 4e-9) == math.floor(q[0] / 4e-9) + 1
    assert o.witness_for((x - 0.75e-9, 1.0, 0.0)) is first
    assert o.witness_for((x - 1.6e-9, 1.0, 0.0)) is second
    assert not o.contains((x - 2.6e-9, 1.0, 0.0))


def test_orbit_cells_past_the_rounding_limit_are_exact():
    # here x / (4 * 1e-9) rounds up to the next integer in floats
    x = 43073491.65695036
    exact = Fraction(x) // Fraction(4e-9)
    assert math.floor(x / 4e-9) == exact + 1
    assert PointIndex(None, None, 1e-9)._cell(x) == exact
    # with tolerance 2**-10 the cells are 2**-8 wide, so entries from 2**42
    # on have cell coordinates of at least 2**50; 2**42 - 2**-11 still
    # rounds, into the cell below, and equals 2**42 within the tolerance
    tol, x = 2.0**-10, 2.0**42
    index = PointIndex(None, None, tol)
    assert index._cell(x) == 2**50
    assert index._cell(math.nextafter(x, 0)) == 2**50 - 1
    assert len(shear_orbit(x, [-(2.0**-11), 2.0**-10], tol).points) == 1
    assert len(shear_orbit(x, [2 * 2.0**-10], tol).points) == 2


def test_orbit_of_product_and_self_carrier_points_over_a_matrix_group():
    so2 = MatrixGroup.metric_preserving(2, 0)
    so2.close_over([rotation_2d(2 * math.pi / 12)])
    carrier = CoordCarrier(2, "column", so2.backend)
    linear = Representation(so2, carrier, "left", lambda g: LinearTransformation(carrier, g.payload))
    shift = left_shift(so2)
    assert orbit_well_defined_check(shift).orbits == (so2.store,)
    both = direct_product(linear, shift)
    base = ((1.0, 0.5), so2.identity)
    o = orbit(both, base)
    assert len(o.points) == 12
    for (v, h), g in o.witnesses:
        assert h.eq_to(g)
        # a point within the tolerance of an orbit point finds its witness
        near = ((v[0] + 5e-10, v[1]), h)
        assert o.witness_for(near) is g
    assert not o.contains(((1.0, 0.5 + 1e-6), so2.identity))
    assert orbit_closure_check(both, o).passed


def test_shift_of_a_float_closure_sends_stored_elements_to_stored_elements():
    so2 = MatrixGroup.metric_preserving(2, 0)
    so2.close_over([rotation_2d(2 * math.pi / 12)])
    f = left_shift(so2)
    assert check_axioms(f).passed
    for a in so2.store:
        for b in so2.store:
            image = f.apply(a, b)
            # the stored representative of the product, not the product
            assert image is so2.store[so2.index_of(a * b)]
            assert image.eq_to(a * b)


def test_orbit_closure_check_witnesses_a_re_enumeration_of_another_size():
    # not an action: the nontrivial element sends both points to 1, so the
    # orbit of 0 is {0, 1} but the orbit of 1 is {1}
    z2 = cyclic_group(2)
    carrier = FiniteCarrier(2)
    maps = [lambda p: p, lambda p: 1]
    rep = Representation(z2, carrier, "left", lambda g: FunctionTransformation(carrier, maps[g.payload]))
    o = orbit(rep, 0)
    assert o.points == (0, 1)
    assert orbit_closure_check(rep, o) == Verdict(False, "exhaustive", 2, (1,), None)
    assert orbit_well_defined_check(rep).counterexample == ("orbit-mismatch", 0, 1)
    assert orbit_closure_check(rep, orbit(rep, 1)) == Verdict(True, "exhaustive", 1, None, None)
