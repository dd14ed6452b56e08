"""End-to-end gate: the core guarantees, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the line per
criterion.  Exact criteria demand zero residual; float criteria are held
to a 1e-9 ceiling.
"""

import math
import subprocess
import sys
from fractions import Fraction
from random import Random

from basiskit.bases import (
    Basis,
    VectorSpace,
    change_of_basis,
    coordinate_representation_check,
    gram_schmidt,
    is_g_basis,
    passive_transform,
    standard_coordinates,
)
from basiskit.errors import NullVector
from basiskit.groups import (
    MatrixGroup,
    cyclic_group,
    dihedral_group,
    permutation_matrix,
    quaternion_group,
    rotation_2d,
    symmetric_group,
)
from basiskit.matrices import Matrix
from basiskit.objects import (
    GeometricalObject,
    direct_sum_functor,
    dual_functor,
    fundamental_functor,
    identity_functor,
    invariance_check,
    tensor_power_functor,
    vector_space_axioms_check,
    weight_dim,
)
from basiskit.representations import (
    FiniteCarrier,
    MappingTransformation,
    Representation,
    check_axioms,
    classify,
    commutation_check,
    inverse_law_check,
    left_shift,
    orbit_well_defined_check,
    right_shift,
    same_side_noncommuting_witness,
    shifts_commute_check,
    twin_representation,
)
from basiskit.scalars import EXACT, approx

F = Fraction

FIXTURES = [
    ("Z2", cyclic_group(2)),
    ("Z3", cyclic_group(3)),
    ("Z4", cyclic_group(4)),
    ("Z6", cyclic_group(6)),
    ("S3", symmetric_group(3)),
    ("D4", dihedral_group(4)),
    ("Q8", quaternion_group()),
]

FUNCTORS = [
    identity_functor(),
    fundamental_functor(),
    dual_functor(),
    tensor_power_functor(2),
    direct_sum_functor(fundamental_functor(), dual_functor()),
]


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{num:02d}] {status} {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _both_shifts():
    for name, group in FIXTURES:
        yield f"{name} left", left_shift(group)
        yield f"{name} right", right_shift(group)


def _random_fraction(rng, span=4, den=3):
    return F(rng.randint(-span, span), rng.randint(1, den))


def _random_invertible_exact(rng, n):
    while True:
        rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows, EXACT)
        if m.det() != 0:
            return m


def _octant_rotations():
    return MatrixGroup.metric_preserving(
        2, 0, elements=[rotation_2d(k * math.pi / 4) for k in range(8)]
    )


def _stored_exact_gl2():
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


def _s3_matrices():
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    return MatrixGroup.general_linear(
        3, EXACT, elements=[permutation_matrix(p) for p in perms]
    )


def test_01_shift_axioms_exhaustive():
    checked = 0
    for label, rep in _both_shifts():
        verdict = check_axioms(rep, "exhaustive")
        assert verdict.counterexample is None, label
        assert verdict.passed, label
        checked += verdict.checked
    _line(1, "shift representations satisfy their side laws", True,
          f"{checked} triples over {len(FIXTURES)} groups, both sides")


def test_02_inverse_law():
    checked = 0
    for label, rep in _both_shifts():
        verdict = inverse_law_check(rep, "exhaustive")
        assert verdict.passed, label
        checked += verdict.checked
    _line(2, "inverse elements give inverse transformations", True,
          f"{checked} element/point pairs, exact")


def test_03_shifts_commute():
    checked = 0
    for name, group in FIXTURES:
        verdict = shifts_commute_check(group)
        assert verdict.passed, name
        checked += verdict.checked
    _line(3, "left and right shifts commute", True, f"{checked} triples, exact")


def test_04_orbits_partition():
    for label, rep in _both_shifts():
        report = orbit_well_defined_check(rep)
        assert report.passed, label
    # a non-transitive action must partition as well
    z2 = cyclic_group(2)
    carrier = FiniteCarrier(3)
    swap = [1, 0, 2]
    ident = [0, 1, 2]
    rep = Representation(
        z2, carrier, "left",
        lambda g: MappingTransformation(carrier, swap if g.payload else ident),
    )
    report = orbit_well_defined_check(rep)
    assert report.passed
    assert sorted(len(points) for points in report.orbits) == [1, 2]
    _line(4, "orbits are well defined and partition the carrier", True,
          "every fixture action, plus a two-orbit action")


def test_05_single_transitivity_cross_check():
    agreements = 0
    for label, rep in _both_shifts():
        summary = classify(rep)
        assert summary.single_transitive, label
        assert summary.uniqueness_agrees is True, label
        agreements += 1
    # actions where the verdict is negative must agree with the
    # transport count as well
    z6 = cyclic_group(6)
    carrier = FiniteCarrier(3)
    triangle = Representation(
        z6, carrier, "left",
        lambda g: MappingTransformation(carrier, [(x + g.payload) % 3 for x in range(3)]),
    )
    summary = classify(triangle)
    assert not summary.single_transitive
    assert summary.uniqueness_agrees is True
    agreements += 1
    _line(5, "single transitivity matches the unique-transport count", True,
          f"{agreements} actions, 100% agreement")


def test_06_twin_representations():
    for name in ("S3", "D4"):
        group = dict(FIXTURES)[name]
        f = left_shift(group)
        h = twin_representation(f)
        assert h.side == "right", name
        assert check_axioms(h, "exhaustive").passed, name
        assert commutation_check(f, h).passed, name
        assert classify(h).single_transitive, name
    s3 = dict(FIXTURES)["S3"]
    f = left_shift(s3)
    h = twin_representation(f)
    w = same_side_noncommuting_witness(s3)
    assert w is not None
    assert h.apply(w.a, w.point).eq_to(w.required_value)
    assert f.apply(w.conjugate, w.point).eq_to(w.required_value)
    assert not w.same_side_value.eq_to(w.required_value)
    _line(6, "twin actions commute and are single transitive", True,
          "S3 and D4, all triples, with the conjugation witness")


def test_07_change_of_basis_round_trip():
    rng = Random(20240716)
    budget = {2: 34, 3: 33, 4: 33}
    failures = 0
    for n, count in budget.items():
        group = MatrixGroup.general_linear(n)
        space = VectorSpace("central_affine", n, EXACT)
        for _ in range(count):
            b1 = Basis.make(space, _random_invertible_exact(rng, n).entries)
            b2 = Basis.make(space, _random_invertible_exact(rng, n).entries)
            a = change_of_basis(b1, b2, group)
            if not passive_transform(b1, a).eq(b2):
                failures += 1
            if not standard_coordinates(b2, b1).grid.eq(a.payload):
                failures += 1
    _line(7, "change of basis reconstructs the target exactly", failures == 0,
          "100 random exact pairs, dimensions 2 to 4")


def test_08_coordinate_representation():
    exact = coordinate_representation_check(
        MatrixGroup.general_linear(3), samples=100, seed=99
    )
    assert exact.passed
    assert exact.composition.residual_max is None
    stored = coordinate_representation_check(_octant_rotations(), seed=99)
    assert stored.passed
    assert stored.composition.mode.startswith("exhaustive-pairs")
    ok = stored.composition.residual_max <= 1e-9
    _line(8, "coordinate changes compose through the reversed product", ok,
          f"100 exact pairs and 64 float pairs, worst residual "
          f"{stored.composition.residual_max:.2e}")


def test_09_gram_schmidt():
    rng = Random(3)
    worst = 0.0
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        plus = rng.randint(1, n)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        if abs(Matrix.from_rows(rows, approx()).det()) < 0.1:
            continue
        basis = gram_schmidt(rows, (plus, n - plus))
        report = is_g_basis(basis)
        assert report.passed
        worst = max(worst, report.residual_max)
        done += 1
    null_raises = 0
    for _ in range(2):
        try:
            gram_schmidt([[1.0, 1.0], [0.0, 1.0]], (1, 1))
        except NullVector as exc:
            assert exc.index == 0
            null_raises += 1
    ok = worst <= 1e-9 and null_raises == 2
    _line(9, "orthonormalisation reproduces the metric", ok,
          f"100 random inputs, dims 2 to 5, worst residual {worst:.2e}; "
          "null input raises deterministically")


def test_10_invariance_principle():
    rng = Random(8)
    exact_groups = [_stored_exact_gl2(), _s3_matrices()]
    combos = sum(len(g.store) for g in exact_groups) * len(FUNCTORS)
    per_combo = -(-1000 // combos)  # ceil, so the total clears 1000
    total = 0
    for group in exact_groups:
        n = group.dim
        space = VectorSpace("central_affine", n, EXACT)
        anchor = Basis.make(space, Matrix.identity(n, EXACT).entries)
        for functor in FUNCTORS:
            m = weight_dim(functor, n)
            for g in group.store:
                for _ in range(per_combo):
                    coords = [_random_fraction(rng, 9, 5) for _ in range(m)]
                    obj = GeometricalObject.make(functor, coords, anchor)
                    verdict = invariance_check(obj, g)
                    assert verdict.passed
                    assert verdict.residual_max is None
                    total += 1

    so2 = _octant_rotations()
    space = VectorSpace("euclid", 2, approx(1e-9))
    anchor = Basis.make(space, [[1.0, 0.0], [0.0, 1.0]])
    worst = 0.0
    float_total = 0
    for functor in FUNCTORS:
        m = weight_dim(functor, 2)
        for g in so2.store:
            for _ in range(5):
                coords = [rng.uniform(-2.0, 2.0) for _ in range(m)]
                obj = GeometricalObject.make(functor, coords, anchor)
                verdict = invariance_check(obj, g)
                assert verdict.passed
                worst = max(worst, verdict.residual_max)
                float_total += 1
    ok = total >= 1000 and worst <= 1e-9
    _line(10, "the representative survives every transformation", ok,
          f"{total} exact objects across {combos} functor/element combos; "
          f"{float_total} float checks, worst residual {worst:.2e}")


def test_11_object_algebra():
    gl2 = _stored_exact_gl2()
    space2 = VectorSpace("central_affine", 2, EXACT)
    anchor2 = Basis.make(space2, [[1, 0], [0, 1]])
    first = vector_space_axioms_check(
        fundamental_functor(), anchor2, gl2, samples=150, seed=1
    )
    s3m = _s3_matrices()
    space3 = VectorSpace("central_affine", 3, EXACT)
    anchor3 = Basis.make(space3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    second = vector_space_axioms_check(
        dual_functor(), anchor3, s3m, samples=150, seed=2
    )
    ok = first.passed and second.passed
    _line(11, "objects at an anchor form a vector space, transforms are linear",
          ok, f"{first.checked + second.checked} sampled laws, exact")


def test_12_deterministic_selftest():
    cmd = [
        sys.executable, "-m", "basiskit.cli",
        "selftest", "--seed", "42", "--report", "json",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _line(12, "the selftest report is byte-identical across runs", ok,
          f"{len(first.stdout)} bytes")
