"""Built-in deterministic check battery.

Runs the whole pipeline over a fixed family of small groups: shift
representations on seven finite groups, coordinate transformations on
stored matrix groups, orthonormalisation, and the transformation law for
objects.  Everything is seeded, so two runs with the same seed emit
byte-identical JSON reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from random import Random

from .bases import (
    Basis,
    VectorSpace,
    coordinate_representation_check,
    gram_schmidt,
    is_g_basis,
)
from .groups import (
    MatrixGroup,
    boost_2d,
    cyclic_group,
    dihedral_group,
    permutation_matrix,
    quaternion_group,
    rotation_2d,
    symmetric_group,
)
from .objects import (
    ObjectCarrier,
    direct_sum_functor,
    dual_functor,
    fundamental_functor,
    identity_functor,
    invariance_sweep,
    tensor_power_functor,
    vector_space_axioms_check,
)
from .representations import (
    DEFAULT_SEED,
    check_laws,
    commutation_check,
    inverse_law_check,
    left_shift,
    orbit_well_defined_check,
    right_shift,
    same_side_witness_check,
    shifts_commute_check,
    single_transitivity_check,
    store_membership_check,
    twin_representation,
    variance_claim_check,
)
from .reports import RunReport
from .sampling import _random_square
from .scalars import DEFAULT_TOLERANCE, EXACT, approx

__all__ = ["run_selftest", "finite_fixtures", "so2_octant", "s3_matrix_group"]


def finite_fixtures() -> list:
    return [
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("Z6", cyclic_group(6)),
        ("S3", symmetric_group(3)),
        ("D4", dihedral_group(4)),
        ("Q8", quaternion_group()),
    ]


def so2_octant(tolerance: float = DEFAULT_TOLERANCE) -> MatrixGroup:
    """Rotations by multiples of a quarter-right-angle, stored."""
    return MatrixGroup.metric_preserving(
        2,
        0,
        backend=approx(tolerance),
        elements=[rotation_2d(k * math.pi / 4) for k in range(8)],
    )


def so11_boosts(tolerance: float = DEFAULT_TOLERANCE) -> MatrixGroup:
    return MatrixGroup.metric_preserving(
        1,
        1,
        backend=approx(tolerance),
        elements=[boost_2d(k * 0.5) for k in range(-2, 3)],
    )


def s3_matrix_group() -> MatrixGroup:
    """The six permutation matrices of three letters, stored in an exact GL(3)."""
    perms = sorted(itertools.permutations(range(3)))
    return MatrixGroup.general_linear(
        3, EXACT, elements=[permutation_matrix(p) for p in perms]
    )


def _shift_battery(report: RunReport, name: str, group) -> None:
    f = left_shift(group)
    h = right_shift(group)
    (f_axioms, f_variance), (h_axioms, h_variance) = check_laws(f), check_laws(h)
    report.add_verdict(f"{name}/left-shift-axioms", f_axioms)
    report.add_verdict(f"{name}/right-shift-axioms", h_axioms)
    _variance_line(report, f"{name}/left-shift", f_variance, "covariant")
    _variance_line(report, f"{name}/right-shift", h_variance, "contravariant")

    report.add_verdict(f"{name}/inverse-law", inverse_law_check(f))
    report.add_verdict(f"{name}/shifts-commute", shifts_commute_check(group))
    report.add_verdict(f"{name}/orbit-partition", orbit_well_defined_check(f))
    report.add_verdict(f"{name}/single-transitive", single_transitivity_check(f))


def _twin_battery(report: RunReport, name: str, group) -> None:
    f = left_shift(group)
    h = twin_representation(f)
    axioms, variance = check_laws(h)
    report.add_verdict(f"{name}/twin-axioms", axioms)
    report.add_verdict(f"{name}/twin-commutes", commutation_check(f, h))
    _variance_line(report, f"{name}/twin", variance, "contravariant")


def _variance_line(report: RunReport, prefix: str, variance, claim: str) -> None:
    """The line ``{prefix}-{claim}``: the classification ``variance`` is ``claim``."""
    verdict = variance_claim_check(claim, variance)
    report.add_verdict(f"{prefix}-{claim}", replace(verdict, detail=f"verdict {variance.verdict}"))


def _invariance_battery(
    report: RunReport,
    label: str,
    group: MatrixGroup,
    anchor: Basis,
    functors,
    rng: Random,
    objects_per_element: int,
) -> None:
    for functor in functors:
        carrier = ObjectCarrier(functor, anchor)
        cases = (
            (carrier.sample(rng), g, None, None)
            for g in group.store
            for _ in range(objects_per_element)
        )
        verdict, _ = invariance_sweep(cases)
        report.add_verdict(f"{label}/invariance/{functor.describe()}", verdict)


def run_selftest(
    seed: int = DEFAULT_SEED, samples: int = 60, tolerance: float = DEFAULT_TOLERANCE
) -> RunReport:
    report = RunReport("selftest")
    rng = Random(seed)

    fixtures = finite_fixtures()
    for name, group in fixtures:
        _shift_battery(report, name, group)
    for name, group in fixtures:
        if name in ("S3", "D4"):
            _twin_battery(report, name, group)

    report.add_verdict("S3/same-side-witness", same_side_witness_check(symmetric_group(3)))

    so2 = so2_octant(tolerance)
    report.add_verdict("SO2/membership-residual", store_membership_check(so2))
    coord = coordinate_representation_check(so2, seed=seed)
    report.add_verdict("SO2/coordinate-composition", coord.composition)
    report.add_verdict("SO2/coordinate-effectiveness", coord.effectiveness)

    report.add_verdict("SO11/membership-residual", store_membership_check(so11_boosts(tolerance)))

    s3m = s3_matrix_group()
    coord = coordinate_representation_check(s3m, seed=seed)
    report.add_verdict("S3perm/coordinate-composition", coord.composition)
    report.add_verdict("S3perm/coordinate-effectiveness", coord.effectiveness)

    gs_inputs = _random_square(rng, 3, approx(tolerance))
    while abs(gs_inputs.det()) < 0.1:
        gs_inputs = _random_square(rng, 3, approx(tolerance))
    gs_result = gram_schmidt(gs_inputs.entries, (3, 0), tolerance)
    report.add_verdict("gram-schmidt/euclid-3", is_g_basis(gs_result))

    space2 = VectorSpace("euclid", 2, approx(tolerance))
    anchor2 = Basis.make(space2, [[1.0, 0.0], [0.0, 1.0]])
    _invariance_battery(
        report,
        "SO2",
        so2,
        anchor2,
        [fundamental_functor(), dual_functor()],
        rng,
        objects_per_element=3,
    )

    space3 = VectorSpace("central_affine", 3, EXACT)
    anchor3 = Basis.make(space3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _invariance_battery(
        report,
        "S3perm",
        s3m,
        anchor3,
        [
            identity_functor(),
            fundamental_functor(),
            dual_functor(),
            tensor_power_functor(2),
            direct_sum_functor(fundamental_functor(), dual_functor()),
        ],
        rng,
        objects_per_element=2,
    )

    gl3 = MatrixGroup.general_linear(3, EXACT)
    report.add_verdict(
        "objects/vector-space-axioms",
        vector_space_axioms_check(
            fundamental_functor(), anchor3, gl3, samples=samples, seed=seed
        ),
    )

    report.data = {
        "seed": seed,
        "samples": samples,
        "tolerance": tolerance,
        "fixtures": {name: group.order for name, group in fixtures},
    }
    return report
