"""Seeded job streams for the three workloads, each job with its oracle.

A job is one ``basiskit`` command line plus the descriptor files it reads.
Its expectation (exit code, pass/fail of every named check, and a few
facts such as orbit sizes) comes from how the input was built, using the
constructions in ``model.py``; basiskit is never asked.

A stream is a sequence of rounds.  A round is the workload's slot table
in a seeded order.  A slot fixes the size of its job (group order,
dimension, functor), because job time depends on it steeply (cubic in
the order for a shift sweep); the seed draws everything else: element
labels, sides, points, conjugating bases, coordinates, angles,
generators, and where the planted defects sit.  Two seeds therefore give
different inputs for the same amount of work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from random import Random

import model

# A checks table of ``ALL_PASS`` means "every check passes", for the
# self-test battery whose check names are basiskit's own.
ALL_PASS = None


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    files: dict
    exit: int
    checks: object  # {check name: passed} or ALL_PASS
    facts: dict = field(default_factory=dict)

    def expected(self) -> dict:
        return {"exit": self.exit, "checks": self.checks, "facts": self.facts}


def _file(job_id: str, name: str) -> str:
    return f"{job_id}-{name}.json"


REPCHECK = {"axioms": True, "inverse-law": True, "variance": True}


# -- finite_repcheck -----------------------------------------------------------


def _finite_group(rng: Random, spec: str) -> tuple:
    """``spec`` (``Z12``, ``D6``, ``S4``, ``Q8``) in a random labelling.

    Returns the Cayley table, the natural permutations under the new
    labels, the number of points they act on, and the identity's label.
    """
    family, n = spec[0], int(spec[1:])
    perms = {
        "Z": model.cyclic_perms,
        "D": model.dihedral_perms,
        "S": model.symmetric_perms,
        "Q": lambda _: model.quaternion_perms(),
    }[family](n)
    table = model.cayley_table(perms)
    sigma = list(range(len(perms)))
    rng.shuffle(sigma)
    table, perms = model.relabel(table, perms, sigma)
    return table, perms, len(perms[0]), sigma[0]


def _group_doc(table, identity) -> dict:
    return {"kind": "finite", "table": table, "identity": identity}


def _shift_rep(rng, spec):
    """A shift representation; returns (descriptor, its permutations, points, identity)."""
    table, _, _, e = _finite_group(rng, spec)
    n = len(table)
    side = rng.choice(("left", "right"))
    if side == "left":
        perms = [tuple(table[a][b] for b in range(n)) for a in range(n)]
    else:
        perms = [tuple(table[b][a] for b in range(n)) for a in range(n)]
    doc = {
        "group": _group_doc(table, e),
        "side": side,
        "carrier": {"kind": "self"},
        "assign": {"kind": f"shift-{side}"},
    }
    return doc, perms, n, e


def _natural_doc(table, perms, npoints, e) -> dict:
    return {
        "group": _group_doc(table, e),
        "side": "left",
        "carrier": {"kind": "finite", "size": npoints},
        "assign": {"kind": "permutation-table", "table": [list(p) for p in perms]},
    }


def _natural_rep(rng, spec):
    table, perms, npoints, e = _finite_group(rng, spec)
    return _natural_doc(table, perms, npoints, e), perms, npoints, e


def _repcheck_argv(path: str, order: int) -> list:
    argv = ["repcheck", "--input", path, "--report", "json"]
    if order > 100:
        # S5 on itself is 1.7M cases exhaustively; basiskit samples it
        argv += ["--samples", "200"]
    return argv


def _repcheck_job(jid, kind, doc, perms, npoints, e):
    path = _file(jid, "rep")
    return Job(jid, kind, _repcheck_argv(path, len(perms)), {path: doc}, 0, REPCHECK,
               {"classified": True, **model.orbit_facts(perms, npoints, e)})


def job_shift_repcheck(rng, jid, spec):
    return _repcheck_job(jid, "repcheck/shift", *_shift_rep(rng, spec))


def job_natural_repcheck(rng, jid, spec):
    return _repcheck_job(jid, "repcheck/permutation-table", *_natural_rep(rng, spec))


def job_linear_repcheck(rng, jid, spec):
    """Exact permutation matrices of the natural action on a coords carrier."""
    table, perms, npoints, e = _finite_group(rng, spec)
    doc = {
        "group": _group_doc(table, e),
        "side": "left",
        "carrier": {"kind": "coords", "dim": npoints, "layout": "column"},
        "assign": {"kind": "linear", "matrices": [model.permutation_matrix(p) for p in perms]},
    }
    path = _file(jid, "rep")
    return Job(jid, "repcheck/linear-exact",
               ["repcheck", "--input", path, "--samples", "100", "--seed",
                str(rng.randrange(10**6)), "--report", "json"],
               {path: doc}, 0, REPCHECK, {"classified": False})


def _orbit_job(rng, jid, kind, doc, perms, npoints, point_arg):
    point = rng.randrange(npoints)
    orbits = model.orbits_of(perms, npoints)
    path = _file(jid, "rep")
    return Job(jid, kind,
               ["orbit", "--input", path, "--point", point_arg(point), "--report", "json"],
               {path: doc}, 0, {"orbit-partition": True},
               {"size": len(next(o for o in orbits if point in o)),
                "orbit_count": len(orbits)})


def job_shift_orbit(rng, jid, spec):
    doc, perms, n, _ = _shift_rep(rng, spec)
    return _orbit_job(rng, jid, "orbit/shift", doc, perms, n,
                      lambda p: json.dumps({"index": p}))


def job_natural_orbit(rng, jid, spec):
    doc, perms, n, _ = _natural_rep(rng, spec)
    return _orbit_job(rng, jid, "orbit/permutation-table", doc, perms, n, str)


def job_selftest(rng, jid, _):
    seed = rng.randrange(10**6)
    return Job(jid, "selftest", ["selftest", "--seed", str(seed), "--report", "json"],
               {}, 0, ALL_PASS)


def job_swapped_rows(rng, jid, spec):
    """Planted defect: the natural action with two assignment rows swapped.

    A swap that happens to be an automorphism of the group is no defect,
    so such a draw is replaced."""
    while True:
        table, perms, npoints, e = _finite_group(rng, spec)
        a, b = rng.sample([g for g in range(len(perms)) if g != e], 2)
        perms[a], perms[b] = perms[b], perms[a]
        truth = model.action_truth(table, perms, npoints)
        if not truth["side_law"]:
            break
    checks = {"axioms": False, "inverse-law": truth["inverse_law"],
              "variance": truth["variance"]}
    facts = {"classified": True,
             **{k: truth[k] for k in ("transitive", "effective", "kernel_size", "regular")}}
    path = _file(jid, "rep")
    return Job(jid, "defect/swapped-rows", _repcheck_argv(path, len(perms)),
               {path: _natural_doc(table, perms, npoints, e)}, 1, checks, facts)


def job_altered_table(rng, jid, spec):
    """Planted defect: one Cayley table entry changed, so loading must fail.

    A changed entry repeats a value in its row, and no group table does."""
    doc, _, n, _ = _shift_rep(rng, spec)
    table = doc["group"].pop("table")
    a, b = rng.randrange(n), rng.randrange(n)
    table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
    doc["group"] = {"kind": "finite", "table": table}
    path = _file(jid, "rep")
    return Job(jid, "defect/altered-table", _repcheck_argv(path, n), {path: doc}, 2, {})


# Slot sizes are set from job times measured side by side, so that each
# percentile falls inside a band of near-equal-cost jobs: 33 light slots,
# 30 in the median band, 25 heavier and 16 in the 90th-percentile band.
# Inside a band a percentile moves only with the band's own cost; between
# two bands of different cost it would jump with small changes of machine
# speed.  One round is 104 jobs, so one round already has ten jobs beyond
# its 90th percentile, and it is light enough that a run repeats it
# several times.  Z_n and D_n of one order differ in cost, so a band keeps
# the two families at orders of matching cost.
FINITE_ROUND = (
    # light: defects, orbits, small groups, the natural action of S4
    3 * (
        [(job_altered_table, s) for s in ("Z10", "D5")]
        + [(job_swapped_rows, s) for s in ("S4", "D6")]
        + [(job_shift_orbit, s) for s in ("Q8", "Z12", "S4")]
        + [(job_natural_orbit, s) for s in ("S4", "D10")]
        + [(job_natural_repcheck, "S4"), (job_shift_repcheck, "Q8")]
    )
    # the median band: groups of order 10
    + [(job_shift_repcheck, s) for s in ("Z10", "D5") * 15]
    # heavier: orders 12 to 16 and exact linear repchecks
    + [(job_shift_repcheck, s) for s in ("D6", "D7") * 8]
    + [(job_shift_repcheck, s) for s in ("D8", "Z16") * 3]
    + [(job_linear_repcheck, s) for s in ("S4", "Z5", "D4")]
    # the 90th-percentile band: order 18, then S4, D10, the natural orbit
    # of S5 (whose 120-element table is validated on load) and the self-test
    + [(job_shift_repcheck, s) for s in ("D9", "Z18") * 6]
    + [(job_shift_repcheck, s) for s in ("S4", "D10")]
    + [(job_natural_orbit, "S5"), (job_selftest, None)]
)


# -- exact_objects ---------------------------------------------------------------


def _small_fraction(rng: Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _exact_basis(rng: Random, n: int) -> list:
    """A random rational basis near a scaled identity, always invertible."""
    while True:
        rows = [[Fraction(rng.randint(2, 4)) if i == j else _small_fraction(rng)
                 for j in range(n)] for i in range(n)]
        if model.det(rows) != 0:
            return rows


def _conjugator(rng: Random, n: int) -> list:
    """``D U``: a unimodular integer ``U`` (a few row additions) scaled by a
    diagonal ``D`` of small rationals, so conjugated elements have small
    rational entries whose size does not vary much from seed to seed."""
    u = model.identity(n, Fraction(1))
    for _ in range(n + 1):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    scales = [rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)))
              for _ in range(n)]
    return [[d * x for x in row] for d, row in zip(scales, u)]


def _signed_perm(rng: Random, n: int, special: bool) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    element = tuple((c, rng.choice((1, -1))) for c in perm)
    if special and model.signed_perm_det(element) != 1:
        element = ((perm[0], -element[0][1]),) + element[1:]
    return element


def _exact_group(rng: Random, n: int, order: int, family: str) -> tuple:
    """A matrix group of the given order: signed permutations conjugated by
    a random rational matrix.  Returns (elements, generators) as Fraction
    matrices, identity first."""
    for _ in range(10_000):
        gens = [_signed_perm(rng, n, family == "SL") for _ in range(rng.choice((1, 2)))]
        elements = model.signed_perm_closure(gens)
        if len(elements) == order:
            break
    else:
        raise ValueError(f"no {family}({n}) signed-permutation group of order {order} found")
    q = _conjugator(rng, n)
    qi = model.inverse(q)

    def conj(element):
        return model.matmul(model.matmul(q, model.signed_perm_matrix(element)), qi)

    return [conj(m) for m in elements], [conj(m) for m in gens]


def _matrix_group_doc(rng, family, n, elements=None, generators=None) -> dict:
    """Stored elements (in a random order) or generators to close over;
    neither means the whole family."""
    doc = {"kind": "matrix", "family": family, "dim": n}
    if elements is not None:
        order = list(elements)
        rng.shuffle(order)
        doc["elements"] = [model.flat_exact(m) for m in order]
    elif generators is not None:
        doc["generators"] = [model.flat_exact(m) for m in generators]
    return doc


FUNCTORS = {
    "identity": ({"tag": "identity"}, lambda n: 1),
    "fundamental": ({"tag": "fundamental"}, lambda n: n),
    "dual": ({"tag": "dual"}, lambda n: n),
    "tensor": ({"tag": "tensor_power", "k": 2}, lambda n: n * n),
    "sum": ({"tag": "direct_sum", "parts": [{"tag": "fundamental"}, {"tag": "dual"}]},
            lambda n: 2 * n),
}


def _exact_object(rng, n, functor) -> dict:
    tag, width = FUNCTORS[functor]
    return {
        "functor": tag,
        "coords": [model.to_json_scalar(_small_fraction(rng, 5, 4)) for _ in range(width(n))],
        "anchor": {"space": {"kind": "central_affine", "dim": n},
                   "vectors": model.rows_exact(_exact_basis(rng, n))},
    }


def _stored_group_job(rng, jid, kind, slot, argv_tail, checks, orbit=False):
    """An object job over a stored (``S``) or generated (``G``) finite group."""
    family, n, order, functor, how = slot
    elements, gens = _exact_group(rng, n, order, family)
    obj, grp = _file(jid, "obj"), _file(jid, "group")
    group = (_matrix_group_doc(rng, family, n, elements=elements) if how == "S"
             else _matrix_group_doc(rng, family, n, generators=gens))
    # distinct elements move the anchor to distinct bases: one object each
    facts = {"orbit_size": order} if orbit else {}
    return Job(jid, kind, ["object", "--input", obj, "--group", grp, "--report", "json"]
               + argv_tail, {obj: _exact_object(rng, n, functor), grp: group}, 0, checks, facts)


def job_object_sweep(rng, jid, slot):
    return _stored_group_job(rng, jid, "object/invariance", slot, [], {"invariance": True})


def job_object_orbit(rng, jid, slot):
    return _stored_group_job(rng, jid, "object/orbit", slot, ["--orbit"],
                             {"invariance": True, "orbit-well-defined": True}, orbit=True)


def job_object_axioms(rng, jid, slot):
    return _stored_group_job(rng, jid, "object/axioms", slot,
                             ["--axioms", "--samples", "8", "--seed", str(rng.randrange(10**6))],
                             {"invariance": True, "vector-space-axioms": True})


def _random_exact_element(rng, n, det_value=None) -> list:
    """A random invertible rational matrix; with ``det_value`` its first row
    is rescaled to give that determinant."""
    while True:
        m = [[_small_fraction(rng) + (2 if i == j else 0) for j in range(n)] for i in range(n)]
        d = model.det(m)
        if d != 0:
            break
    if det_value is not None:
        m[0] = [x * Fraction(det_value) / d for x in m[0]]
    return m


def _element_arg(m) -> str:
    return json.dumps({"matrix": model.rows_exact(m)})


def job_object_element(rng, jid, slot):
    family, n, functor = slot
    element = _random_exact_element(rng, n, 1 if family == "SL" else None)
    obj, grp = _file(jid, "obj"), _file(jid, "group")
    return Job(jid, "object/element",
               ["object", "--input", obj, "--group", grp, "--element", _element_arg(element),
                "--report", "json"],
               {obj: _exact_object(rng, n, functor), grp: _matrix_group_doc(rng, family, n)},
               0, {"invariance": True})


def _basis_doc(rows, kind="central_affine", origin=None) -> dict:
    doc = {"space": {"kind": kind, "dim": len(rows)}, "vectors": model.rows_exact(rows)}
    if origin is not None:
        doc["origin"] = [model.to_json_scalar(x) for x in origin]
    return doc


def _change_job(rng, jid, family, n, kind, det_value, connected):
    """Source basis ``B`` and target ``A B`` for a random grid ``A``; with an
    affine space both share one origin, as linear transports require."""
    rows = _exact_basis(rng, n)
    a = _random_exact_element(rng, n, det_value)
    origin = [_small_fraction(rng) for _ in range(n)] if kind == "affine" else None
    src, dst, grp = _file(jid, "source"), _file(jid, "target"), _file(jid, "group")
    files = {src: _basis_doc(rows, kind, origin),
             dst: _basis_doc(model.matmul(a, rows), kind, origin),
             grp: _matrix_group_doc(rng, family, n)}
    checks = {"connected": True, "transport-verified": True} if connected else {"connected": False}
    return Job(jid, "basis/change" if connected else "defect/outside-orbit",
               ["basis", "change", "--source", src, "--target", dst, "--group", grp,
                "--report", "json"], files, 0 if connected else 1, checks)


def job_basis_change(rng, jid, slot):
    family, n, kind = slot
    return _change_job(rng, jid, family, n, kind, 1 if family == "SL" else None, True)


def job_outside_sl_orbit(rng, jid, n):
    """Planted defect: the target is the source moved by a grid of det != 1."""
    return _change_job(rng, jid, "SL", n, "central_affine",
                       rng.choice((2, -1, Fraction(1, 2), 3)), False)


def job_transform_active(rng, jid, slot):
    family, n, order = slot
    if order:
        elements, _ = _exact_group(rng, n, order, family)
        group = _matrix_group_doc(rng, family, n, elements=elements)
        element = rng.choice(elements)
    else:
        group = _matrix_group_doc(rng, family, n)
        element = _random_exact_element(rng, n, 1 if family == "SL" else None)
    basis, grp = _file(jid, "basis"), _file(jid, "group")
    return Job(jid, "basis/transform-active",
               ["basis", "transform", "--input", basis, "--group", grp,
                "--element", _element_arg(element), "--mode", "active", "--report", "json"],
               {basis: _basis_doc(_exact_basis(rng, n)), grp: group}, 0,
               {"coordinates-preserved": True})


def job_exact_coordrep(rng, jid, slot):
    family, n, order, how = slot
    elements, gens = _exact_group(rng, n, order, family)
    grp = _file(jid, "group")
    group = (_matrix_group_doc(rng, family, n, elements=elements) if how == "S"
             else _matrix_group_doc(rng, family, n, generators=gens))
    return Job(jid, "basis/coordrep",
               ["basis", "coordrep", "--group", grp, "--seed", str(rng.randrange(10**6)),
                "--report", "json"],
               {grp: group}, 0, {"coordinate-composition": True, "coordinate-effectiveness": True})


def job_exact_outside_group(rng, jid, n):
    """Planted defect: an element of det != 1 given to an SL group, either in
    its stored elements or inline."""
    bad = _random_exact_element(rng, n, rng.choice((2, -1, Fraction(1, 3))))
    obj, grp = _file(jid, "obj"), _file(jid, "group")
    if rng.random() < 0.5:
        elements, _ = _exact_group(rng, n, 4, "SL")
        group = _matrix_group_doc(rng, "SL", n, elements=elements + [bad])
        tail = []
    else:
        group = _matrix_group_doc(rng, "SL", n)
        tail = ["--element", _element_arg(bad)]
    return Job(jid, "defect/outside-group",
               ["object", "--input", obj, "--group", grp, "--report", "json"] + tail,
               {obj: _exact_object(rng, n, "fundamental"), grp: group}, 2, {})


# Slots: (family, dimension, group order, functor, Stored or Generated),
# banded by cost as for FINITE_ROUND.
EXACT_ROUND = (
    # light: single elements, basis changes and transforms, defects
    [(job_basis_change, s) for s in (("SL", 2, "central_affine"), ("GL", 3, "affine"),
                                      ("SL", 3, "central_affine"), ("SL", 4, "affine"))]
    + [(job_outside_sl_orbit, 3), (job_exact_outside_group, 3)]
    + [(job_transform_active, s) for s in (("GL", 2, 0), ("SL", 3, 6))]
    + [(job_object_element, s) for s in (("SL", 2, "tensor"), ("SL", 4, "fundamental"),
                                          ("GL", 3, "sum"))]
    # the median band
    + [(job_object_sweep, s) for s in (
        ("SL", 3, 12, "dual", "S"), ("SL", 3, 12, "dual", "G"),
        ("GL", 3, 12, "fundamental", "G"), ("GL", 3, 12, "fundamental", "S"),
        ("SL", 3, 12, "fundamental", "S"), ("SL", 3, 8, "dual", "G"),
        ("SL", 4, 8, "fundamental", "S"), ("SL", 3, 8, "sum", "G"),
        ("GL", 3, 12, "dual", "G"), ("SL", 4, 8, "dual", "S"))]
    # heavier
    + [(job_object_axioms, s) for s in (("GL", 2, 8, "tensor", "S"),
                                         ("SL", 3, 8, "fundamental", "G"))]
    + [(job_object_orbit, s) for s in (("GL", 4, 4, "dual", "S"), ("GL", 3, 4, "dual", "S"))]
    + [(job_object_sweep, ("GL", 3, 6, "tensor", "S"))]
    # the 90th-percentile band: |G|^2 coordinate sweeps and tensor-square objects
    + [(job_exact_coordrep, s) for s in (("GL", 3, 8, "S"), ("SL", 3, 8, "S"), ("GL", 3, 8, "G"),
                                          ("SL", 3, 8, "G"))]
    + [(job_object_sweep, s) for s in (("GL", 3, 8, "tensor", "S"), ("GL", 3, 8, "tensor", "G"))]
)


# -- float_bases -------------------------------------------------------------------


def _flat(m) -> list:
    return [float(x) for row in m for x in row]


def _float_anchor(rng, n, signature=None) -> dict:
    rows = [[(1.5 if i == j else 0.0) + rng.uniform(-0.5, 0.5) for j in range(n)]
            for i in range(n)]
    if signature is None:
        space = {"kind": "euclid", "dim": n}
    else:
        space = {"kind": "pseudo_euclid", "dim": n, "signature": list(signature)}
    return {"space": space, "vectors": rows}


def _float_object(rng, n, functor, signature=None) -> dict:
    tag, width = FUNCTORS[functor]
    return {"functor": tag, "coords": [rng.uniform(-3, 3) for _ in range(width(n))],
            "anchor": _float_anchor(rng, n, signature)}


def _so2_generated(rng, m) -> dict:
    """SO(2) closed from one rotation of order ``m`` (a random primitive angle)."""
    k = rng.choice([k for k in range(1, m) if gcd(k, m) == 1])
    doc = {"kind": "matrix", "family": "SO", "dim": 2,
           "generators": [_flat(model.rotation2(2 * math.pi * k / m))]}
    if rng.random() < 0.5:
        doc["signature"] = [2, 0]
    return doc


def _so3_generated(rng, name) -> dict:
    """A finite rotation group (``T``, ``O``, ``I`` or ``D<m>``) in a random
    orientation, closed from its generators."""
    if name.startswith("D"):
        gens = model.dihedral_so3(int(name[1:]))
    else:
        gens = model.SO3_GROUPS[name]
    r = model.random_rotation3(rng)
    return {"kind": "matrix", "family": "SO", "dim": 3,
            "generators": [_flat(model.conjugate(r, g)) for g in gens]}


def _sweep(jid, kind, obj_doc, group_doc):
    obj, grp = _file(jid, "obj"), _file(jid, "group")
    return Job(jid, kind, ["object", "--input", obj, "--group", grp, "--report", "json"],
               {obj: obj_doc, grp: group_doc}, 0, {"invariance": True})


def job_so2_sweep(rng, jid, slot):
    m, functor = slot
    return _sweep(jid, "object/so2-closure", _float_object(rng, 2, functor),
                  _so2_generated(rng, m))


def job_so3_sweep(rng, jid, slot):
    name, functor = slot
    return _sweep(jid, "object/so3-closure", _float_object(rng, 3, functor),
                  _so3_generated(rng, name))


def job_boost_sweep(rng, jid, slot):
    """Stored SO(1,1) boosts of rapidity at most 1.5, with the identity."""
    count, functor = slot
    boosts = [_flat(model.boost2(rng.uniform(-1.5, 1.5))) for _ in range(count)]
    group = {"kind": "matrix", "family": "SO", "dim": 2, "signature": [1, 1],
             "elements": [[1.0, 0.0, 0.0, 1.0]] + boosts}
    return _sweep(jid, "object/so11-stored", _float_object(rng, 2, functor, (1, 1)), group)


def _coordrep(jid, kind, group_doc, seed):
    grp = _file(jid, "group")
    return Job(jid, kind, ["basis", "coordrep", "--group", grp, "--seed", str(seed),
                           "--report", "json"],
               {grp: group_doc}, 0,
               {"coordinate-composition": True, "coordinate-effectiveness": True})


def job_float_coordrep(rng, jid, name):
    group = _so2_generated(rng, int(name[3:])) if name.startswith("SO2") else _so3_generated(rng, name)
    return _coordrep(jid, "basis/coordrep", group, rng.randrange(10**6))


def job_scale_probe(rng, jid, _):
    """A single stored boost of rapidity 3 to 10.  It is a true member of
    SO(1,1) and the coordinate law holds for it, so the true verdict is
    pass; an absolute tolerance rejects it (README, "Known-defect probes")."""
    rapidity = rng.choice((-1, 1)) * rng.uniform(3.0, 10.0)
    group = {"kind": "matrix", "family": "SO", "dim": 2, "signature": [1, 1],
             "elements": [_flat(model.boost2(rapidity))]}
    return _coordrep(jid, "probe/large-boost", group, rng.randrange(10**6))


def _metric_space(p, q) -> dict:
    if q == 0:
        return {"kind": "euclid", "dim": p}
    return {"kind": "pseudo_euclid", "dim": p + q, "signature": [p, q]}


def _float_change(rng, jid, signature, connected):
    """Orthonormal source frame ``F`` and target ``A F``: ``A`` preserves the
    metric when ``connected``, otherwise it stretches one axis."""
    p, q = signature
    n = p + q
    rows = model.metric_frame(rng, p, q)
    if connected:
        a = model.metric_frame(rng, p, q)
    else:
        a = model.identity(n, 1.0)
        a[0][0] = rng.uniform(1.2, 2.0)
    src, dst, grp = _file(jid, "source"), _file(jid, "target"), _file(jid, "group")
    files = {src: {"space": _metric_space(p, q), "vectors": rows},
             dst: {"space": _metric_space(p, q), "vectors": model.matmul(a, rows)},
             grp: {"kind": "matrix", "family": "SO", "dim": n, "signature": [p, q]}}
    checks = {"connected": True, "transport-verified": True} if connected else {"connected": False}
    return Job(jid, "basis/change-frames" if connected else "defect/outside-orbit",
               ["basis", "change", "--source", src, "--target", dst, "--group", grp,
                "--report", "json"], files, 0 if connected else 1, checks)


def job_float_change(rng, jid, signature):
    return _float_change(rng, jid, signature, True)


def job_float_outside_orbit(rng, jid, signature):
    return _float_change(rng, jid, signature, False)


def job_gram_schmidt(rng, jid, signature):
    """Inputs ``v_i = sum_{j<=i} T_ij f_j`` over a metric-orthonormal frame
    ``f``: each residue is ``T_ii f_i``, never null, so the process succeeds."""
    p, q = signature
    n = p + q
    frame = model.metric_frame(rng, p, q)
    rng.shuffle(frame)
    vectors = []
    for i in range(n):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(i)] + [rng.uniform(0.6, 1.6)]
        vectors.append([sum(c * frame[j][k] for j, c in enumerate(coeffs)) for k in range(n)])
    path = _file(jid, "vectors")
    return Job(jid, "basis/gram-schmidt",
               ["basis", "gram-schmidt", "--input", path, "--report", "json"],
               {path: {"signature": [p, q], "vectors": vectors}}, 0, {"orthonormalised": True})


def job_float_repcheck(rng, jid, name):
    """The natural action of a closed rotation group on coordinates."""
    if name.startswith("SO2"):
        group, n = _so2_generated(rng, int(name[3:])), 2
    else:
        group, n = _so3_generated(rng, name), 3
    side, layout = rng.choice((("left", "column"), ("right", "row")))
    path = _file(jid, "rep")
    doc = {"group": group, "side": side,
           "carrier": {"kind": "coords", "dim": n, "layout": layout},
           "assign": {"kind": "linear"}}
    return Job(jid, "repcheck/linear-float",
               ["repcheck", "--input", path, "--samples", "200", "--seed",
                str(rng.randrange(10**6)), "--report", "json"],
               {path: doc}, 0, REPCHECK, {"classified": False})


def job_float_outside_group(rng, jid, m):
    """Planted defect: one stored rotation of a cyclic SO(2) group scaled
    off the circle, so loading must fail."""
    elements = [_flat(model.rotation2(2 * math.pi * k / m)) for k in range(m)]
    bad = rng.randrange(1, m)
    scale = 1.0 + rng.uniform(1e-3, 1e-2)
    elements[bad] = [x * scale for x in elements[bad]]
    job = _sweep(jid, "defect/outside-group", _float_object(rng, 2, "fundamental"),
                 {"kind": "matrix", "family": "SO", "dim": 2, "elements": elements})
    job.exit, job.checks = 2, {}
    return job


# Banded by cost as for FINITE_ROUND, with fourteen light slots, ten in the
# median band, seven heavier and eight in the 90th-percentile band.  The
# heaviest jobs close SO(2) groups of order 200, where the closure's
# pairwise comparisons dominate.
FLOAT_ROUND = (
    # light: defects, frames, Gram-Schmidt, stored boosts, small closures
    [(job_float_outside_group, 8), (job_float_outside_orbit, (2, 0))]
    + [(job_gram_schmidt, s) for s in ((1, 1), (3, 1))]
    + [(job_float_change, s) for s in ((3, 0), (2, 1))]
    + [(job_boost_sweep, s) for s in ((6, "tensor"), (8, "sum"), (10, "fundamental"))]
    + [(job_so2_sweep, s) for s in ((60, "fundamental"), (90, "dual"))]
    + [(job_so3_sweep, s) for s in (("D12", "dual"), ("T", "tensor"), ("O", "sum"))]
    # the median band
    + [(job_float_repcheck, s) for s in ("SO224", "SO236", "SO248", "O", "T")]
    + [(job_float_coordrep, s) for s in ("SO213", "SO214", "SO215", "SO216")]
    + [(job_so3_sweep, ("I", "fundamental"))]
    # heavier
    + [(job_float_coordrep, s) for s in ("T", "SO220", "O")]
    + [(job_so3_sweep, ("I", "tensor"))]
    + [(job_so2_sweep, s) for s in ((120, "sum"), (140, "dual"), (160, "fundamental"))]
    # the 90th-percentile band
    + [(job_so2_sweep, (200, f)) for f in ("fundamental", "dual", "tensor", "sum") * 2]
)


WORKLOADS = {
    "finite_repcheck": FINITE_ROUND,
    "exact_objects": EXACT_ROUND,
    "float_bases": FLOAT_ROUND,
}


# Known-defect probes: jobs whose true verdict is pass but which fail on a
# known defect of basiskit.  They run once per run, outside the timed
# passes, and are reported apart from the oracle's jobs.
PROBES = {"float_bases": (job_scale_probe, 4)}


def probes(workload: str, seed: int) -> list:
    """The workload's probe jobs for ``seed`` (none for most workloads)."""
    if workload not in PROBES:
        return []
    build, count = PROBES[workload]
    rng = Random(f"{workload}/{seed}/probes")
    return [build(rng, f"p{i:05d}", None) for i in range(count)]


def stream(workload: str, seed: int):
    """The workload's endless job stream for ``seed``, one round at a time."""
    template = WORKLOADS[workload]
    rng = Random(f"{workload}/{seed}")
    count = 0
    while True:
        order = list(range(len(template)))
        rng.shuffle(order)
        for slot in order:
            build, arg = template[slot]
            yield build(rng, f"{workload[0]}{count:05d}", arg)
            count += 1
