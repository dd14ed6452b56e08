"""A deterministic fuzz of the command line on the golden inputs.

Each field of each golden descriptor, each inline ``--element`` and an
``orbit --point`` on each golden representation are replaced in turn by
every value of a fixed junk list.  Whatever the input, ``main`` must
return 0, 1 or 2 with nothing escaping it, and an exit 2 must print
exactly one ``error:`` line.  The 200-element and icosahedral jobs are
left out for their running time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Optional

import pytest

from basiskit.cli import main

GOLDEN = Path(__file__).parent / "golden"

JUNK = [None, -1, 0, True, "x", "1/0", [], {}, [[]], 1.5, 1e300, [1, 2]]

SLOW = ("so2_order200", "so3_I")


def _jobs() -> list:
    jobs = []
    for folder in ("exact", "float"):
        expected = json.loads((GOLDEN / folder / "expected.json").read_text(encoding="utf-8"))
        for name, job in expected.items():
            if not name.startswith(SLOW):
                jobs.append((folder, name, job["argv"]))
    return jobs


JOBS = _jobs()


def _mutants(value):
    """``value`` with one field replaced by one junk value, for every dict
    member and the first and last member of every list, recursively."""
    if isinstance(value, dict):
        slots = list(value)
    elif isinstance(value, list):
        slots = sorted({0, len(value) - 1}) if value else []
    else:
        return
    for slot in slots:
        for junk in JUNK:
            copy = value.copy()
            copy[slot] = junk
            yield copy
        for inner in _mutants(value[slot]):
            copy = value.copy()
            copy[slot] = inner
            yield copy


def _fault(argv) -> Optional[str]:
    """The fault of one run, if any: an exception escaping ``main``, an
    exit code outside 0, 1 and 2, or an exit 2 without exactly one error
    line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            return f"raised {type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2 and (len(lines) != 1 or not lines[0].startswith("error: ")):
        return f"exit 2 with stderr {err.getvalue()!r}"
    return None


def _assert_clean(runs) -> None:
    faults = [(argv, fault) for argv in runs if (fault := _fault(argv)) is not None]
    assert not faults, f"{len(faults)} faulty runs, the first: {faults[:3]}"


@pytest.mark.parametrize("folder, name, argv", JOBS, ids=[name for _, name, _ in JOBS])
def test_every_field_of_a_golden_descriptor_fails_cleanly(folder, name, argv):
    paths = {a: GOLDEN / folder / a for a in argv if a.endswith(".json")}
    base = [str(paths.get(a, a)) for a in argv]

    def runs():
        for i, arg in enumerate(argv):
            if arg in paths:
                doc = json.loads(paths[arg].read_text(encoding="utf-8"))
                for mutant in _mutants(doc):
                    yield base[:i] + [json.dumps(mutant)] + base[i + 1 :]

    _assert_clean(runs())


ELEMENT_JOBS = [job for job in JOBS if "--element" in job[2]]


@pytest.mark.parametrize(
    "folder, name, argv", ELEMENT_JOBS, ids=[name for _, name, _ in ELEMENT_JOBS]
)
def test_every_field_of_an_inline_element_fails_cleanly(folder, name, argv):
    base = [str(GOLDEN / folder / a) if a.endswith(".json") else a for a in argv]
    i = base.index("--element") + 1
    element = json.loads(base[i])
    values = [*JUNK, *_mutants(element)]
    _assert_clean(base[:i] + [json.dumps(value)] + base[i + 1 :] for value in values)


def _rotation(angle: float) -> list:
    c, s = math.cos(angle), math.sin(angle)
    return [[c, -s], [s, c]]


# every golden representation, with a point of the right form that its
# carrier holds and one that it does not: a rotation by one radian is in
# SO(2) but not among the stored rotations of order 60
REPRESENTATIONS = {
    "exact/s4_linear_rep.json": [[1, 2, 3, 4], [1, 2]],
    "exact/s5_left_shift.json": [{"index": 120}, 119],
    "float/so2_order36_rep.json": [[1, 2], [1, 2, 3]],
    "float/so2_order60_right_shift.json": [{"matrix": _rotation(1.0)}, {"matrix": _rotation(0.0)}],
}


@pytest.mark.parametrize("path, points", REPRESENTATIONS.items(), ids=list(REPRESENTATIONS))
def test_an_orbit_point_fails_cleanly(path, points):
    argv = ["orbit", "--input", str(GOLDEN / path), "--point"]
    _assert_clean(argv + [json.dumps(value)] for value in [*JUNK, *points])
