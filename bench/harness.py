"""Running basiskit jobs in this process, checking them against the oracle,
and scaling their times to reference speed.

Shared by ``run.py`` (the timed runs) and ``selfcheck.py`` (the
reproducibility self-test).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile

# The reference task's time at reference speed, in seconds.  Job times are
# reported at the machine speed at which the task takes exactly this long;
# see ``reference_speed_times``.
REFERENCE_S = 0.001
REFERENCE_WINDOW = 4  # reference tasks on each side of a job that set its speed


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_basiskit():
    """Import the checkout's own ``basiskit.cli``, never an installed copy."""
    if not (SRC / "basiskit" / "cli.py").is_file():
        raise BenchError(f"no basiskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import basiskit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"basiskit was imported from {cli.__file__}, not {SRC}")
    return cli


# -- jobs ------------------------------------------------------------------------


class JobSource:
    """A job stream with its files written to ``workdir``.

    Jobs are generated as the runner needs them, always before the job's
    own timing starts.  The digest covers every job generated, in order,
    with file names relative to ``workdir``.  ``pass_length`` is the
    number of jobs one timed pass runs: whole rounds, at least
    ``MIN_JOBS``.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, jobs=None):
        self.jobs = []
        self.round_length = len(workloads.WORKLOADS[workload])
        self.pass_length = -(-MIN_JOBS // self.round_length) * self.round_length
        self.workdir = workdir
        self._stream = iter(jobs) if jobs is not None else workloads.stream(workload, seed)
        self._digest = hashlib.sha256()

    def __getitem__(self, i: int):
        while len(self.jobs) <= i:
            job = next(self._stream)
            for name, doc in job.files.items():
                (self.workdir / name).write_text(json.dumps(doc), encoding="utf-8")
            self._digest.update(json.dumps([job.argv, job.files], sort_keys=True).encode())
            self.jobs.append(job)
        return self.jobs[i]

    def argv(self, job) -> list:
        return [str(self.workdir / a) if a in job.files else a for a in job.argv]

    def digest(self) -> str:
        return self._digest.hexdigest()


def summarize(job, rc, stdout: str, stderr: str, error) -> dict:
    """Exit code, check verdicts and facts of one run of a job."""
    out = {"exit": rc, "checks": {}, "facts": {}, "cases": 0, "clean": True}
    if error is not None:
        out["exit"] = "raised"
        out["clean"] = False
        return out
    if "Traceback" in stderr:
        out["clean"] = False
    if not stdout:
        # a rejected input: exactly one line, starting with "error:"
        out["clean"] = out["clean"] and stderr.startswith("error:") and stderr.count("\n") == 1
        return out
    report = json.loads(stdout)
    out["checks"] = {c["name"]: c["passed"] for c in report["checks"]}
    out["cases"] = sum(c.get("checked", 0) for c in report["checks"])
    command, data = report["command"], report["data"]
    if command == "repcheck":
        c = data["classification"]
        if isinstance(c, str):
            out["facts"] = {"classified": False}
        else:
            out["facts"] = {
                "classified": True,
                "transitive": c["transitive"],
                "effective": c["effective"],
                "kernel_size": c["kernel_size"],
                # single_transitive is "transitive and effective"; the
                # unique-transport cross-check overrules it when they disagree
                "regular": c["single_transitive"] and c["uniqueness_agrees"] is not False,
            }
    elif command == "orbit":
        out["facts"] = {"size": data["size"], "orbit_count": data["orbit_count"]}
    elif command == "object" and "orbit_size" in data:
        out["facts"] = {"orbit_size": data["orbit_size"]}
    return out


def matches(job, got: dict) -> bool:
    if not got["clean"] or got["exit"] != job.exit or got["facts"] != job.facts:
        return False
    if job.checks is workloads.ALL_PASS:
        return bool(got["checks"]) and all(got["checks"].values())
    return got["checks"] == job.checks


def run_one(cli, source: JobSource, job):
    """Run one job; returns (seconds, summary).  Only ``main`` is timed."""
    argv = source.argv(job)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed job, not a failed run
            rc, error = None, exc
        elapsed = time.perf_counter() - start
    if error is not None:
        print(f"{job.id}: {''.join(traceback.format_exception(error)).strip()}", file=sys.stderr)
    return elapsed, summarize(job, rc, out.getvalue(), err.getvalue(), error)


# -- machine speed -----------------------------------------------------------------


def reference_task():
    """Fixed pure-Python work of the kinds basiskit does (``Fraction``
    arithmetic, small float matrices, dicts, JSON), without basiskit."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 17 - 8, i % 13 + 1) * Fraction(3, i % 5 + 1)
    rows = [[float(i * j % 7) for j in range(8)] for i in range(8)]
    product = [[sum(a * b for a, b in zip(r, c)) for c in zip(*rows)] for r in rows]
    table = {(i, i % 7): [i, str(i)] for i in range(800)}
    return total, len(json.dumps({"rows": product, "size": len(table)}))


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def reference_speed_times(passes) -> list:
    """Each job's time at reference speed: the median over the passes.

    ``passes`` holds, per pass, the job times and the reference task's
    times taken before the first job and after every job.  A shared host's
    speed wanders by tens of percent, at times for minutes on end, and a
    job's time moves with it.  The reference task timed around the job
    moves the same way, so the job's time divided by the median of the
    ``2 * REFERENCE_WINDOW`` reference times nearest to it, times
    ``REFERENCE_S``, is the time the job would take at the speed where the
    task takes ``REFERENCE_S``."""
    out = []
    for i in range(len(passes[0][0])):
        ratios = []
        for times, ref in passes:
            near = ref[max(0, i - REFERENCE_WINDOW + 1): i + REFERENCE_WINDOW + 1]
            ratios.append(times[i] / statistics.median(near))
        out.append(REFERENCE_S * statistics.median(ratios))
    return out


def run_pass(cli, source: JobSource, count: int, tracer=None, between=None):
    """Run the first ``count`` jobs of ``source`` once each, in order.
    Returns per-job seconds and summaries.  Output checking, garbage
    collection and ``between`` (called before the first job and after each
    job) happen outside the timed calls."""
    times, results = [], []
    if between is not None:
        between()
    for i in range(count):
        job = source[i]
        if tracer is not None:
            tracer.job = job.id
        elapsed, summary = run_one(cli, source, job)
        times.append(elapsed)
        results.append(summary)
        gc.collect()
        if between is not None:
            between()
    return times, results
