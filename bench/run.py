"""Closed-loop CLI job-mix benchmark for basiskit.

Run from the root of a checkout:

    python3 bench/run.py --workload finite_repcheck --seed 1 --seconds 30 --trace 0

One client runs a seeded list of ``basiskit`` command lines back to back
through ``basiskit.cli.main(argv)`` in this process, each job waiting for
its verdict before the next starts, and repeats the list in passes for
about ``--seconds`` of wall time.  Times are reported at reference speed:
each job's time is scaled by a fixed reference task timed around it, so
that the shared host's own speed changes cancel, and the median over the
passes is used.  Every job run's exit code, check verdicts and facts are
compared with the oracle the generator built.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics from traced passes with ``--trace 1``).

Other modes: ``--compare A.jsonl B.jsonl`` judges two sets of runs saved
with ``--out``; ``--selftest`` checks that the inputs and work counts are
reproducible.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from harness import (  # noqa: E402
    ROOT,
    SRC,
    REFERENCE_S,
    BenchError,
    JobSource,
    import_basiskit,
    matches,
    reference_speed_times,
    run_pass,
    time_reference,
)

MIN_PASSES = 3  # each job's median time needs a few runs spread over the run
SETUP_EVERY = 32  # reference tasks between two set-up samples
MIN_SETUP_SAMPLES = 9
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import basiskit.cli
basiskit.cli.build_parser()
elapsed = time.perf_counter() - start
if not basiskit.cli.__file__.startswith(sys.argv[1]):
    sys.exit("basiskit was imported from outside the checkout")
print(repr(elapsed))
"""


def setup_once() -> float:
    """Time for a fresh interpreter to import the CLI and build its parser."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_sample() -> tuple:
    """One set-up sample: a fresh interpreter's set-up time as measured and
    at reference speed, scaled like the job times by the reference task
    timed just before and just after it (``harness.reference_speed_times``)."""
    before = [time_reference() for _ in range(2)]
    elapsed = setup_once()
    after = [time_reference() for _ in range(2)]
    return elapsed, REFERENCE_S * elapsed / statistics.median(before + after)


# -- metrics ---------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles(n=100)`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def report_jobs(jobs, passes) -> int:
    """Print mismatches and planted defects; return the failed job runs."""
    failed = 0
    for times, results in passes:
        for job, got in zip(jobs, results):
            if not matches(job, got):
                failed += 1
                print(f"MISMATCH {job.id} {job.kind}: expected {job.expected()}, got "
                      f"{ {k: got[k] for k in ('exit', 'checks', 'facts', 'clean')} }")
    planted = Counter()
    for job, got in zip(jobs, passes[0][1]):
        if job.kind.startswith("defect/") and matches(job, got):
            failing = sorted(k for k, v in got["checks"].items() if not v) or ["load"]
            planted[(job.kind, job.exit, ",".join(failing))] += 1
    for (kind, code, failing), n in sorted(planted.items()):
        print(f"planted {kind}: {n} reported, exit {code}, failing {failing}")
    print(f"errors: {failed} of {len(jobs) * len(passes)} job runs")
    return failed


def run_probes(cli, workload: str, seed: int, workdir: Path) -> None:
    """Run the workload's known-defect probes once and list the failures.
    They are not timed and not counted in the result line."""
    jobs = workloads.probes(workload, seed)
    if not jobs:
        return
    source = JobSource(workload, seed, workdir, jobs=jobs)
    _, results = run_pass(cli, source, len(jobs))
    failed = [j.id for j, r in zip(jobs, results) if not matches(j, r)]
    print(f"known-defect probes: {len(failed)} of {len(jobs)} failed: "
          f"{' '.join(failed) or '-'}")


def run_passes(seconds: float, one_pass) -> list:
    """Call ``one_pass`` until another pass would take the run past
    ``seconds`` of wall time, but at least ``MIN_PASSES`` times unless that
    would take it past three times ``seconds``.  Returns the passes'
    return values."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / len(passes)
        if next_end > seconds and (len(passes) >= MIN_PASSES or next_end > 3 * seconds):
            return passes


def median_times(passes) -> list:
    """Each job's median time over the passes."""
    return [statistics.median(col) for col in zip(*passes)]


def end_to_end(job_s, failed, attempted, setup_s) -> dict:
    """``job_s``: each job's time at reference speed."""
    return {
        "jobs_per_s_ref": (len(job_s) / sum(job_s), "jobs/s"),
        "job_ms_p50_ref": (1000.0 * statistics.median(job_s), "ms"),
        "job_ms_p90_ref": (1000.0 * percentile(job_s, 90), "ms"),
        "match_rate": (1.0 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_UNITS = {"_ms": "ms/job", ".raised": "count/job", ".bytes": "B/job",
               ".overhead": "ratio"}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count/job")


def main_run(args) -> int:
    cli = import_basiskit()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        source = JobSource(args.workload, args.seed, workdir)
        count = source.pass_length
        jobs = [source[i] for i in range(count)]
        print(f"workload {args.workload} seed {args.seed}: {count} jobs per pass, "
              "one client, closed loop")
        print(f"inputs sha256 {source.digest()}")
        gc.collect()
        gc.freeze()
        if not args.trace:
            setup_once()  # writes the bytecode cache; not counted
            setup, runs = [], [0]

            def one_pass():
                reference = []

                def between():
                    runs[0] += 1
                    if runs[0] % SETUP_EVERY == 0:
                        setup.append(setup_sample())
                    reference.append(time_reference())

                times, results = run_pass(cli, source, count, between=between)
                return times, results, reference

            passes = run_passes(args.seconds, one_pass)
            failed = report_jobs(jobs, [(t, r) for t, r, _ in passes])
            attempted = count * len(passes)
            correct = failed == 0
            while len(setup) < MIN_SETUP_SAMPLES:
                setup.append(setup_sample())
            job_s = reference_speed_times([(t, ref) for t, _, ref in passes])
            measured = median_times([t for t, _, _ in passes])
            print(f"{len(passes)} passes, {sum(sum(t) for t, _, _ in passes):.2f} s in "
                  "basiskit.cli.main; each job's median over the passes is used")
            print(f"as measured, without the reference-speed scaling: jobs_per_s "
                  f"{len(measured) / sum(measured):.4g}, job_ms_p50 "
                  f"{1000 * statistics.median(measured):.4g}, job_ms_p90 "
                  f"{1000 * percentile(measured, 90):.4g}, setup_s "
                  f"{statistics.median(raw for raw, _ in setup):.4g} "
                  f"(the median of {len(setup)} samples)")
            metrics = end_to_end(job_s, failed, attempted,
                                 statistics.median(ref for _, ref in setup))
        else:
            metrics, failed, attempted = traced_run(cli, source, jobs, args)
            correct = failed == 0
        run_probes(cli, args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def traced_run(cli, source, jobs, args) -> tuple:
    """Alternate untraced and traced passes over the same jobs.  Returns
    the per-layer metrics, the job runs that failed (a traced verdict
    that differs from the oracle or from the untraced verdict counts as
    failed) and the job runs attempted."""
    from tracer import Tracer

    count = len(jobs)
    tracer = Tracer()
    first_counts = {}
    key = lambda r: (r["exit"], r["checks"], r["facts"], r["clean"])

    def one_pair():
        plain_times, plain = run_pass(cli, source, count)
        tracer.install()
        try:
            traced_times, traced = run_pass(cli, source, count, tracer=tracer)
        finally:
            tracer.restore()
        if not first_counts:
            first_counts.update(tracer.deterministic_counts())
            first_counts["representations.cases"] = sum(r["cases"] for r in traced)
        failed = sum(1 for job, r in zip(jobs, plain) if not matches(job, r))
        failed += sum(1 for job, p, t in zip(jobs, plain, traced)
                      if not matches(job, t) or key(p) != key(t))
        return plain_times, traced_times, traced, failed

    pairs = run_passes(args.seconds, one_pair)
    failed = sum(p[3] for p in pairs)
    print(f"{len(pairs)} untraced and {len(pairs)} traced passes of {count} jobs; "
          f"failed job runs (traced verdicts compared with the oracle and with "
          f"the untraced run's): {failed}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(span_file)
    print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    print("deterministic counts per pass: " + json.dumps(first_counts, sort_keys=True))
    runs = count * len(pairs)
    layers = tracer.layer_metrics(runs)
    layers["representations.cases"] = sum(r["cases"] for p in pairs for r in p[2]) / runs
    plain = median_times([p[0] for p in pairs])
    traced = median_times([p[1] for p in pairs])
    layers["trace.overhead"] = sum(traced) / sum(plain)
    metrics = {k: (v, layer_unit(k)) for k, v in sorted(layers.items())}
    return metrics, failed, 2 * runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's result to a JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="judge two JSONL result files")
    parser.add_argument("--selftest", action="store_true",
                        help="check that inputs and work counts are reproducible")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            import compare

            return compare.main(*args.compare, ROOT / "BENCHMARK.json")
        if args.selftest:
            import selfcheck

            return selfcheck.main(import_basiskit())
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        return main_run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
