"""Reproducibility self-test of the benchmark (``run.py --selftest``).

For each workload it checks that:

- the same seed gives byte-identical inputs, and the same work counts
  and verdicts when the first round is run traced twice;
- another seed gives different inputs drawn from the same mix (the same
  number of jobs of each kind);
- every job of the round matches its oracle;
- tracing leaves no wrapper behind.
"""

from __future__ import annotations

import shutil
import sys
from collections import Counter

import harness
import workloads
from tracer import Tracer


def _traced_round(cli, workload: str, seed: int, workdir) -> tuple:
    """Digest, job kinds, deterministic counts and results of the first round."""
    workdir.mkdir(parents=True)
    try:
        source = harness.JobSource(workload, seed, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            _, results = harness.run_pass(cli, source, source.round_length, tracer=tracer)
        finally:
            tracer.restore()
        counts = tracer.deterministic_counts()
        counts["representations.cases"] = sum(r["cases"] for r in results)
        return source.digest(), Counter(j.kind for j in source.jobs), counts, source.jobs, results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _leftover_wrappers() -> list:
    """Names in basiskit modules and classes still bound to a tracer wrapper."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "basiskit" and not modname.startswith("basiskit."):
            continue
        for name, value in vars(module).items():
            owners = [(name, value)]
            if isinstance(value, type) and value.__module__ == modname:
                owners += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            found += [f"{modname}.{n}" for n, v in owners if hasattr(v, "bench_original")]
    return found


def main(cli) -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    base = harness.ROOT / ".bench_work" / "selfcheck"
    for workload in workloads.WORKLOADS:
        print(workload)
        a = _traced_round(cli, workload, 1, base / "a")
        b = _traced_round(cli, workload, 1, base / "b")
        c = _traced_round(cli, workload, 2, base / "c")
        check(a[0] == b[0], f"seed 1 twice: same inputs ({a[0][:16]})")
        check(a[2] == b[2], f"seed 1 twice: same work counts {a[2]}")
        check(a[4] == b[4], "seed 1 twice: same verdicts")
        check(a[0] != c[0], f"seed 2: other inputs ({c[0][:16]})")
        check(a[1] == c[1], "seed 2: same mix of job kinds")
        wrong = [j.id for j, r in zip(a[3], a[4]) if not harness.matches(j, r)]
        check(not wrong, f"every job matches its oracle {wrong or ''}")
    check(not _leftover_wrappers(), f"tracing restored every function {_leftover_wrappers()}")
    print("selftest: " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0
