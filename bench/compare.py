"""Judge two sets of benchmark runs, one row per workload and metric.

Each input is a JSONL file written by ``run.py --out``: one record per run
with its workload, seed, trace flag and result.  Runs of the two sides are
paired by seed where both have it, otherwise in file order.

The verdict follows the rule for a small, noisy machine: a metric
*improved* when the change wins at least nine tenths of the pairs (ties
count for neither) and the medians differ, in the better direction, by
more than the parent's own quartile spread.  Otherwise it is *no worse*
when the change's median is within the metric's bound of the parent's,
*worse* when it is not, and *unresolved* when the parent's runs spread
wider than the bound, unless every change run beats every parent run.
Per-layer metrics have no bound and are only judged for improvement.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """workload -> metric -> [(seed, value)] in file order."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, metric in record["result"]["metrics"].items():
                    runs[record["workload"]][name].append((record["seed"], metric["value"]))
    return runs


def pairs(a: list, b: list) -> list:
    by_seed = dict(b)
    if len(by_seed) == len(b) and all(seed in by_seed for seed, _ in a):
        return [(va, by_seed[seed]) for seed, va in a]
    return list(zip((v for _, v in a), (v for _, v in b)))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(a: list, b: list, better: str, bound) -> tuple:
    """Returns (pairs won by the change, pairs, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    matched = pairs(a, b)
    won = sum(1 for va, vb in matched if sign * (vb - va) > 0)
    va = [v for _, v in a]
    vb = [v for _, v in b]
    q1, med_a, q3 = quartiles(va)
    med_b = statistics.median(vb)
    gain = sign * (med_b - med_a)
    if matched and won >= 0.9 * len(matched) and gain > q3 - q1:
        return won, len(matched), "improved"
    if bound is None:
        return won, len(matched), "-"
    every_run_better = min(sign * x for x in vb) > max(sign * x for x in va)
    if med_a and (q3 - q1) / abs(med_a) > bound and not every_run_better:
        return won, len(matched), "unresolved"
    worse = -gain / abs(med_a) if med_a else (0.0 if gain >= 0 else float("inf"))
    return won, len(matched), "no worse" if worse <= bound or every_run_better else "worse"


def main(parent_path, change_path, benchmark_path) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':16s} {'metric':28s} {'unit':9s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'won':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, m in meta.items():
            a, b = parent[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            won, n, verdict = judge(a, b, m["better"], m.get("bound"))
            qa = "/".join(f"{x:.4g}" for x in quartiles([v for _, v in a]))
            qb = "/".join(f"{x:.4g}" for x in quartiles([v for _, v in b]))
            print(f"{workload:16s} {name:28s} {m['unit']:9s} {qa:>32s} {qb:>32s} "
                  f"{won:>3d}/{n:<3d}  {verdict}")
    return 0
