#!/usr/bin/env python3
"""Compare two benchmark results, one row per workload and end-to-end metric.

    python3 perf/compare.py A B [--layers]

``A`` and ``B`` are ``result.json`` files written by ``run.py`` or
directories of them (a set of runs of one commit).  With one file a side,
a metric's spread is the quartile range over that run's segments; with a
set, the quartile range over the runs.  Each metric's bound comes from
``BENCHMARK.json``.  A metric whose spread on either side is wider than its
bound is reported as *unresolved*, not as unchanged, unless every run of
``B`` reads better than every run of ``A``.  Operations attempted and failed
are printed per workload; a workload is INVALID, and none of its metrics
counts, when a run on either side failed its correctness checks or ``B``
failed more operations than ``A``.  Exits 1 if any metric is worse or any
workload invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfstats import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_side(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no result files")
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as f:
            runs.append(json.load(f))
    labels = {run["label"] for run in runs}
    if len(labels) != 1:
        raise SystemExit(f"{path}: mixes quick and full runs")
    return runs


def side_stats(runs: list[dict], workload: str, section: str, metric: str):
    """``(q1, median, q3, values)`` of one metric on one side."""
    entries = [
        run["workloads"][workload][section]["metrics"][metric]
        for run in runs
        if section in run["workloads"].get(workload, {})
    ]
    if not entries:
        return None
    values = [entry["value"] for entry in entries]
    if len(entries) == 1:
        only = entries[0]
        return only["q1"], only["value"], only["q3"], values
    return (*quartiles(values), values)


def outcomes(runs: list[dict], workload: str) -> tuple[int, int, int]:
    """``(attempted, failed, runs that failed a correctness check)`` of the
    untraced runs of one workload on one side."""
    records = [
        run["workloads"][workload]["end_to_end"]
        for run in runs
        if "end_to_end" in run["workloads"].get(workload, {})
    ]
    return (
        sum(record["attempted"] for record in records),
        sum(record["failed"] for record in records),
        sum(not record["correct"] for record in records),
    )


def validity(a: tuple[int, int, int], b: tuple[int, int, int]) -> str:
    """Why the workload's numbers do not count, or "" when they do.

    A gain does not count when it was bought with wrong answers: more
    failures (as a share of operations attempted) than the parent had.
    """
    reasons = []
    for side, (_, _, incorrect) in (("A", a), ("B", b)):
        if incorrect:
            reasons.append(f"{incorrect} run(s) of {side} failed a correctness check")
    if b[1] * max(a[0], 1) > a[1] * max(b[0], 1):
        reasons.append("B failed more operations than A")
    return "; ".join(reasons)


def verdict(a, b, better: str, bound: float) -> tuple[float, str]:
    """Signed worsening of B against A as a share of A's median, and what it means."""
    a_q1, a_med, a_q3, a_values = a
    b_q1, b_med, b_q3, b_values = b
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    if spread > bound:
        all_better = (
            max(b_values) < min(a_values)
            if better == "lower"
            else min(b_values) > max(a_values)
        )
        if not all_better:
            return worse_by, f"unresolved (spread {spread:.1%} > bound)"
    if worse_by > bound:
        return worse_by, "WORSE"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--layers", action="store_true",
                        help="also print the per-layer metrics side by side (they have no bound)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    side_a, side_b = load_side(args.a), load_side(args.b)
    if side_a[0]["label"] != side_b[0]["label"]:
        raise SystemExit("a quick run is never compared with a full run")
    print(f"A: {args.a} ({len(side_a)} run(s))   B: {args.b} ({len(side_b)} run(s))")
    status = 0
    for spec in manifest["workloads"]:
        workload = spec["name"]
        done_a, done_b = outcomes(side_a, workload), outcomes(side_b, workload)
        invalid = validity(done_a, done_b)
        status |= bool(invalid)
        print(f"\n{workload}" + (f"  INVALID: {invalid}" if invalid else ""))
        print(f"  operations attempted / failed   A {done_a[0]} / {done_a[1]}   B {done_b[0]} / {done_b[1]}")
        print(f"  {'metric':26s}{'A':>12s}{'B':>12s}{'B vs A':>9s}{'bound':>7s}  verdict")
        for metric in manifest["end_to_end"]:
            a = side_stats(side_a, workload, "end_to_end", metric["name"])
            b = side_stats(side_b, workload, "end_to_end", metric["name"])
            if a is None or b is None:
                continue
            worse_by, word = verdict(a, b, metric["better"], metric["bound"])
            status |= word == "WORSE"
            arrow = "worse" if worse_by > 0 else "better"
            print(
                f"  {metric['name']:26s}{a[1]:12.5g}{b[1]:12.5g}"
                f"{abs(worse_by):8.1%} {metric['bound']:6.0%}  {word}"
                + (f" ({arrow})" if word == "within bound" and worse_by else "")
            )
        if not args.layers:
            continue
        for metric in manifest["per_layer"]:
            a = side_stats(side_a, workload, "layers", metric["name"])
            b = side_stats(side_b, workload, "layers", metric["name"])
            if a is None or b is None or (a[1] == 0.0 and b[1] == 0.0):
                continue
            print(f"  {metric['name']:44s}{a[1]:12.5g}{b[1]:12.5g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
