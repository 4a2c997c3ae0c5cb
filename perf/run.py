#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name with its unit.

Driver form (one workload, one run, result as the last line of stdout)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Human form (every workload, untraced then traced, in fresh subprocesses so
each workload's set-up time and peak memory are its own)::

    python3 perf/run.py [--seed N] [--seconds S] [--quick]

which also writes ``perf/out/result.json``.  ``BENCHMARK.json`` at the repo
root is the registry of workloads, metric names, units and bounds; this
script refuses to report a name that is not listed there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
# The program is run from this checkout's source tree, never from an installed copy.
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

QUICK_DIVISOR = 10


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def environment() -> dict:
    import numpy

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # BLAS threading is left as the program finds it; this is how it was found.
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload in this process and return its full record."""
    from perfstats import constant, summarize
    from perftrace import Tracer
    from workloads import WORKLOADS, Context

    manifest = load_manifest()
    OUT.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        workload = WORKLOADS[name](Context(seed, seconds, trace, tmp_dir, tracer, quick))
        workload.load()
        workload.setup()
        if trace:
            measured = workload.measure_layers()
            tracer.dump(OUT / f"trace_{name}.json")
        else:
            measured = workload.measure()
        workload.discard()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    listed = {m["name"]: m for m in manifest["per_layer" if trace else "end_to_end"]}
    unknown = sorted(set(measured) - set(listed))
    if unknown:
        raise SystemExit(f"{name}: metrics not listed in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric, spec in listed.items():
        if trace:
            # A layer this workload never enters did no work and took no time.
            metrics[metric] = constant(measured.get(metric, 0.0), spec["unit"])
        elif metric not in measured:
            raise SystemExit(f"{name}: end-to-end metric {metric} was not measured")
        else:
            metrics[metric] = summarize(measured[metric], spec["unit"])
    return {
        "workload": name,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "label": "quick" if quick else "full",
        "correct": not workload.problems and workload.failed == 0,
        "problems": workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        # Timings divided by this are the timings as measured (see perfhost).
        "host_speed": statistics.median(workload.host.samples),
        "metrics": metrics,
    }


def print_record(record: dict) -> None:
    """``workload metric value unit`` per line, then the driver's result line."""
    label = "" if record["label"] == "full" else "  [quick: not comparable with full runs]"
    for metric, entry in record["metrics"].items():
        spread = ""
        if entry["n"] > 1:
            spread = f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']})"
        print(f"{record['workload']} {metric} {entry['value']:.6g} {entry['unit']}{spread}{label}")
    for problem in record["problems"]:
        print(f"{record['workload']} INCORRECT: {problem}", file=sys.stderr)
    print(
        json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in record["metrics"].items()
            },
        }),
        flush=True,
    )


def run_one(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f)
    print_record(record)
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    manifest = load_manifest()
    OUT.mkdir(exist_ok=True)
    result = {
        "label": "quick" if args.quick else "full",
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(),
        "workloads": {},
    }
    status = 0
    for spec in manifest["workloads"]:
        name = spec["name"]
        entry = {"why": spec["why"]}
        for trace in (0, 1):
            record_path = OUT / f"record_{name}_{trace}.json"
            command = [
                sys.executable, str(PERF / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.full_seconds), "--trace", str(trace),
                "--record", str(record_path),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, check=False)
            status = status or done.returncode
            if record_path.exists():
                with open(record_path, encoding="utf-8") as f:
                    record = json.load(f)
                record_path.unlink()
                entry["layers" if trace else "end_to_end"] = record
        result["workloads"][name] = entry
    with open(OUT / "result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {OUT / 'result.json'}" + ("  [quick]" if args.quick else ""))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: rerun with the proxies on and report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"a smoke run: 1/{QUICK_DIVISOR} of the measured phase, one set-up")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"{SRC / 'repro'}: the program's source is not in this checkout")
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    args.full_seconds = args.seconds
    if args.quick:
        args.seconds /= QUICK_DIVISOR
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
