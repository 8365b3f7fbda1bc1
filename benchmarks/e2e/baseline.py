#!/usr/bin/env python3
"""Measure the benchmark's baseline and record its expected digests.

    python3 benchmarks/e2e/baseline.py [--runs 5] [--workloads a,b]

Runs two independent sets of ``--runs`` untraced runs of every workload
(set A on seeds 1..runs, set B on the next ``runs`` seeds), one at a
time, and writes ``baseline.json``: per (metric, workload) the median
and inter-quartile range of each set, the spread of all runs together
(IQR / median, what the metric's bound in BENCHMARK.json must cover),
one traced per-layer table (seed 1), and the host it ran on.  With
``--expected`` it also writes the round digests of every clean run to
``expected.json`` (round ``i`` of a seed is the same work whatever
``--seconds`` is, so any run checks the rounds it shares with them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"


def run(workload: str, seed: int, trace: int) -> dict:
    part = HERE / f".baseline.{workload}.{seed}.json"
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--json", str(part)]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           check=False)
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(part.read_text())
    finally:
        if part.exists():
            os.remove(part)
    result["exit"] = child.returncode
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads")
    parser.add_argument("--expected", action="store_true",
                        help="also write expected.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = [m["name"] for m in spec["end_to_end"]]
    sets = {"A": range(1, args.runs + 1),
            "B": range(args.runs + 1, 2 * args.runs + 1)}
    results = {name: {} for name in names}
    for seeds in sets.values():
        for seed in seeds:
            for name in names:
                results[name][seed] = run(name, seed, trace=0)

    baseline = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(), "system": platform.system()},
        "run_seconds": spec["run_seconds"],
        "sets": {}, "spread": {}, "per_layer": {}}
    for label, seeds in sets.items():
        baseline["sets"][label] = {"seeds": list(seeds), "metrics": {
            name: {m: summary([results[name][s]["metrics"][m]
                               for s in seeds]) for m in metrics}
            for name in names}}
    for name in names:
        baseline["spread"][name] = {}
        for m in metrics:
            every = summary([r["metrics"][m] for r in results[name].values()])
            baseline["spread"][name][m] = every["iqr"] / every["median"]
        baseline["per_layer"][name] = run(name, 1, trace=1)["metrics"]
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")

    if args.expected:
        path = HERE / "expected.json"
        expected = json.loads(path.read_text()) if path.exists() else {}
        for name in names:
            entry = expected.setdefault(name, {"seeds": {}})
            for seed, result in sorted(results[name].items()):
                if result["exit"] == 0 and result["failed"] == 0:
                    entry["seeds"][str(seed)] = result["round_digests"]
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
