#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with a per-layer breakdown.

One workload::

    python3 benchmarks/e2e/run.py --workload iperf_ckpt --seed 1 \\
        --seconds 15 --trace 0

All workloads (or ``--workloads a,b``), each in a fresh child process so
only one core is busy and ``peak_rss_mb`` is per workload::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--json PATH]

Each run builds its rig several times from a new ``Simulator()`` (the
median is ``setup_s``), then runs a fixed number of the workload's
rounds: ``--seconds`` times the workload's ``rounds_per_second``, the
rate at which rounds ran on the reference host (2 vCPUs, Python 3.11),
so the measured phase lasts about ``--seconds`` there and the work done
is the same on every commit.  Rounds that the host slowed down are left
out of the timings (see :func:`counted_rounds`).  Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json, or with ``--trace 1`` its
``per_layer`` metrics).  Round digests are checked
against ``expected.json``; a mismatch or a failed operation makes the
exit status non-zero.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: set-up repeats: at least SETUP_BUILDS builds, and more (up to
#: SETUP_MAX_BUILDS) while they add up to less than SETUP_MIN_S, because
#: the median of a sub-millisecond set-up needs more samples
SETUP_BUILDS = 5
SETUP_MIN_S = 0.25
SETUP_MAX_BUILDS = 50
DEFAULT_SECONDS = 15


def clock() -> float:
    return time.perf_counter()  # repro: noqa=DET001


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def counted_rounds(round_s: List[float]) -> List[int]:
    """The rounds whose times count: those at most 10% slower than the
    run's 10th-percentile round, and never fewer than the fastest quarter.

    Every round of a workload does the same amount of work, but the
    shared host runs some of them 20-80% slower while its neighbours are
    busy; like ``timeit``'s minimum, this keeps the rounds that ran at
    the host's full speed.
    """
    limit = 1.10 * percentile(round_s, 10)
    counted = [i for i, t in enumerate(round_s) if t <= limit]
    if len(counted) < len(round_s) / 4:
        fastest = sorted(range(len(round_s)), key=round_s.__getitem__)
        counted = sorted(fastest[:max(1, len(round_s) // 4)])
    return counted


class Phase:
    """Runs rounds of one workload on one rig and keeps their samples."""

    def __init__(self, workload, expected: List[str], tracer=None):
        self.workload = workload
        self.expected = expected
        self.tracer = tracer
        self.round_s: List[float] = []
        #: operation times (ms) of each round
        self.op_ms: List[List[float]] = []
        self.digests: List[str] = []
        self.done = 0
        self.failed = 0
        self.mismatches = 0

    def run(self, rig, rounds: int) -> None:
        """Rounds ``0..rounds-1`` on ``rig``; stops at the first failed one."""
        for index in range(rounds):
            planned = (rounds - index) * self.workload.ops_per_round
            if not self._round(rig, index, planned):
                return

    def _round(self, rig, index: int, planned: int) -> bool:
        from rigs import digest_of

        tracer = self.tracer
        done = 0            # operations that finished and passed the checks
        op_ms: List[float] = []
        started = clock()
        try:
            gen = self.workload.round(rig, index)
            thunk = next(gen)
            while thunk is not None:
                if tracer is not None:
                    tracer.op = self.done + done
                t = clock()
                result = thunk()
                elapsed = clock() - t
                if tracer is not None:
                    tracer.op = -1
                try:
                    thunk = gen.send(result)    # checks the result
                except StopIteration as stop:
                    payload, thunk = stop.value, None
                op_ms.append(elapsed * 1e3)
                done += 1
        except Exception:   # an operation failed: report it, stop the phase
            traceback.print_exc()
            self.done += done
            self.failed += planned - done
            return False
        self.round_s.append(clock() - started)
        self.op_ms.append(op_ms)
        digest = digest_of(payload)
        self.digests.append(digest)
        if index < len(self.expected) and digest != self.expected[index]:
            print(f"round {index}: digest {digest} != expected "
                  f"{self.expected[index]}", file=sys.stderr)
            self.mismatches += 1
            self.failed += planned
            return False
        self.done += done
        return True


def expected_digests(name: str, seed: int) -> List[str]:
    path = HERE / "expected.json"
    if not path.exists():
        return []
    table = json.loads(path.read_text())
    return table.get(name, {}).get("seeds", {}).get(str(seed), [])


def setup(workload, builds: int = SETUP_BUILDS):
    """Build the rig repeatedly; returns the last rig and the build times."""
    times: List[float] = []
    rig = None
    while len(times) < builds or (sum(times) < SETUP_MIN_S
                                  and len(times) < SETUP_MAX_BUILDS):
        rig = None
        gc.collect()
        t = clock()
        rig = workload.build()
        times.append(clock() - t)
    gc.collect()
    return rig, times


def measure(name: str, seed: int, seconds: float, smoke: bool,
            trace: bool, spans_path: Optional[str]) -> dict:
    from rigs import WORKLOADS, digest_of

    cls = WORKLOADS[name]
    workload = cls(seed)
    rounds = cls.smoke_rounds if smoke else \
        max(1, round(cls.rounds_per_second * seconds))
    expected = expected_digests(name, seed)
    result = {"workload": name, "seed": seed, "rounds": rounds}
    if not trace:
        rig, setup_s = setup(workload)
        phase = Phase(workload, expected)
        phase.run(rig, rounds)
        counted = counted_rounds(phase.round_s) if phase.round_s else []
        result["metrics"] = _end_to_end(phase, setup_s, counted)
        result["samples"] = {"setup_s": setup_s, "round_s": phase.round_s,
                             "op_ms": phase.op_ms, "counted": counted}
        result["notes"] = {
            "setup_s": f"median of {len(setup_s)} builds",
            "round_s": f"{len(counted)} of {len(phase.round_s)} rounds",
            "op_ms_p50": f"n={sum(len(phase.op_ms[i]) for i in counted)}"}
        result["notes"]["op_ms_p75"] = result["notes"]["op_ms_p50"]
        phases = [phase]
    else:
        from spans import SpanTracer

        rig, _setup = setup(workload, builds=1)
        plain = Phase(workload, expected)
        t = clock()
        plain.run(rig, rounds)
        untraced_s = clock() - t
        rig = None
        tracer = SpanTracer(record_spans=spans_path is not None)
        tracer.install()
        try:
            rig, _setup = setup(workload)
            tracer.reset()
            core_key = tracer.key("bench", "bench", "core")
            traced = Phase(workload, expected, tracer=tracer)
            tracer.enter(core_key)
            try:
                traced.run(rig, rounds)
            finally:
                tracer.exit()
        finally:
            tracer.uninstall()
        result["metrics"] = tracer.layer_metrics(core_key.incl_ns / 1e9,
                                                 untraced_s)
        if spans_path is not None:
            result["spans_written"] = tracer.write_spans(spans_path)
        phases = [plain, traced]
        if traced.digests != plain.digests[:len(traced.digests)]:
            print("traced digests differ from untraced ones",
                  file=sys.stderr)
            traced.mismatches += 1
    last = phases[-1]
    result["round_digests"] = last.digests
    result["digest"] = digest_of(last.digests)
    result["attempted"] = sum(p.done + p.failed for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["correct"] = not any(p.mismatches for p in phases)
    return result


def _end_to_end(phase: Phase, setup_s: List[float],
                counted: List[int]) -> dict:
    round_s = [phase.round_s[i] for i in counted] or [0.0]
    op_ms = [t for i in counted for t in phase.op_ms[i]] or [0.0]
    return {"setup_s": statistics.median(setup_s),
            "round_s": statistics.median(round_s),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p75": percentile(op_ms, 75),
            "peak_rss_mb": peak_rss_mb()}


def _metric_table(spec: dict, trace: bool) -> List[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args, spec: dict) -> int:
    from rigs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.smoke,
                     bool(args.trace), args.spans)
    table = _metric_table(spec, bool(args.trace))
    if sorted(m["name"] for m in table) != sorted(result["metrics"]):
        print("computed metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed}"
          f"{' traced' if args.trace else ''}: {result['rounds']} rounds, "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"digest {result['digest']}")
    notes = result.get("notes", {})
    for metric in table:
        value = result["metrics"][metric["name"]]
        print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']:<6}"
              f" {notes.get(metric['name'], '')}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in table}}))
    return 0 if result["correct"] and not result["failed"] else 1


def run_all(args, spec: dict) -> int:
    from rigs import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}", file=sys.stderr)
        return 2
    status, results = 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        part = f"{args.json}.{name}.part" if args.json else None
        if part:
            cmd += ["--json", part]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               check=False)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        if part and os.path.exists(part):
            results[name] = json.loads(Path(part).read_text())
            os.remove(part)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--workloads",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the measured phase (see above)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="a few rounds whatever --seconds says, for "
                             "the self-test")
    parser.add_argument("--json", help="also write the full results here")
    parser.add_argument("--spans",
                        help="with --trace: write every span here "
                             "(JSON lines)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
