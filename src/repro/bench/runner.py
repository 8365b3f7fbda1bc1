"""The ``repro bench`` runner: every scenario timed on the one scheduler.

Each scenario runs ``reps`` times and records the median wall clock with
its interquartile range (``seconds`` / ``seconds_iqr``).  The runs are
deterministic, so every repetition must return the same digest; where a
stored golden exists (``benchmarks/results/PIPELINE_digests.json``) that
digest must also equal the golden bit for bit.  ``event_churn`` carries
the one hard-fail throughput gate: its cost per event divided by the cost
of a frozen pure-Python heapq loop
(:func:`~repro.bench.scenarios.run_calibrator`) timed in the same
process, so host speed and load cancel out of the gated ratio.

Output goes to ``BENCH_sim_core.json`` at the repository root (or the
path given with ``--output``); ``repro bench --profile`` writes its
hot-spot report to ``benchmarks/results/PROFILE_sim_core.json``.
Wall-clock reads below are the *host* clock measuring the benchmark
harness itself, never simulated time — hence the targeted DET001
suppressions.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.scenarios import (run_calibrator, run_ckpt10,
                                   run_event_churn, run_fig4, run_fig5,
                                   run_fig6, run_fig7, run_fig8,
                                   run_pipe_saturation, run_timer_storm)
from repro.sim import Simulator


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))


def _golden_pipeline_digests() -> Dict[str, str]:
    """The stored golden digests every scenario run must reproduce."""
    path = os.path.join(_repo_root(), "benchmarks", "results",
                        "PIPELINE_digests.json")
    try:
        with open(path) as fh:
            return json.load(fh)["scenarios"]
    except (OSError, KeyError, ValueError):
        return {}


def _time_run(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()     # repro: noqa=DET001 — host-side timing
    result = fn()
    elapsed = time.perf_counter() - start   # repro: noqa=DET001
    return elapsed, result


def _spread(samples: List[float], key: str = "seconds",
            digits: int = 4) -> Dict:
    """Median and interquartile range of ``samples`` under ``key``."""
    if len(samples) > 1:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {key: round(statistics.median(samples), digits),
            f"{key}_iqr": round(q3 - q1, digits)}


def _timed(fn: Callable[[], object], reps: int) -> Tuple[Dict, List]:
    """Run ``fn`` ``reps`` times: the wall-clock spread and every result."""
    samples, results = [], []
    for _ in range(reps):
        s, result = _time_run(fn)
        samples.append(s)
        results.append(result)
    return {**_spread(samples), "reps": reps}, results


def _digest_gate(digests: List[str], golden: Optional[str]) -> Dict:
    """Every repetition agrees, and matches the golden when there is one."""
    digest = digests[0]
    return {"digest": digest, "digest_golden": golden,
            "digest_match": (len(set(digests)) == 1
                             and (golden is None or digest == golden))}


def _bench_event_churn() -> Dict:
    """Raw schedule->fire throughput, calibrated against bare heapq.

    Never scaled down: the gated ``calibrated_ratio`` is compared against
    the checked-in artifact, so quick and full runs must measure the same
    workload.  Each repetition times the calibrator and the churn back to
    back, and the ratio is taken per pair, so host load that drifts
    between repetitions still cancels.
    """
    events = 200_000
    reps = 9
    churn, calib, ratios = [], [], []
    fired = 0
    for _ in range(reps):
        c_s, _ = _time_run(lambda: run_calibrator(events=events))
        s, fired = _time_run(
            lambda: run_event_churn(Simulator(), events=events))
        churn.append(s)
        calib.append(c_s)
        ratios.append(s / c_s)
    return {
        "events": fired,
        **_spread(churn),
        "reps": reps,
        "ns_per_event": round(1e9 * statistics.median(churn) / fired, 1),
        "calibrator_ns_per_event": round(
            1e9 * statistics.median(calib) / events, 1),
        "events_per_sec": round(fired / statistics.median(churn)),
        **_spread(ratios, key="calibrated_ratio", digits=3),
    }


def _bench_timer_storm(quick: bool) -> Dict:
    rounds = 80 if quick else 400
    timing, results = _timed(
        lambda: run_timer_storm(Simulator(), rounds=rounds),
        reps=1 if quick else 3)
    armed, _fired = results[0]
    return {"timers_armed": armed, **timing,
            "events_per_sec": round(armed / timing["seconds"])}


def _bench_pipe_saturation(quick: bool) -> Dict:
    """One saturated Dummynet pipe on the merged advance driver."""
    packets = 5_000 if quick else 20_000
    timing, digests = _timed(
        lambda: run_pipe_saturation(Simulator(), packets=packets),
        reps=1 if quick else 5)
    return {"packets": packets, **timing,
            "ns_per_packet": round(1e9 * timing["seconds"] / packets),
            **_digest_gate(digests, None)}


def _bench_figure(scenario: Callable, golden: Optional[str], reps: int,
                  **kwargs) -> Dict:
    """A digest-returning rig, timed ``reps`` times and gated on its
    golden (or on run-to-run agreement when no golden is stored)."""
    timing, digests = _timed(lambda: scenario(Simulator(), **kwargs), reps)
    return {**timing, **_digest_gate(digests, golden)}


def _figure_rig(scenario: Callable, name: str, quick: bool,
                goldens: Dict[str, str], quick_kwargs: Dict) -> Dict:
    """fig6/fig7: quick mode runs once at the shortened parameters whose
    golden the tests pin; full mode runs the scenario defaults three
    times against their own golden."""
    if quick:
        key = (f"{name}_{quick_kwargs['run_seconds']}s_"
               f"{quick_kwargs['num_ckpts']}ckpt")
        return _bench_figure(scenario, goldens.get(key), reps=1,
                             **quick_kwargs)
    return _bench_figure(scenario, goldens.get(name), reps=3)


def _bench_faultstorm(quick: bool) -> Dict:
    """The seeded fault-storm, run twice: survival plus determinism.

    The storm exercises the recovery machinery; ``digest_match`` asserts
    the two runs (trace + experiment state) were bit-identical and that
    the storm completed within its retry budget.
    """
    from repro.faults.scenario import run_faultstorm

    run_seconds = 20 if quick else 30
    timing, reports = _timed(
        lambda: run_faultstorm(run_seconds=run_seconds), reps=2)
    first = reports[0]
    gate = _digest_gate([r.digest for r in reports], None)
    gate["digest_match"] = gate["digest_match"] and first.completed
    return {**timing,
            "completed": first.completed,
            "attempts": first.attempts,
            "retransmits": first.retransmits,
            "faults_injected": sum(first.injected.values()),
            **gate}


def _bench_trace_overhead(golden: Optional[str], quick: bool) -> Dict:
    """ckpt10 with tracing off / filtered / list sink / JSONL sink.

    Quantifies what observability costs: ``off`` is the production
    configuration (no tracer attached), ``filtered`` attaches a tracer
    whose category filter rejects everything (the hoisted
    ``enabled_for`` check is all that runs), ``list`` retains every
    record in memory, and ``jsonl`` streams every record to the null
    device.  All four runs must produce the golden digest — tracing
    never consumes an RNG draw or schedules a simulator event.  The
    configurations are interleaved per repetition so host drift lands
    on all four alike.
    """
    from repro.obs import JsonlSink, ListSink, Tracer

    reps = 1 if quick else 5
    # One untimed warm-up run so the first timed configuration does not
    # absorb one-off costs (lazy imports, code-object warm-up) that
    # would masquerade as tracing overhead.
    run_ckpt10(Simulator())
    configs = {
        "off": lambda sim: None,
        "filtered": lambda sim: Tracer(clock=lambda: sim.now,
                                       categories=()),
        "list_sink": lambda sim: Tracer(clock=lambda: sim.now,
                                        sink=ListSink()),
        "jsonl_sink": lambda sim: Tracer(clock=lambda: sim.now,
                                         sink=JsonlSink(os.devnull)),
    }
    samples: Dict[str, List[float]] = {name: [] for name in configs}
    digests = []

    def traced(make_tracer) -> str:
        sim = Simulator()
        return run_ckpt10(sim, tracer=make_tracer(sim))

    for _ in range(reps):
        for name, make_tracer in configs.items():
            s, digest = _time_run(lambda: traced(make_tracer))
            samples[name].append(s)
            digests.append(digest)
    off = statistics.median(samples["off"])
    result = {**_spread(samples["off"]), "reps": reps}
    for name in ("filtered", "list_sink", "jsonl_sink"):
        med = statistics.median(samples[name])
        result[f"{name}_seconds"] = round(med, 4)
        result[f"{name}_overhead_pct"] = round(100.0 * (med - off) / off, 1)
    return {**result, **_digest_gate(digests, golden)}


def _bench_snapshot_restore(quick: bool) -> Dict:
    """Restore-then-run vs replay-from-origin: the crossover curve.

    Runs the fig4 snapshot world out to increasing virtual horizons,
    taking a delta-chained snapshot at each, and times two ways of
    reaching each horizon in a fresh world: replaying from the origin
    and restoring the snapshot into a cold world.  Replay cost grows
    with virtual time; restore cost is O(state) and flat — the recorded
    crossover is the first horizon where restore wins.  Every pair must
    agree on the state digest (restore is also an equivalence gate),
    and second-and-later snapshots must store fewer new chunk bytes
    than their full size (the delta gate).
    """
    from repro.checkpoint.snapshot import SnapshotStore
    from repro.timetravel.scenarios import build_fig4_world
    from repro.units import SECOND

    seed = 4
    horizons = (2, 10, 40) if quick else (2, 10, 40, 90)
    store = SnapshotStore()
    world = build_fig4_world(seed=seed)
    rows: List[Dict] = []
    parent = None
    digest_match = True
    delta_ok = True
    crossover = None
    restore_s_last = replay_s_last = 0.0
    for idx, horizon in enumerate(horizons):
        t_q = world.advance_to_quiescence(horizon * SECOND)
        snap = store.take(f"t{horizon}", world.snapshot_providers(),
                          virtual_time_ns=t_q, parent=parent)
        parent = snap.snapshot_id

        def replay() -> object:
            w = build_fig4_world(seed=seed)
            w.advance_to(t_q)
            return w

        replay_s, replayed = _time_run(replay)
        restore_s, restored = _time_run(
            lambda: world.restore_from(store, snap.snapshot_id))
        digest_match &= (restored.state_digest()
                         == replayed.state_digest()
                         == world.state_digest())
        if idx > 0:
            delta_ok &= snap.new_chunk_bytes < snap.total_bytes
        if crossover is None and restore_s < replay_s:
            crossover = horizon
        restore_s_last, replay_s_last = restore_s, replay_s
        rows.append({
            "virtual_seconds": horizon,
            "replay_seconds": round(replay_s, 4),
            "restore_seconds": round(restore_s, 4),
            "snapshot_bytes": snap.total_bytes,
            "new_chunk_bytes": snap.new_chunk_bytes,
        })
    return {
        "seconds": round(restore_s_last, 4),
        "replay_seconds": round(replay_s_last, 4),
        "crossover_virtual_seconds": crossover,
        "horizons": rows,
        "delta_smaller_than_full": delta_ok,
        "digest_match": digest_match and delta_ok and crossover is not None,
    }


def _bench_snapshot_durable(quick: bool) -> Dict:
    """Durable-store overhead vs the in-memory store, plus a cold recover.

    Runs the same fig4 checkpoint cadence three ways — in-memory
    ``SnapshotStore``, ``DurableSnapshotStore`` with fsync, and with
    fsync off (barrier ordering only, the CI crash-model configuration)
    — and records the overhead of the journaled on-disk commit protocol
    (docs/durability.md).  A fresh process then ``recover()``s the
    synced store and cold-restores the deepest snapshot; its digest
    must match the live world's (durability is also an equivalence
    gate).  ``seconds`` is the fsync-off time: that is what CI
    pays in the crash matrix, and it is far less jittery on shared
    containers than physical fsync latency.
    """
    import shutil
    import tempfile

    from repro.checkpoint.durable import DurableSnapshotStore
    from repro.checkpoint.snapshot import SnapshotStore
    from repro.timetravel.scenarios import build_fig4_world
    from repro.units import MS

    seed = 4
    steps = 4 if quick else 8
    step_ns = 250 * MS

    def cadence(store):
        world = build_fig4_world(seed=seed)
        parent = None
        for i in range(1, steps + 1):
            t_q = world.advance_to_quiescence(i * step_ns)
            snap = store.take(f"t{i}", world.snapshot_providers(),
                              virtual_time_ns=t_q, parent=parent)
            parent = snap.snapshot_id
        return world

    memory_s, _ = _time_run(lambda: cadence(SnapshotStore()))
    root_sync = tempfile.mkdtemp(prefix="bench-durable-sync-")
    root_nosync = tempfile.mkdtemp(prefix="bench-durable-nosync-")
    try:
        fsync_s, live = _time_run(
            lambda: cadence(DurableSnapshotStore(root_sync, fsync=True)))
        nosync_s, _ = _time_run(
            lambda: cadence(DurableSnapshotStore(root_nosync, fsync=False)))
        # A "fresh process": a second store over the same directory must
        # recover clean and cold-restore to the live world's digest.
        recovered = DurableSnapshotStore(root_sync, fsync=True)
        report = recovered.recover()
        recover_clean = report.clean and len(report.committed) == steps
        cold = live.restore_from(recovered, f"t{steps}")
        digest_match = (recover_clean
                        and cold.state_digest() == live.state_digest())
    finally:
        shutil.rmtree(root_sync, ignore_errors=True)
        shutil.rmtree(root_nosync, ignore_errors=True)

    def pct(s: float) -> Optional[float]:
        return round(100.0 * (s - memory_s) / memory_s, 1) if memory_s else None

    return {
        "seconds": round(nosync_s, 4),
        "memory_seconds": round(memory_s, 4),
        "fsync_seconds": round(fsync_s, 4),
        "checkpoints": steps,
        "nosync_overhead_pct": pct(nosync_s),
        "fsync_overhead_pct": pct(fsync_s),
        "recover_clean": recover_clean,
        "digest_match": digest_match,
    }


def _default_profile_path() -> str:
    return os.path.join(_repo_root(), "benchmarks", "results",
                        "PROFILE_sim_core.json")


def run_profile(out=sys.stdout, json_output: Optional[str] = None,
                top: int = 15) -> int:
    """``repro bench --profile``: hot-spot and record-count attribution.

    Runs the 10-node coordinated checkpoint once with both the
    event-loop profiler and a tracer attached, prints where host time
    went (per callback, via :class:`repro.obs.profile.LoopProfiler`) and
    what the observability layer recorded (per category), and writes the
    same data as JSON to ``benchmarks/results/PROFILE_sim_core.json``
    (or ``json_output``) so the hot-spot table is diffable PR-over-PR.
    Profiled runs keep their digests — the profiler reads only the host
    clock.
    """
    from repro.obs import ListSink, Tracer

    goldens = _golden_pipeline_digests()
    sim = Simulator()
    profiler = sim.enable_profiling()
    tracer = Tracer(clock=lambda: sim.now, sink=ListSink())
    elapsed, digest = _time_run(lambda: run_ckpt10(sim, tracer=tracer))
    print(f"profiled ckpt10_coordinated: {elapsed:.3f}s wall, "
          f"{profiler.dispatches} callbacks dispatched", file=out)
    golden = goldens.get("ckpt10_coordinated")
    if golden is not None:
        status = "OK" if digest == golden else "MISMATCH"
        print(f"digest vs golden: {status}", file=out)
    print(file=out)
    print(profiler.format_report(top=top), file=out)
    print(file=out)
    print("trace records by category:", file=out)
    for cat in sorted(tracer.category_counts):
        print(f"  {cat:<28} {tracer.category_counts[cat]:8d}", file=out)

    if json_output is None:
        json_output = _default_profile_path()
    payload = {
        "profile": "sim_core",
        "scenario": "ckpt10_coordinated",
        "python": sys.version.split()[0],
        "wall_seconds": round(elapsed, 4),
        "dispatches": profiler.dispatches,
        "digest": digest,
        "digest_golden": golden,
        "digest_match": golden is None or digest == golden,
        "hot_spots": profiler.report(top=top),
        "trace_records": dict(sorted(tracer.category_counts.items())),
    }
    os.makedirs(os.path.dirname(json_output), exist_ok=True)
    with open(json_output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {json_output}", file=out)
    return 0 if golden is None or digest == golden else 1


#: scenarios whose median wall clock is compared against the checked-in
#: artifact and *warned* about when it drifts past the budget by more than
#: the measured noise (the larger IQR of the two runs)
_REGRESSION_WATCH = ("fig4_sleep", "fig5_cpuburn", "fig8_cow_storage",
                     "ckpt10_coordinated", "snapshot_restore",
                     "snapshot_durable")
_REGRESSION_BUDGET_PCT = 2.0
#: the hard-fail gate: ``event_churn``'s calibrated ratio (churn cost per
#: event over the calibrator's, per interleaved pair) may not grow past
#: this budget *and* past the measured noise.  A loaded or slower host
#: drags both halves of each pair down together and cancels out of the
#: ratio, while a real scheduler regression moves only the numerator.
#: Across separate runs on a shared 2-core host, loaded and idle, the
#: median ratio stayed within ±7%; the budget sits just outside that.
_CHURN_BUDGET_PCT = 10.0


def _previous_results(path: str) -> Dict[str, Dict]:
    """Scenario results from the checked-in artifact, if readable."""
    try:
        with open(path) as fh:
            return json.load(fh).get("scenarios", {})
    except (OSError, ValueError):
        return {}


def _drift(before: Dict, after: Dict, key: str,
           budget_pct: float) -> Optional[float]:
    """Percent growth of ``after[key]`` over ``before[key]`` when it is
    past ``budget_pct`` *and* past the larger IQR of the two runs."""
    old, new = before.get(key), after.get(key)
    if not old or not new:
        return None
    pct = round(100.0 * (new - old) / old, 1)
    after[f"{key}_previous"] = old
    after["regression_vs_checked_in_pct"] = pct
    noise = max(before.get(f"{key}_iqr", 0.0), after.get(f"{key}_iqr", 0.0))
    if pct > budget_pct and new - old > noise:
        return pct
    return None


def run_bench(quick: bool = False, output: Optional[str] = None,
              out=sys.stdout) -> int:
    """Run all scenarios, write the JSON artifact, print a summary.

    Returns a process exit code: non-zero if any scenario's digest
    diverges from its golden or between repetitions, or if
    ``event_churn``'s calibrated ratio regressed past its budget.
    """
    goldens = _golden_pipeline_digests()
    scenarios = {
        "event_churn": _bench_event_churn,
        "timer_cancel_rearm_storm": lambda: _bench_timer_storm(quick),
        "pipe_saturation": lambda: _bench_pipe_saturation(quick),
        "fig6_iperf": lambda: _figure_rig(
            run_fig6, "fig6_iperf", quick, goldens,
            dict(run_seconds=5, num_ckpts=1)),
        "fig7_bittorrent": lambda: _figure_rig(
            run_fig7, "fig7_bittorrent", quick, goldens,
            dict(run_seconds=8, num_ckpts=1)),
        # Checkpoint-pipeline gates: fixed args in both modes (the goldens
        # are parameter-dependent).  These finish in milliseconds to
        # sub-second, so they take enough repetitions for a stable median.
        "fig4_sleep": lambda: _bench_figure(
            run_fig4, goldens.get("fig4_sleep"), reps=7),
        "fig5_cpuburn": lambda: _bench_figure(
            run_fig5, goldens.get("fig5_cpuburn"), reps=15),
        "fig8_cow_storage": lambda: _bench_figure(
            run_fig8, goldens.get("fig8_cow_storage"), reps=3),
        "ckpt10_coordinated": lambda: _bench_figure(
            run_ckpt10, goldens.get("ckpt10_coordinated"), reps=5),
        # Robustness gate: seeded storm must survive, deterministically.
        "ckpt10_faultstorm": lambda: _bench_faultstorm(quick),
        # Observability gate: tracing must be digest-neutral, and the
        # sink configurations bound its wall-clock cost.
        "ckpt10_trace_overhead": lambda: _bench_trace_overhead(
            goldens.get("ckpt10_coordinated"), quick),
        # True-restore gate: restore-then-run must match replay digests
        # and beat it past the recorded virtual-time crossover, with
        # delta snapshots smaller than full.
        "snapshot_restore": lambda: _bench_snapshot_restore(quick),
        # Durability gate: the journaled on-disk store's overhead vs the
        # in-memory store, and a cold recover + restore digest check.
        "snapshot_durable": lambda: _bench_snapshot_durable(quick),
    }
    if output is None:
        output = os.path.join(_repo_root(), "BENCH_sim_core.json")
    previous = _previous_results(output)

    results: Dict[str, Dict] = {}
    for name, fn in scenarios.items():
        print(f"bench: {name} ...", file=out, flush=True)
        results[name] = fn()

    regressions = []
    for name in _REGRESSION_WATCH:
        pct = _drift(previous.get(name, {}), results[name], "seconds",
                     _REGRESSION_BUDGET_PCT)
        if pct is not None:
            regressions.append((name, pct))
    churn_pct = _drift(previous.get("event_churn", {}),
                       results["event_churn"], "calibrated_ratio",
                       _CHURN_BUDGET_PCT)

    payload = {
        "bench": "sim_core",
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "scenarios": results,
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(file=out)
    print(f"{'scenario':<28} {'median':>9} {'iqr':>8} {'reps':>5}", file=out)
    ok = True
    for name, r in results.items():
        print(f"{name:<28} {r['seconds']:>8.3f}s "
              f"{r.get('seconds_iqr', 0.0):>7.3f}s {r.get('reps', 1):>5}",
              file=out)
        if r.get("digest_match") is False:
            ok = False
            if r.get("digest_golden") not in (None, r.get("digest")):
                print(f"  GOLDEN MISMATCH: {r.get('digest')} != "
                      f"{r['digest_golden']}", file=out)
            else:
                print("  DIGEST MISMATCH between repetitions (or the run "
                      "did not complete)", file=out)
    for name, pct in regressions:
        print(f"WARNING: {name} median {pct:+.1f}% vs checked-in artifact "
              f"(budget {_REGRESSION_BUDGET_PCT}% plus noise)", file=out)
    if churn_pct is not None:
        ok = False
        print(f"FAIL: event_churn calibrated ratio {churn_pct:+.1f}% vs "
              f"checked-in artifact (budget {_CHURN_BUDGET_PCT}% plus "
              f"noise)", file=out)
    print(f"\nwrote {output}", file=out)
    if not ok:
        print("bench FAILED: digests diverged or throughput regressed",
              file=out)
    return 0 if ok else 1


def run_scenario_bench(path: str, quick: bool = False,
                       out=None) -> int:
    """``repro bench --scenario-file``: bench one declarative scenario.

    Every kind of scenario runs twice with identical inputs and must be
    run-to-run deterministic (docs/scenarios.md).  Returns non-zero on
    any digest divergence.  ``quick`` is accepted for CLI symmetry;
    scenario parameters come from the file and are never scaled down.
    """
    del quick  # parameters live in the scenario file
    if out is None:
        out = sys.stdout
    from repro.errors import ScenarioError
    from repro.testbed.compile import compile_scenario
    from repro.testbed.dsl import load_scenario

    try:
        spec = load_scenario(path)
        compiled = compile_scenario(spec)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=out)
        return 2
    recipe = ("world" if spec.kind == "world" else spec.digest_recipe)
    first_s, first = _time_run(compiled.run)
    second_s, second = _time_run(compiled.run)
    match = first.digest == second.digest
    print(f"{spec.name} [{recipe}]: run1 {first_s:.3f}s, "
          f"run2 {second_s:.3f}s", file=out)
    print(f"  digest run1: {first.digest}", file=out)
    print(f"  digest run2: {second.digest}", file=out)
    print("run-to-run determinism:", "OK" if match else "MISMATCH",
          file=out)
    return 0 if match else 1
