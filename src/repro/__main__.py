"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``info``      — package, subsystem, and experiment-index summary
* ``selftest``  — a fast end-to-end smoke test (swap in a two-node
                  experiment, checkpoint it under traffic, verify
                  transparency); exits non-zero on failure
* ``results``   — print the benchmark result tables recorded under
                  ``benchmarks/results/``
* ``lint``      — the determinism sanitizer (per-file rules DET001–DET008
                  plus whole-program rules DET009/DET010 and CKPT001–003;
                  see docs/determinism.md and docs/static-analysis.md)
* ``bench``     — event-core performance benchmarks, gated on the stored
                  golden digests (writes ``BENCH_sim_core.json``; see
                  docs/performance.md)
* ``scenario``  — the one way to run an experiment: a named scenario
                  (``NAMED_SCENARIOS``) or a scenario file (TOML/JSON,
                  see docs/scenarios.md), with ``--set`` overrides;
                  validate, compile, run, print the digest, and gate
                  it: a named run without ``--set`` must reproduce its
                  stored golden, ``--check-digest`` names another,
                  ``--repeat N`` demands N agreeing runs, ``--race``
                  adds the event-race detector, any failed scheduled
                  checkpoint fails the run, and ``--trace OUT`` exports
                  the span timeline as Chrome/Perfetto ``trace_event``
                  JSON (docs/robustness.md, docs/observability.md)
* ``sweep``     — expand a sweep file's parameter grid (seeds x
                  topologies x fault storms x checkpoint policies) and
                  run every expansion in worker processes; aggregates
                  digests/failures into a JSON + human report and
                  fails on any digest disagreement between repeats
* ``snapshot``  — true snapshot/restore over the serializable worlds,
                  on a crash-safe on-disk store (``--durable DIR``):
                  ``run`` a world and commit delta-chained snapshots
                  (``--resume`` re-attaches after process death, exits
                  3 on an injected ``--kill-at`` crash),
                  ``inspect``/``diff`` their manifests, ``restore`` one
                  into a cold world with an optional replay cross-check
                  (docs/snapshots.md), ``fsck`` a store (``--repair``
                  applies the fixes), and ``crashmatrix`` — kill a run
                  at every durability barrier and prove recovery +
                  resume land on the uninterrupted digest
                  (docs/durability.md)
"""

from __future__ import annotations

import argparse
import os
import sys


def cmd_info(_args) -> int:
    import repro

    subsystems = [
        ("repro.sim", "deterministic discrete-event kernel"),
        ("repro.hw", "CPUs, disks, oscillators, machines"),
        ("repro.clocksync", "drifting clocks + NTP discipline"),
        ("repro.net", "links, Dummynet, delay nodes, LANs, TCP/UDP"),
        ("repro.guest", "guest kernel + the temporal firewall"),
        ("repro.xen", "hypervisor, devices, live local checkpoint"),
        ("repro.storage", "branching COW stores, transfers"),
        ("repro.testbed", "Emulab: experiments, mapping, services"),
        ("repro.checkpoint", "coordinated transparent checkpoint + baselines"),
        ("repro.swap", "stateful swapping + timestamp transduction"),
        ("repro.timetravel", "checkpoint trees, replay, exploration"),
        ("repro.workloads", "one workload per paper experiment"),
    ]
    print(f"repro {repro.__version__} — Transparent Checkpoints of Closed "
          f"Distributed Systems in Emulab (EuroSys 2009)")
    print()
    for name, blurb in subsystems:
        print(f"  {name:<18} {blurb}")
    print()
    print("experiments: Figures 4-9, §7.2 swapping, §5.1 free-block "
          "elimination, ablations")
    print("run them:    pytest benchmarks/ --benchmark-only -s")
    return 0


def cmd_selftest(_args) -> int:
    from repro.sim import Simulator
    from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                               TestbedConfig)
    from repro.units import MB, MBPS, MS, SECOND
    from repro.workloads import IperfSession

    print("building a two-node experiment ...")
    sim = Simulator()
    testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=1))
    for cache in testbed.image_caches.values():
        cache.preload("FC4-STD")
    exp = testbed.define_experiment(ExperimentSpec(
        "selftest",
        nodes=[NodeSpec("node0", memory_bytes=64 * MB),
               NodeSpec("node1", memory_bytes=64 * MB)],
        links=[LinkSpec("l0", "node0", "node1",
                        bandwidth_bps=100 * MBPS, delay_ns=5 * MS)]))
    sim.run(until=exp.swap_in())
    print(f"swapped in at t={sim.now / 1e9:.1f}s on "
          f"{sorted(exp.placement.machines_used)}")
    # Pace the sender below the shaped 100 Mbps link so the only possible
    # source of TCP damage is the checkpoint itself.
    session = IperfSession(exp.kernel("node0"), exp.kernel("node1"),
                           app_rate_bytes_per_s=11 * MB)
    session.start()
    sim.run(until=sim.now + 12 * SECOND)    # past the slow-start transient
    stats = session.sender_stats()
    retx_before = stats.retransmits
    result = sim.run(until=exp.coordinator.checkpoint_scheduled())
    sim.run(until=sim.now + 5 * SECOND)
    session.stop()
    sim.run(until=sim.now + 200 * MS)
    print(f"checkpoint: suspend skew {result.suspend_skew_ns / 1000:.0f} us, "
          f"{result.core_packets_captured} packets captured in the core")
    print(f"TCP across the checkpoint: "
          f"{stats.retransmits - retx_before} new retransmits, "
          f"{stats.timeouts} timeouts")
    ok = (stats.retransmits == retx_before and stats.timeouts == 0 and
          session.bytes_received > 10 * MB)
    print("selftest:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def cmd_results(_args) -> int:
    results_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "benchmarks", "results")
    if not os.path.isdir(results_dir):
        print("no benchmark results yet; run "
              "`pytest benchmarks/ --benchmark-only -s`")
        return 1
    for name in sorted(os.listdir(results_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(results_dir, name)) as fh:
                print(fh.read())
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import dump_graph, list_rules, run_lint

    if args.list_rules:
        print("determinism and checkpoint-coverage rules:")
        list_rules(sys.stdout)
        return 0
    if args.graph:
        return dump_graph(args.paths or ["src"])
    return run_lint(args.paths or ["src"], json_output=args.json,
                    select=args.select)


def cmd_bench(args) -> int:
    from repro.bench import run_bench, run_profile
    from repro.errors import ScenarioError

    try:
        if args.profile:
            return run_profile(json_output=args.output)
        return run_bench(quick=args.quick, output=args.output)
    except ScenarioError as exc:
        print(f"bench error: {exc}")
        return 2


def _set_overrides(pairs) -> dict:
    """``--set PATH=VALUE`` pairs as dotted-path overrides; each VALUE
    is parsed as a TOML value (``faults={}``, ``'policy="fail-fast"'``)."""
    import tomllib

    from repro.errors import ScenarioError

    overrides = {}
    for pair in pairs:
        path, sep, text = pair.partition("=")
        path = path.strip()
        if not sep or not path:
            raise ScenarioError(f"--set {pair!r}: expected PATH=VALUE")
        try:
            overrides[path] = tomllib.loads(f"value = {text}")["value"]
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"--set value {text!r} is not a TOML value "
                                f"({exc})", path=path) from exc
    return overrides


def _run_traced(compiled, race: bool, trace: bool):
    """One run, with a fresh in-memory tracer when ``trace`` is set."""
    from repro.obs import ListSink, Tracer
    from repro.sim import Simulator

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, sink=ListSink()) if trace else None
    return compiled.run(sim=sim, race=race, tracer=tracer), tracer


def cmd_scenario(args) -> int:
    from repro.checkpoint import CheckpointFailure
    from repro.errors import ScenarioError
    from repro.testbed.compile import (NAMED_SCENARIOS, compile_scenario,
                                       load_goldens, load_named)
    from repro.testbed.dsl import load_scenario

    named = args.scenario in NAMED_SCENARIOS
    try:
        overrides = _set_overrides(args.set)
        spec = (load_named(args.scenario, overrides) if named
                else load_scenario(args.scenario, overrides=overrides))
        compiled = compile_scenario(spec)
        expected = None
        if args.check_digest:
            expected = load_goldens().get(args.check_digest,
                                          args.check_digest)
        elif named and not overrides:
            expected = load_goldens().get(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}")
        return 2
    if args.repeat < 1:
        print("scenario error: --repeat must be >= 1")
        return 2

    runs = [_run_traced(compiled, args.race, bool(args.trace))
            for _ in range(args.repeat)]
    result = runs[0][0]
    if args.json:
        import json

        print(json.dumps({
            "name": result.name, "recipe": result.recipe,
            "digest": result.digest,
            "virtual_now_ns": result.virtual_now_ns,
            "details": result.details, "races": result.races},
            indent=2, sort_keys=True, default=str))
    else:
        print(f"scenario {result.name}: ran to "
              f"t={result.virtual_now_ns / 1e9:.3f}s")
        for key, value in sorted(result.details.items()):
            if key != "metrics":        # the full snapshot is in --json
                print(f"  {key}: {value}")
        print(f"digest [{result.recipe}]: {result.digest}")

    ok = True
    for run, _ in runs:
        failed = [c for c in run.checkpoints
                  if isinstance(c, CheckpointFailure)]
        for failure in failed:
            print(f"checkpoint FAILED at {failure.stage}: {failure.reason}")
        if failed or run.details.get("completed") is False:
            print("scheduled checkpoints: FAILED")
            ok = False
    if args.race:
        races = sum(run.races for run, _ in runs)
        print("races:", races if races else "none")
        for run, _ in runs:
            if run.races:
                print(run.race_report)
                ok = False
    digests = [run.digest for run, _ in runs]
    if len(digests) > 1:
        agree = len(set(digests)) == 1
        print(f"run-to-run determinism: "
              f"{'OK' if agree else 'MISMATCH'} over {len(digests)} runs")
        if not agree:
            for i, digest in enumerate(digests, 1):
                print(f"  run {i} digest: {digest}")
            ok = False
    if expected is not None:
        if result.digest == expected:
            print("golden: OK")
        else:
            print(f"digest MISMATCH: expected {expected}")
            ok = False
    if args.trace:
        from repro.obs import write_chrome_trace

        records = runs[0][1].records
        count = write_chrome_trace(records, args.trace)
        print(f"{len(records)} trace records -> {count} trace events -> "
              f"{args.trace}")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    from repro.errors import ScenarioError
    from repro.sweep import human_report, run_sweep_file

    try:
        report = run_sweep_file(args.file, processes=args.processes,
                                out=args.out)
    except ScenarioError as exc:
        print(f"sweep error: {exc}")
        return 2
    if not args.quiet:
        print(human_report(report))
    if args.out:
        print(f"report -> {args.out}")
    return 0 if report["ok"] else 1


def _cmd_snapshot_durable(args) -> int:
    """The crash-safe actions of ``repro snapshot`` (docs/durability.md)."""
    from repro.checkpoint.durable import CRASH_POINTS, DurableSnapshotStore
    from repro.errors import SimulatedCrash
    from repro.faults.plan import FaultPlan, ProcessCrash
    from repro.timetravel.resume import crash_matrix, run_durable
    from repro.units import MS

    root = args.durable
    fsync = not args.no_fsync

    if args.action == "fsck":
        store = DurableSnapshotStore(root, fsync=fsync)
        report = store.recover() if args.repair else store.fsck()
        verb = "repaired" if args.repair else "would repair"
        print(f"durable store {root} "
              f"({'read-only scan' if not args.repair else 'repaired'})")
        print(f"  committed : {report.committed}")
        if report.completed:
            print(f"  completed : {report.completed} (commit landed, "
                  f"journal {verb})")
        if report.rolled_back:
            print(f"  rolled back: {report.rolled_back} (save died before "
                  f"its commit point)")
        for sid, why in report.damaged:
            fallback = store.nearest_intact(sid)
            print(f"  damaged   : {sid} ({why}; nearest intact: "
                  f"{fallback or 'none — replay from origin'})")
        if report.quarantined:
            print(f"  quarantined: {report.quarantined}")
        print(f"  torn files {verb}: {report.torn_files_removed}  "
              f"orphan chunks {verb}: {report.orphan_chunks_removed}")
        print("fsck:", "CLEAN" if report.clean else
              ("REPAIRED" if args.repair else "NEEDS REPAIR"))
        return 0 if (report.clean or args.repair) else 1

    if args.action == "crashmatrix":
        result = crash_matrix(args.world, root, steps=args.checkpoints,
                              step_ns=args.interval_ms * MS, fsync=fsync)
        print(f"crash matrix: {args.world}, {args.checkpoints} "
              f"checkpoints, baseline {result['baseline_digest'][:16]}…")
        print(f"{'crash point':<28} {'crashed':>7} {'atomic':>6} "
              f"{'committed':>9} {'resume':>6}")
        for entry in result["points"]:
            print(f"{entry['point']:<28} "
                  f"{'yes' if entry['crashed'] else 'NO':>7} "
                  f"{'yes' if entry['atomic'] else 'NO':>6} "
                  f"{len(entry['committed_after_recovery']):>9} "
                  f"{'OK' if entry['resumed_digest_match'] else 'FAIL':>6}")
        print("crash matrix:", "OK" if result["ok"] else "FAILED")
        return 0 if result["ok"] else 1

    # run
    plan = None
    if args.kill_at:
        if args.kill_at not in CRASH_POINTS:
            print(f"unknown crash point {args.kill_at!r} "
                  f"(have {', '.join(CRASH_POINTS)})")
            return 1
        plan = FaultPlan(process_crashes=(
            ProcessCrash(at_point=args.kill_at,
                         during_save=args.kill_during),))
    try:
        result = run_durable(args.world, root, steps=args.checkpoints,
                             step_ns=args.interval_ms * MS, fsync=fsync,
                             seed=args.seed, plan=plan,
                             resume=args.resume)
    except SimulatedCrash as exc:
        print(f"process died mid-save: {exc}")
        print(f"the store under {root} holds every snapshot committed "
              f"before the crash; re-run with --resume to continue")
        return 3
    stats = result["restore_stats"]
    if args.resume and stats["resumes"]:
        print(f"resumed from the deepest durable snapshot "
              f"(restores={stats['restores']}, "
              f"continues={stats['continues']}, "
              f"replays={stats['replays']}, "
              f"degraded={stats['degraded']})")
    print(f"committed: {result['committed']}")
    print(f"virtual time: {result['virtual_now'] / 1e6:.1f}ms  "
          f"chunk files: {result['durability']['chunk_files']}  "
          f"fsync: {result['durability']['fsync']}")
    print(f"state digest: {result['digest']}")
    return 0


def cmd_snapshot(args) -> int:
    from repro.checkpoint.durable import DurableSnapshotStore
    from repro.errors import SnapshotError
    from repro.timetravel.scenarios import WORLD_BUILDERS

    if not args.durable:
        print(f"--durable DIR is required for `{args.action}`")
        return 1
    if args.action in ("run", "fsck", "crashmatrix"):
        return _cmd_snapshot_durable(args)
    if not os.path.isdir(args.durable):
        print(f"no snapshot store at {args.durable}")
        return 1
    store = DurableSnapshotStore(args.durable, fsync=False)
    store.fsck()                       # read-only: loads intact snapshots
    try:
        if args.action == "inspect":
            return _snapshot_inspect(store, args.id)
        if args.action == "diff":
            import json

            if not (args.id and args.against):
                print("diff needs --id and --against")
                return 1
            print(json.dumps(store.diff(args.id, args.against),
                             indent=2, sort_keys=True))
            return 0
        # restore
        if not args.id:
            print("restore needs --id")
            return 1
        builder = WORLD_BUILDERS.get(args.world)
        if builder is None:
            print(f"unknown world {args.world!r} "
                  f"(have {sorted(WORLD_BUILDERS)})")
            return 1
        world = builder(seed=args.seed, started=False)
        manifest = store.restore(args.id, world.snapshot_providers())
    except SnapshotError as exc:
        print(f"snapshot error: {exc}")
        return 1
    print(f"restored {args.id} into a cold {args.world} world at "
          f"t={world.virtual_now() / 1e6:.1f}ms")
    print(f"state digest: {world.state_digest()}")
    if args.verify:
        replayed = builder(seed=args.seed)
        replayed.advance_to(manifest.virtual_time_ns)
        ok = replayed.state_digest() == world.state_digest()
        print("replay cross-check:", "OK" if ok else "MISMATCH")
        return 0 if ok else 1
    return 0


def _snapshot_inspect(store, snapshot_id) -> int:
    if snapshot_id:
        manifest = store.manifest(snapshot_id)
        print(f"snapshot {manifest.snapshot_id}  "
              f"t={manifest.virtual_time_ns / 1e6:.1f}ms  "
              f"parent={manifest.parent}  label={manifest.label!r}")
        print(f"{'provider':<24} {'schema':>6} {'bytes':>8} "
              f"{'chunks':>7}  digest")
        for rec in manifest.providers:
            print(f"{rec.name:<24} {rec.schema_version:>6} "
                  f"{rec.nbytes:>8} {len(rec.chunks):>7}  "
                  f"{rec.digest[:16]}")
        return 0
    print(f"{'id':<8} {'virtual_ms':>11} {'bytes':>8} {'new':>8} "
          f"{'parent':<8} label")
    for sid in store.order:
        m = store.manifest(sid)
        print(f"{sid:<8} {m.virtual_time_ns / 1e6:>11.1f} "
              f"{m.total_bytes:>8} {m.new_chunk_bytes:>8} "
              f"{m.parent or '-':<8} {m.label}")
    return 0


def main(argv=None) -> int:
    from repro.testbed.compile import NAMED_SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package and experiment summary")
    sub.add_parser("selftest", help="fast end-to-end smoke test")
    sub.add_parser("results", help="print recorded benchmark tables")
    lint = sub.add_parser("lint", help="determinism sanitizer (static rules)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable JSON report")
    lint.add_argument("--select", metavar="CODES",
                      help="comma-separated rule codes to run "
                           "(default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--graph", action="store_true",
                      help="dump the project call graph and taint facts "
                           "as JSON instead of linting")
    bench = sub.add_parser("bench", help="event-core performance benchmarks")
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads (CI smoke run)")
    bench.add_argument("--output", metavar="PATH",
                       help="JSON artifact path (default: "
                            "BENCH_sim_core.json at repo root; with "
                            "--profile: benchmarks/results/"
                            "PROFILE_sim_core.json); the gates always "
                            "compare against the checked-in "
                            "BENCH_sim_core.json")
    bench.add_argument("--profile", action="store_true",
                       help="profile the event loop instead: hot-spot "
                            "attribution + trace record counts, written "
                            "as a JSON report")
    scenario = sub.add_parser("scenario",
                              help="run one named scenario or scenario "
                                   "file, gated (docs/scenarios.md)")
    scenario.add_argument("scenario", metavar="NAME|FILE",
                          help=f"a named scenario "
                               f"({', '.join(sorted(NAMED_SCENARIOS))}) "
                               f"or a scenario .toml/.json path")
    scenario.add_argument("--set", action="append", default=[],
                          metavar="PATH=VALUE",
                          help="override one dotted path before "
                               "validation; VALUE is a TOML value "
                               "(repeatable)")
    scenario.add_argument("--repeat", type=int, default=1, metavar="N",
                          help="run N times; fail unless every digest "
                               "agrees (default: 1)")
    scenario.add_argument("--race", action="store_true",
                          help="run under the event-race detector "
                               "(non-zero exit on findings)")
    scenario.add_argument("--check-digest", metavar="HEX|NAME",
                          help="fail unless the digest equals HEX or the "
                               "stored golden of NAME (a named run "
                               "without --set is always gated on its own)")
    scenario.add_argument("--trace", metavar="OUT",
                          help="trace the run and write the Chrome/"
                               "Perfetto trace_event JSON to OUT")
    scenario.add_argument("--json", action="store_true",
                          help="machine-readable result")
    sweep = sub.add_parser("sweep",
                           help="run a parameter-grid sweep of one "
                                "scenario across worker processes")
    sweep.add_argument("file", help="sweep .toml/.json path")
    sweep.add_argument("--processes", type=int, metavar="N",
                       help="worker processes (default: sweep file / CPUs; "
                            "1 = inline)")
    sweep.add_argument("--out", metavar="PATH",
                       help="write the aggregated JSON report here")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the human report")
    snap = sub.add_parser("snapshot",
                          help="run/inspect/restore/diff true snapshots "
                               "of a serializable world")
    snap.add_argument("action",
                      choices=("inspect", "restore", "diff",
                               "run", "fsck", "crashmatrix"),
                      help="what to do with the crash-safe on-disk "
                           "snapshot store (--durable DIR)")
    snap.add_argument("--world", default="fig4",
                      help="world to `run`/`restore` "
                           "(fig4, fig8, faultstorm; default: fig4)")
    snap.add_argument("--seed", type=int, default=4,
                      help="world seed for `run`/`restore` (default: 4)")
    snap.add_argument("--checkpoints", type=int, default=3,
                      help="snapshots to take (default: 3)")
    snap.add_argument("--interval-ms", type=int, default=1000,
                      help="virtual ms between snapshots (default: 1000)")
    snap.add_argument("--id", metavar="ID",
                      help="snapshot id for inspect/restore/diff")
    snap.add_argument("--against", metavar="ID",
                      help="second snapshot id for `diff`")
    snap.add_argument("--verify", action="store_true",
                      help="after `restore`, replay from the origin and "
                           "compare state digests")
    snap.add_argument("--durable", metavar="DIR",
                      help="root directory of the crash-safe store "
                           "(required)")
    snap.add_argument("--resume", action="store_true",
                      help="with `run`: re-attach to the deepest durable "
                           "snapshot a prior (killed) process committed")
    snap.add_argument("--no-fsync", action="store_true",
                      help="skip physical fsync barriers (keeps the "
                           "commit ordering; CI speed mode)")
    snap.add_argument("--kill-at", metavar="POINT",
                      help="with `run`: inject a process death at this "
                           "durability crash point (exit code 3)")
    snap.add_argument("--kill-during", type=int, default=0, metavar="N",
                      help="restrict --kill-at to the Nth checkpoint "
                           "save (default: 0 = any)")
    snap.add_argument("--repair", action="store_true",
                      help="with `fsck`: apply the repairs instead of a "
                           "read-only scan")
    args = parser.parse_args(argv)
    return {"info": cmd_info, "selftest": cmd_selftest,
            "results": cmd_results, "lint": cmd_lint,
            "bench": cmd_bench, "snapshot": cmd_snapshot,
            "scenario": cmd_scenario, "sweep": cmd_sweep}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
