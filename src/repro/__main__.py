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
* ``faults``    — seeded fault-storm: a lossy control bus plus a node
                  crash mid-save must not stop a supervised checkpoint;
                  runs twice and asserts determinism (docs/robustness.md)
* ``trace``     — run a scenario with full tracing and export the span
                  timeline as Chrome/Perfetto ``trace_event`` JSON
                  (open in ``ui.perfetto.dev``; see docs/observability.md)
* ``scenario``  — run one declarative scenario file (TOML/JSON, see
                  docs/scenarios.md): validate, compile into a testbed,
                  run, and print the digest; ``--race`` adds the event-
                  race detector, ``--check-digest`` gates on a golden
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
                    select=args.select, baseline=args.baseline,
                    write_baseline_to=args.write_baseline)


def cmd_bench(args) -> int:
    from repro.bench import run_bench, run_profile

    if args.scenario_file:
        from repro.bench.runner import run_scenario_bench

        return run_scenario_bench(args.scenario_file, quick=args.quick)
    if args.profile:
        return run_profile(json_output=args.output)
    return run_bench(quick=args.quick, output=args.output)


def cmd_scenario(args) -> int:
    from repro.errors import ScenarioError
    from repro.testbed.compile import run_scenario_file

    try:
        result = run_scenario_file(args.file, race=args.race)
    except ScenarioError as exc:
        print(f"scenario error: {exc}")
        return 2
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
            print(f"  {key}: {value}")
        print(f"digest [{result.recipe}]: {result.digest}")
    if args.race:
        print("races:", result.races if result.races else "none")
        if result.races:
            print(result.race_report)
            return 1
    if args.check_digest and result.digest != args.check_digest:
        print(f"digest MISMATCH: expected {args.check_digest}")
        return 1
    return 0


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


def cmd_trace(args) -> int:
    from repro.bench.runner import _golden_pipeline_digests
    from repro.obs import ListSink, Tracer, write_chrome_trace
    from repro.sim import Simulator
    from repro.testbed.compile import compile_scenario, load_named

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, sink=ListSink())
    digest = compile_scenario(load_named(args.scenario)).run(
        sim=sim, tracer=tracer).digest
    records = tracer.records
    golden = _golden_pipeline_digests().get(args.scenario)

    count = write_chrome_trace(records, args.out)
    print(f"{args.scenario}: {len(records)} trace records -> "
          f"{count} trace events -> {args.out}")
    print(f"digest: {digest}")
    if golden is not None:
        ok = digest == golden
        print("golden (tracing must not move it):",
              "OK" if ok else f"MISMATCH (expected {golden})")
        return 0 if ok else 1
    return 0


def cmd_faults(args) -> int:
    from repro.errors import ScenarioError
    from repro.testbed.compile import compile_scenario, load_named

    if args.verify_off:
        # A disabled injector (an empty [faults] table) attached to the
        # full distributed checkpoint must not move the golden digest by
        # a single bit.
        from repro.bench.runner import _golden_pipeline_digests

        golden = _golden_pipeline_digests()["ckpt10_coordinated"]
        digest = compile_scenario(load_named(
            "ckpt10_coordinated", {"faults": {}})).run().digest
        ok = digest == golden
        print(f"faults-off ckpt10 digest: {digest}")
        print(f"golden:                   {golden}")
        print("fault-free equivalence:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    try:
        spec = load_named("ckpt10_faultstorm", {
            "nodes[0].count": args.nodes, "faults.seed": args.seed})
    except ScenarioError as exc:
        print(f"scenario error: {exc}")
        return 2
    plan = spec.fault_plan
    crashes = ", ".join(f"{c.agent} crashes mid-{c.stage}"
                        for c in plan.crashes)
    print(f"fault storm: {args.nodes} nodes, plan seed {plan.seed}, "
          f"bus loss {plan.bus.loss_prob:.0%}, {crashes} ...")
    storm = compile_scenario(spec)
    first = storm.run(race=args.race)
    details = first.details
    bus = details["bus"]
    print(f"  attempt(s): {details['supervisor_attempts']}   "
          f"completed: {details['completed']}")
    print(f"  faults injected: {sum(details['injected'].values())} "
          f"{dict(sorted(details['injected'].items()))}")
    print(f"  bus: {bus['retransmits']} retransmits, "
          f"{bus['duplicates_suppressed']} duplicates suppressed, "
          f"{bus['gave_up']} gave up")
    if details["excluded"]:
        print(f"  degraded: excluded {details['excluded']}")
    if args.race:
        print(f"  races: {first.race_report}")
    second = storm.run()
    deterministic = first.digest == second.digest
    print(f"  run 1 digest: {first.digest}")
    print(f"  run 2 digest: {second.digest}")
    print("determinism:", "OK" if deterministic else "FAILED")
    ok = (details["completed"] and deterministic and
          (not args.race or first.races == 0))
    print("fault storm:", "SURVIVED" if ok else "FAILED")
    return 0 if ok else 1


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
    lint.add_argument("--baseline", metavar="FILE",
                      help="ratchet file: fail only on findings absent "
                           "from FILE")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="record the current findings to FILE and exit 0")
    bench = sub.add_parser("bench", help="event-core performance benchmarks")
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads (CI smoke run)")
    bench.add_argument("--output", metavar="PATH",
                       help="JSON artifact path (default: "
                            "BENCH_sim_core.json at repo root; with "
                            "--profile: benchmarks/results/"
                            "PROFILE_sim_core.json)")
    bench.add_argument("--profile", action="store_true",
                       help="profile the event loop instead: hot-spot "
                            "attribution + trace record counts, written "
                            "as a JSON report")
    bench.add_argument("--scenario-file", metavar="PATH",
                       help="bench a declarative scenario file instead of "
                            "the built-in registry: run it twice and "
                            "assert the digests agree")
    scenario = sub.add_parser("scenario",
                              help="run one declarative scenario file "
                                   "(docs/scenarios.md)")
    scenario.add_argument("file", help="scenario .toml/.json path")
    scenario.add_argument("--race", action="store_true",
                          help="run under the event-race detector "
                               "(non-zero exit on findings)")
    scenario.add_argument("--json", action="store_true",
                          help="machine-readable result")
    scenario.add_argument("--check-digest", metavar="HEX",
                          help="fail unless the run digest equals HEX")
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
    faults = sub.add_parser("faults",
                            help="seeded fault-storm survival + determinism")
    faults.add_argument("--nodes", type=int, default=10,
                        help="experiment size (default: 10)")
    faults.add_argument("--seed", type=int, default=1,
                        help="fault-plan seed (default: 1)")
    faults.add_argument("--race", action="store_true",
                        help="run under the event-race detector")
    faults.add_argument("--verify-off", action="store_true",
                        help="check a disabled injector preserves the "
                             "ckpt10 golden digest, then exit")
    trace = sub.add_parser("trace",
                           help="run a scenario traced; export a Chrome/"
                                "Perfetto timeline")
    trace.add_argument("scenario", choices=sorted(NAMED_SCENARIOS),
                       help="which named scenario to run")
    trace.add_argument("--out", metavar="PATH", default="trace.json",
                       help="trace_event JSON output path "
                            "(default: trace.json)")
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
            "bench": cmd_bench, "faults": cmd_faults,
            "trace": cmd_trace, "snapshot": cmd_snapshot,
            "scenario": cmd_scenario, "sweep": cmd_sweep}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
