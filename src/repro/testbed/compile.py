"""Compile a validated :class:`~repro.testbed.dsl.ScenarioSpec` into a rig.

:func:`compile_scenario` turns one parsed scenario into a
:class:`CompiledScenario` whose :meth:`~CompiledScenario.run` constructs
exactly the objects the hand-wired figure scenarios construct — same
``Emulab`` configuration, same workload constructors, same checkpoint
schedule generators (:mod:`repro.testbed.schedule`) — so a DSL file and
its hand-wired twin produce **bit-identical digests**.  The equivalence
tests (``tests/test_dsl_equivalence.py``) hold the compiler to that.

Digest recipes (``[run] digest``, default ``"auto"``):

``experiment``
    :func:`~repro.analysis.digest.experiment_digest` alone (fig6/fig7
    style).
``local-parts``
    experiment digest + per-checkpoint timing parts + per-workload
    iteration summaries (fig4/fig5 style).
``coordinated-parts``
    experiment digest + per-round coordinated parts (ckpt10 style).
``survival``
    ``sha256(trace_digest + ":" + experiment_digest)`` — the fault-storm
    :class:`~repro.faults.scenario.SurvivalReport` fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.digest import (checkpoint_result_parts,
                                   coordinated_result_parts,
                                   experiment_digest, hash_parts)
from repro.errors import ScenarioError
from repro.sim import Simulator
from repro.testbed.dsl import ScenarioSpec, load_scenario
from repro.testbed.schedule import (periodic_coordinated_checkpoints,
                                    periodic_local_checkpoints,
                                    supervised_checkpoints)
from repro.units import MB, MS, SECOND

__all__ = ["CompiledScenario", "ScenarioResult", "compile_scenario",
           "run_scenario_file"]


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    name: str
    recipe: str
    digest: str
    virtual_now_ns: int
    #: per-run facts: workload summaries, checkpoint counts, fault
    #: injections, bus counters — shape depends on the scenario kind
    details: Dict[str, Any] = field(default_factory=dict)
    races: int = 0
    race_report: str = ""


def _policy(name: str):
    from repro.checkpoint import (FailFast, ProceedWithoutDelayNodes,
                                  RetryThenAbort)

    return {"retry-then-abort": RetryThenAbort,
            "fail-fast": FailFast,
            "proceed-without-delay-nodes": ProceedWithoutDelayNodes}[name]()


class CompiledScenario:
    """A scenario ready to run; construction happens inside :meth:`run`.

    Compilation is split from execution so one compiled scenario can run
    many times (sweep workers, bench repetitions) with a fresh
    :class:`~repro.sim.core.Simulator` each time.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    def run(self, sim: Optional[Simulator] = None,
            race: bool = False) -> ScenarioResult:
        """Build the rig, run it, and assemble the digest."""
        if self.spec.kind == "world":
            return self._run_world()
        return self._run_testbed(sim, race)

    # -- testbed kind ----------------------------------------------------------

    def _run_testbed(self, sim: Optional[Simulator],
                     race: bool) -> ScenarioResult:
        from repro.checkpoint import (CheckpointSupervisor,
                                      ReliabilityConfig)
        from repro.faults.injector import FaultInjector
        from repro.obs.trace import Tracer
        from repro.testbed import Emulab, TestbedConfig
        from repro.xen.checkpoint import CheckpointConfig

        spec = self.spec
        if sim is None:
            sim = Simulator()
        detector = sim.enable_race_detection() if race else None
        recipe = spec.digest_recipe
        # The survival digest hashes the trace, so that recipe (and only
        # that recipe) gets a tracer — matching run_faultstorm.  Other
        # recipes run untraced like their hand-wired twins.
        tracer = (Tracer(clock=lambda: sim.now)
                  if recipe == "survival" else None)
        injector = None
        if spec.fault_plan is not None:
            injector = FaultInjector(sim, spec.fault_plan, tracer=tracer)
        config = TestbedConfig(
            num_machines=spec.num_machines, seed=spec.seed,
            checkpoint_config=CheckpointConfig(**spec.checkpoint_overrides),
            bus_reliability=(ReliabilityConfig() if spec.reliable_bus
                             else None),
            stage_timeout_ns=spec.stage_timeout_ns)
        testbed = Emulab(sim, config, tracer=tracer, faults=injector)
        exp = testbed.define_experiment(spec.experiment)
        sim.run(until=exp.swap_in())
        start = sim.now

        instances = self._start_workloads(testbed, exp)

        schedule = spec.schedule
        results: List = []
        supervisor = None
        if schedule.mode == "local":
            results = periodic_local_checkpoints(
                sim, exp.node(schedule.node).checkpointer,
                period_ns=schedule.period_ns, count=schedule.count,
                start_at_ns=start + schedule.start_ns)
        elif schedule.mode == "coordinated":
            results = periodic_coordinated_checkpoints(
                sim, exp, period_ns=schedule.period_ns,
                count=schedule.count,
                start_at_ns=start + schedule.start_ns)
        elif schedule.mode == "supervised":
            supervisor = CheckpointSupervisor(
                sim, exp.coordinator, policy=_policy(schedule.policy),
                tracer=tracer)
            results = supervised_checkpoints(
                sim, supervisor, delay_ns=schedule.start_ns,
                count=schedule.count, period_ns=schedule.period_ns)

        run = spec.run
        if run.seconds is not None:
            sim.run(until=start + int(round(run.seconds * SECOND)))
        else:
            joinable = [w for _, w in instances if hasattr(w, "join")]
            if not joinable:
                raise ScenarioError(
                    "no [run] seconds and no joinable workload — the run "
                    "would never end", path="run.seconds",
                    source=spec.source)
            for workload in joinable:
                sim.run(until=workload.join())
        if run.stop_workloads:
            for _, workload in instances:
                if hasattr(workload, "stop"):
                    workload.stop()
        if run.settle_ns:
            sim.run(until=sim.now + run.settle_ns)

        digest, details = self._digest(exp, recipe, results, instances,
                                       tracer)
        if injector is not None:
            details["injected"] = dict(injector.injected)
        if supervisor is not None:
            details["supervisor_attempts"] = supervisor.attempts
            details["excluded"] = sorted(exp.coordinator.excluded)
        if spec.reliable_bus:
            bus = testbed.control.bus
            details["bus"] = {"retransmits": bus.retransmits,
                              "gave_up": bus.gave_up,
                              "duplicates_suppressed":
                                  bus.duplicates_suppressed}
        return ScenarioResult(
            name=spec.name, recipe=recipe, digest=digest,
            virtual_now_ns=sim.now, details=details,
            races=detector.race_count if detector is not None else 0,
            race_report=detector.report() if detector is not None else "")

    def _start_workloads(self, testbed, exp) -> List:
        """Construct and start every workload; returns (kind, obj) pairs."""
        from repro.workloads import (BitTorrentSwarm, CpuBurnBenchmark,
                                     IperfSession, SleeperBenchmark)

        instances: List = []
        for w in self.spec.workloads:
            if w.kind == "sleeper":
                for node in w.nodes:
                    bench = SleeperBenchmark(
                        exp.kernel(node),
                        sleep_ns=int(round(w.param("sleep_ms") * MS)),
                        iterations=w.param("iterations"))
                    bench.start()
                    instances.append((w.kind, bench))
            elif w.kind == "cpuburn":
                for node in w.nodes:
                    bench = CpuBurnBenchmark(
                        exp.kernel(node), w.param("work_ns"),
                        iterations=w.param("iterations"))
                    bench.start()
                    instances.append((w.kind, bench))
            elif w.kind == "iperf":
                session = IperfSession(
                    exp.kernel(w.nodes[0]), exp.kernel(w.nodes[1]),
                    port=w.param("port"),
                    app_rate_bytes_per_s=int(
                        round(w.param("rate_mb_per_s") * MB)))
                session.start()
                instances.append((w.kind, session))
            elif w.kind == "bittorrent":
                swarm = BitTorrentSwarm(
                    [exp.kernel(n) for n in w.nodes],
                    seeder_index=w.param("seeder_index"),
                    file_bytes=int(round(w.param("file_mb") * MB)),
                    rng=testbed.streams.stream(w.param("stream")))
                swarm.start()
                instances.append((w.kind, swarm))
        return instances

    def _digest(self, exp, recipe: str, results: List, instances: List,
                tracer) -> tuple:
        details: Dict[str, Any] = {"checkpoints": len(results)}
        summaries = []
        for kind, workload in instances:
            result = getattr(workload, "result", None)
            iteration_ns = getattr(result, "iteration_ns", None)
            if iteration_ns:
                summaries.append((kind, len(iteration_ns),
                                  sum(iteration_ns), max(iteration_ns)))
        if summaries:
            details["workloads"] = summaries
        exp_digest = experiment_digest(exp)
        if recipe == "experiment":
            return exp_digest, details
        if recipe == "local-parts":
            parts = [exp_digest]
            parts.extend(checkpoint_result_parts(results))
            parts.extend(summaries)
            return hash_parts(parts), details
        if recipe == "coordinated-parts":
            parts = [exp_digest]
            parts.extend(coordinated_result_parts(results))
            return hash_parts(parts), details
        # survival: the SurvivalReport.digest recipe
        from repro.faults.scenario import trace_digest

        td = trace_digest(tracer.records)
        details["trace_records"] = len(tracer.records)
        details["completed"] = bool(results) and results[0].ok
        blob = f"{td}:{exp_digest}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest(), details

    # -- world kind ------------------------------------------------------------

    def _run_world(self) -> ScenarioResult:
        from repro.timetravel.controller import TimeTravelController
        from repro.timetravel.resume import DEFAULT_SEEDS, run_durable
        from repro.timetravel.scenarios import world_factory

        spec = self.spec
        world = spec.world
        seed = spec.seed if spec.seed else DEFAULT_SEEDS[world.world]
        if world.durable_dir:
            result = run_durable(world.world, world.durable_dir,
                                 steps=world.checkpoints,
                                 step_ns=world.interval_ns,
                                 fsync=world.fsync, seed=seed,
                                 resume=world.resume)
            return ScenarioResult(
                name=spec.name, recipe="world", digest=result["digest"],
                virtual_now_ns=result["virtual_now"],
                details={"committed": result["committed"],
                         "durability": result["durability"],
                         "restore_stats": result["restore_stats"]})
        controller = TimeTravelController(world_factory(world.world),
                                          seed=seed)
        for i in range(1, world.checkpoints + 1):
            controller.active_run.advance_to_quiescence(
                i * world.interval_ns)
            controller.checkpoint(label=f"t{i}")
        return ScenarioResult(
            name=spec.name, recipe="world",
            digest=controller.active_run.state_digest(),
            virtual_now_ns=controller.active_run.virtual_now(),
            details={"checkpoints": world.checkpoints})


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Wrap a validated spec; raises on contradictions the parser allows."""
    if spec.kind == "testbed" and spec.experiment is None:
        raise ScenarioError("testbed scenario has no nodes",
                            path="nodes", source=spec.source)
    return CompiledScenario(spec)


def run_scenario_file(path: str, sim: Optional[Simulator] = None,
                      race: bool = False,
                      env: Optional[Dict[str, str]] = None
                      ) -> ScenarioResult:
    """Load + compile + run one scenario file in a single call."""
    return compile_scenario(load_scenario(path, env=env)).run(sim=sim,
                                                              race=race)
