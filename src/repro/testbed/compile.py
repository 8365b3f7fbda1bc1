"""Compile a validated :class:`~repro.testbed.dsl.ScenarioSpec` into a rig.

:func:`compile_scenario` turns one parsed scenario into a
:class:`CompiledScenario` whose :meth:`~CompiledScenario.run` builds the
``Emulab`` rig, starts the workloads, drives the checkpoint schedule
(:mod:`repro.testbed.schedule`) and assembles the digest.  The scenario
files are the only definition of the figure experiments:
:data:`NAMED_SCENARIOS` maps every golden name to its file plus
overrides, and the stored goldens (:func:`load_goldens` reads
``benchmarks/results/PIPELINE_digests.json``) are the oracle.

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
    fingerprint over the traced recovery path and the final state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.digest import (checkpoint_result_parts,
                                   coordinated_result_parts,
                                   experiment_digest, hash_parts,
                                   trace_digest)
from repro.errors import ScenarioError
from repro.sim import Simulator
from repro.testbed.dsl import ScenarioSpec, load_scenario
from repro.testbed.schedule import (periodic_coordinated_checkpoints,
                                    periodic_local_checkpoints,
                                    supervised_checkpoints)
from repro.units import MB, MS, SECOND

__all__ = ["CompiledScenario", "GOLDEN_PATH", "NAMED_SCENARIOS",
           "SCENARIO_DIR", "ScenarioResult", "compile_scenario",
           "load_goldens", "load_named"]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
#: the scenario files shipped with the repository
SCENARIO_DIR = os.path.join(_REPO_ROOT, "examples", "scenarios")
#: the stored golden digests, keyed by scenario name
GOLDEN_PATH = os.path.join(_REPO_ROOT, "benchmarks", "results",
                           "PIPELINE_digests.json")

#: every named experiment -> (scenario file, dotted-path overrides).  A
#: name with a stored golden must reproduce it bit for bit.
NAMED_SCENARIOS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "fig4_sleep": ("fig4.toml", {}),
    "fig5_cpuburn": ("fig5.toml", {}),
    "fig6_iperf": ("fig6.toml", {}),
    "fig6_iperf_5s_1ckpt": ("fig6.toml", {"run.seconds": 5,
                                          "checkpoints.count": 1}),
    "fig7_bittorrent": ("fig7.toml", {}),
    "fig7_bittorrent_8s_1ckpt": ("fig7.toml", {"run.seconds": 8,
                                               "checkpoints.count": 1}),
    "ckpt10_coordinated": ("ckpt10_coordinated.toml", {}),
    "ckpt10_faultstorm": ("ckpt10_faultstorm.toml", {}),
}


def load_named(name: str,
               overrides: Optional[Dict[str, Any]] = None) -> ScenarioSpec:
    """Load a :data:`NAMED_SCENARIOS` entry, plus extra ``overrides``."""
    filename, base = NAMED_SCENARIOS[name]
    return load_scenario(os.path.join(SCENARIO_DIR, filename),
                         overrides={**base, **(overrides or {})})


def load_goldens(path: Optional[str] = None) -> Dict[str, str]:
    """The stored golden digests (default: :data:`GOLDEN_PATH`) every
    named run must reproduce.

    A missing or unreadable golden file is an error, never an empty
    table: an empty table would silently turn every golden gate into a
    run-to-run check.
    """
    path = path or GOLDEN_PATH
    source = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            goldens = json.load(fh)["scenarios"]
    except OSError as exc:
        raise ScenarioError(f"cannot read golden digests: {exc}",
                            source=source) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed golden digests file: {exc!r}",
                            source=source) from exc
    if not isinstance(goldens, dict):
        raise ScenarioError("malformed golden digests file: "
                            '"scenarios" is not a table', source=source)
    return goldens


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    name: str
    recipe: str
    digest: str
    virtual_now_ns: int
    #: per-run facts: workload summaries, checkpoint counts, fault
    #: injections, bus counters — shape depends on the digest recipe
    details: Dict[str, Any] = field(default_factory=dict)
    races: int = 0
    race_report: str = ""
    #: the swapped-in experiment, the started workloads as (kind,
    #: object) pairs, the checkpoint results in completion order, and
    #: the virtual time swap-in finished at
    experiment: Any = None
    workloads: List[Tuple[str, Any]] = field(default_factory=list)
    checkpoints: List[Any] = field(default_factory=list)
    swap_in_ns: int = 0


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

    def run(self, sim: Optional[Simulator] = None, race: bool = False,
            tracer=None, streams=None) -> ScenarioResult:
        """Build the rig, run it, and assemble the digest.

        ``sim`` supplies the simulator (e.g. one with profiling on),
        ``race`` attaches the event-race detector, ``tracer`` records
        spans and records (it never moves a digest), and ``streams``
        replaces the testbed's random streams (shadow runs).
        """
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
        # The survival digest hashes the trace, so that recipe always
        # runs traced; the others trace only when the caller asks.
        if tracer is None and recipe == "survival":
            tracer = Tracer(clock=lambda: sim.now)
        injector = None
        if spec.fault_plan is not None:
            injector = FaultInjector(sim, spec.fault_plan, tracer=tracer)
        config = TestbedConfig(
            num_machines=spec.num_machines, seed=spec.seed,
            checkpoint_config=CheckpointConfig(**spec.checkpoint_overrides),
            bus_reliability=(ReliabilityConfig() if spec.reliable_bus
                             else None),
            stage_timeout_ns=spec.stage_timeout_ns)
        testbed = Emulab(sim, config, streams=streams, tracer=tracer,
                         faults=injector)
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
        bus = testbed.control.bus
        if spec.reliable_bus:
            details["bus"] = {"retransmits": bus.retransmits,
                              "gave_up": bus.gave_up,
                              "duplicates_suppressed":
                                  bus.duplicates_suppressed}
        if recipe == "survival":
            details["metrics"] = bus.metrics.snapshot()
        return ScenarioResult(
            name=spec.name, recipe=recipe, digest=digest,
            virtual_now_ns=sim.now, details=details,
            races=detector.race_count if detector is not None else 0,
            race_report=detector.report() if detector is not None else "",
            experiment=exp, workloads=instances, checkpoints=results,
            swap_in_ns=start)

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
        # survival: the trace and the final state, hashed together
        td = trace_digest(tracer.records)
        details["trace_records"] = len(tracer.records)
        details["completed"] = bool(results) and results[0].ok
        details["experiment_digest"] = exp_digest
        blob = f"{td}:{exp_digest}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest(), details


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Wrap a validated spec; raises on contradictions the parser allows."""
    if spec.experiment is None:
        raise ScenarioError("scenario has no nodes",
                            path="nodes", source=spec.source)
    return CompiledScenario(spec)
