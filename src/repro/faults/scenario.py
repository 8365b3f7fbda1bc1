"""Fault-storm survival scenario: the acceptance rig for ``repro.faults``.

Ten guests on a shaped LAN run sleep-loop workloads while a seeded
:class:`~repro.faults.plan.FaultPlan` batters the control plane — 10%
control-bus message loss plus one node agent crashing mid-``save`` and
rebooting.  The reliable bus and a
:class:`~repro.checkpoint.supervisor.CheckpointSupervisor` must carry one
coordinated checkpoint to completion within the retry budget.

Everything is deterministic: the same plan seed yields a bit-identical
trace digest and experiment digest on every run (the ``repro faults``
CLI runs the storm twice and compares).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.checkpoint import (CheckpointSupervisor, DegradationPolicy,
                              ReliabilityConfig, RetryThenAbort)
from repro.faults.injector import FaultInjector
from repro.faults.plan import AgentCrash, BusFaultConfig, FaultPlan
from repro.sim import Simulator
from repro.obs.trace import Tracer
from repro.units import MBPS, MS, SECOND


def default_storm_plan(seed: int = 1, crash_agent: str = "node3",
                       loss_prob: float = 0.10) -> FaultPlan:
    """The acceptance-criteria storm: lossy bus + one crash mid-save."""
    return FaultPlan(
        seed=seed,
        bus=BusFaultConfig(loss_prob=loss_prob),
        crashes=(AgentCrash(agent=crash_agent, stage="save",
                            offset_ns=2 * MS,
                            reboot_after_ns=1 * SECOND),))


def trace_digest(records) -> str:
    """SHA-256 over the canonical JSON form of a record sequence.

    Span records contribute their end time as well, so a run-to-run
    comparison also proves every duration was reproduced exactly.  (This
    digest is only ever compared between runs of the same code — it is
    not a stored golden.)

        >>> from repro.obs.trace import TraceRecord
        >>> a = trace_digest([TraceRecord(1, "fault.bus.drop", {})])
        >>> b = trace_digest([TraceRecord(2, "fault.bus.drop", {})])
        >>> (a == trace_digest([TraceRecord(1, "fault.bus.drop", {})]), a == b)
        (True, False)
    """
    parts = [(r.time, r.category, sorted(r.fields.items()),
              getattr(r, "end_time", None))
             for r in records]
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SurvivalReport:
    """What one fault-storm run survived, and proof it was deterministic."""

    completed: bool
    attempts: int
    excluded: Tuple[str, ...]
    #: reliable-bus counters
    retransmits: int
    gave_up: int
    duplicates_suppressed: int
    #: per-class counts of faults the injector actually fired
    injected: Dict[str, int] = field(default_factory=dict)
    #: control-plane metrics registry snapshot (bus + supervisor + faults)
    metrics: Dict = field(default_factory=dict)
    trace_digest: str = ""
    experiment_digest: str = ""
    trace_records: int = 0
    #: same-timestamp component races (only when run with ``race=True``)
    races: int = 0
    race_report: str = ""

    @property
    def digest(self) -> str:
        """One combined fingerprint of the whole run."""
        blob = f"{self.trace_digest}:{self.experiment_digest}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_faultstorm(num_nodes: int = 10, run_seconds: int = 30,
                   seed: int = 10, plan: Optional[FaultPlan] = None,
                   policy: Optional[DegradationPolicy] = None,
                   reliability: Optional[ReliabilityConfig] = None,
                   stage_timeout_ns: int = 3 * SECOND,
                   race: bool = False, sink=None) -> SurvivalReport:
    """Run the storm end to end in a fresh simulator; returns the report.

    The stage timeout is deliberately short so an aborted round plus its
    supervised retries fit inside ``run_seconds`` of simulated time.
    With ``race=True`` the runtime event-race detector watches the whole
    run (recovery paths included) and the report carries its findings.
    ``sink`` replaces the tracer's default in-memory list (e.g. a
    :class:`~repro.obs.sinks.RingSink` for bounded memory); the trace
    digest then covers whatever the sink retained.
    """
    from repro.analysis.digest import experiment_digest
    from repro.testbed import (Emulab, ExperimentSpec, NodeSpec,
                               TestbedConfig)
    from repro.testbed.experiment import LanSpec
    from repro.units import MB
    from repro.workloads import SleeperBenchmark

    sim = Simulator()
    detector = sim.enable_race_detection() if race else None
    tracer = Tracer(clock=lambda: sim.now, sink=sink)
    injector = FaultInjector(
        sim, plan if plan is not None else default_storm_plan(),
        tracer=tracer)
    testbed = Emulab(
        sim,
        TestbedConfig(num_machines=2 * num_nodes + 1, seed=seed,
                      bus_reliability=(reliability if reliability is not None
                                       else ReliabilityConfig()),
                      stage_timeout_ns=stage_timeout_ns),
        tracer=tracer, faults=injector)
    names = [f"node{i}" for i in range(num_nodes)]
    exp = testbed.define_experiment(ExperimentSpec(
        "storm",
        nodes=[NodeSpec(n, memory_bytes=32 * MB) for n in names],
        lans=[LanSpec("lan0", tuple(names), bandwidth_bps=100 * MBPS)]))
    sim.run(until=exp.swap_in())

    for name in names:
        SleeperBenchmark(exp.kernel(name), iterations=10_000).start()
    supervisor = CheckpointSupervisor(
        sim, exp.coordinator,
        policy=policy if policy is not None else RetryThenAbort(),
        tracer=tracer)

    outcome = []

    def drive():
        yield sim.timeout(2 * SECOND)
        result = yield supervisor.checkpoint_scheduled()
        outcome.append(result)

    start = sim.now
    sim.process(drive())
    sim.run(until=start + run_seconds * SECOND)

    bus = testbed.control.bus
    return SurvivalReport(
        completed=bool(outcome) and outcome[0].ok,
        attempts=supervisor.attempts,
        excluded=tuple(sorted(exp.coordinator.excluded)),
        retransmits=bus.retransmits,
        gave_up=bus.gave_up,
        duplicates_suppressed=bus.duplicates_suppressed,
        injected=dict(injector.injected),
        metrics=bus.metrics.snapshot(),
        trace_digest=trace_digest(tracer.records),
        experiment_digest=experiment_digest(exp),
        trace_records=len(tracer.records),
        races=detector.race_count if detector is not None else 0,
        race_report=detector.report() if detector is not None else "",
    )


def run_fault_free_ckpt10(seed: int = 10) -> str:
    """``ckpt10`` with an attached-but-empty injector and tracer.

    The digest must equal the plain ``run_ckpt10`` golden — proof that a
    disabled fault layer schedules nothing and draws nothing.
    """
    from repro.bench.scenarios import run_ckpt10

    sim = Simulator()
    return run_ckpt10(sim, seed=seed, faults=FaultInjector(sim, FaultPlan()))
