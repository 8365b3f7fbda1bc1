"""Seeded fault injector: interprets a :class:`FaultPlan` against a run.

Determinism contract:

* Every probabilistic decision is drawn from the injector's own
  ``derived_rng("faults.<class>", plan.seed)`` substream — never from a
  stream any production component uses — so attaching an injector does
  not shift a single existing draw.
* With an empty (or ``None``) plan the injector schedules **zero**
  simulator events and returns the shared :data:`NO_FAULT` verdict from
  every hook, so golden digests stay bit-identical.
* Every injected fault emits a structured ``fault.*`` trace record, so
  ``analysis.metrics`` can aggregate what actually fired.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import CheckpointError, SimulatedCrash, StorageError
from repro.faults.plan import AgentCrash, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, maybe_record
from repro.sim.core import Simulator
from repro.sim.random import derived_rng


@dataclass(frozen=True)
class DeliveryVerdict:
    """What the injector decided for one bus delivery attempt."""

    drop: bool = False
    duplicate: bool = False
    extra_delay_ns: int = 0


#: shared "nothing happens" verdict — the disabled-path return value
NO_FAULT = DeliveryVerdict()


class _LossBudget:
    """Mutable remaining-count for one targeted :class:`MessageLoss`."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self.remaining = spec.count

    def matches(self, topic: str, subscriber: str) -> bool:
        if self.remaining <= 0:
            return False
        if not topic.endswith(self.spec.topic):
            return False
        return not self.spec.subscriber or self.spec.subscriber == subscriber


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically against one sim."""

    def __init__(self, sim: Simulator, plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.plan = plan or FaultPlan()
        self.tracer = tracer
        #: optional registry mirroring :attr:`injected` as counters
        self.metrics = metrics
        self.enabled = self.plan.active
        #: per-class counts of faults actually injected
        self.injected: Dict[str, int] = {}
        #: open crash→reboot windows (async spans), by agent name
        self._windows: Dict[str, object] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._losses = [_LossBudget(s) for s in self.plan.message_losses]
        self._disk_remaining: List[int] = [f.max_failures
                                           for f in self.plan.disk_faults]
        #: remaining kills per ProcessCrash spec (harness-side state,
        #: like timed faults: re-armed by whoever rebuilds the world)
        self._crash_remaining: List[int] = [c.count for c in
                                            self.plan.process_crashes]
        #: 1-based counter of durable save operations seen (for
        #: ``ProcessCrash.during_save`` targeting)
        self._saves_seen = 0
        self._agents: Dict[str, object] = {}
        self._clocks: Dict[str, object] = {}
        self._armed = False

    # -- plumbing --------------------------------------------------------------

    def _rng(self, name: str) -> random.Random:
        rng = self._rngs.get(name)
        if rng is None:
            rng = derived_rng(f"faults.{name}", self.plan.seed)
            self._rngs[name] = rng
        return rng

    def _record(self, category: str, **fields) -> None:
        self.injected[category] = self.injected.get(category, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(category).inc()
        maybe_record(self.tracer, category, **fields)

    # -- registration ----------------------------------------------------------

    def register_agent(self, agent) -> None:
        """Register a pipeline agent (node or delay-node) by name."""
        self._agents[agent.name] = agent

    def register_clock(self, name: str, clock) -> None:
        """Register a node's system clock for :class:`ClockStep` faults."""
        self._clocks[name] = clock

    def register_store(self, store) -> None:
        """Attach this injector to a :class:`BranchStore` (disk faults)."""
        store.faults = self

    def register_durable_store(self, store) -> None:
        """Attach this injector to a durable snapshot store.

        Wires both fault classes the durable write path consumes:
        :class:`~repro.faults.plan.ProcessCrash` fires through the
        store's ``crash_hook`` at named durability barriers, and
        :class:`~repro.faults.plan.DiskFault` entries with
        ``store="durable"`` raise transient I/O errors inside the
        store's retried write path.
        """
        store.crash_hook = self.process_crash_check
        store.faults = self

    def bind_experiment(self, experiment) -> None:
        """Register every agent, clock, and branch store of an experiment."""
        for name, node in experiment.nodes.items():
            self.register_agent(node.agent)
            self.register_clock(name, node.machine.clock)
            self.register_store(node.branch)
            node.volume_manager.faults = self
        for agent in experiment.delay_agents.values():
            self.register_agent(agent)
            self.register_clock(agent.name, agent.clock)

    # -- timed events ----------------------------------------------------------

    def arm(self) -> None:
        """Schedule the plan's timed faults.  Idempotent; schedules
        nothing when the plan has no timed events."""
        if self._armed or not self.enabled:
            return
        self._armed = True
        for spec in self.plan.crashes:
            self._arm_crash(spec)
        for spec in self.plan.delay_failures:
            crash = AgentCrash(agent=spec.agent, at_ns=spec.at_ns)
            self._arm_crash(crash, kind="fault.delaynode.crash")
        for spec in self.plan.clock_steps:
            self._arm_clock_step(spec)

    def _arm_crash(self, spec: AgentCrash,
                   kind: str = "fault.agent.crash") -> None:
        if spec.at_ns is not None:
            at = max(self.sim.now, spec.at_ns)
            self.sim.call_at(at, lambda: self._crash(spec, kind))
            return
        if spec.stage is None:
            raise ValueError(f"AgentCrash({spec.agent}): need at_ns or stage")
        # Stage-relative trigger: observe the agent's pipeline and fire
        # offset_ns after the named stage first starts.
        fired = [False]

        def observer(stage, _provider) -> None:
            if fired[0] or stage.value != spec.stage:
                return
            fired[0] = True
            self.sim.call_in(spec.offset_ns, lambda: self._crash(spec, kind))

        agent = self._agents.get(spec.agent)
        if agent is None:
            raise KeyError(f"AgentCrash: unknown agent {spec.agent!r} "
                           f"(registered: {sorted(self._agents)})")
        agent.pipeline.stage_observers.append(observer)

    def _crash(self, spec: AgentCrash, kind: str) -> None:
        agent = self._agents.get(spec.agent)
        if agent is None or agent._detached:
            return
        self._record(kind, agent=spec.agent, at_ns=self.sim.now,
                     stage=spec.stage or "", reboot=(
                         spec.reboot_after_ns is not None))
        agent.crash()
        if spec.reboot_after_ns is not None:
            tracer = self.tracer
            if tracer is not None and tracer.enabled_for("fault.window"):
                # The crash→reboot window is an async episode on the
                # agent's fault track; overlapping outages render stacked.
                self._windows[spec.agent] = tracer.async_span(
                    "fault.window", track=f"fault/{spec.agent}",
                    name=kind, agent=spec.agent,
                    stage=spec.stage or "")
            self.sim.call_in(spec.reboot_after_ns,
                             lambda: self._revive(spec.agent))

    def _revive(self, name: str) -> None:
        agent = self._agents.get(name)
        if agent is None or not agent._detached:
            return
        self._record("fault.agent.reboot", agent=name, at_ns=self.sim.now)
        window = self._windows.pop(name, None)
        if window is not None:
            window.end(outcome="rebooted")
        agent.revive()

    def _arm_clock_step(self, spec) -> None:
        def fire() -> None:
            clock = self._clocks.get(spec.node)
            if clock is None:
                return
            self._record("fault.clock.step", node=spec.node,
                         step_ns=spec.step_ns, at_ns=self.sim.now)
            clock.step(spec.step_ns)

        self.sim.call_at(max(self.sim.now, spec.at_ns), fire)

    # -- bus hooks -------------------------------------------------------------

    def bus_delivery(self, topic: str, subscriber: str,
                     attempt: int = 0) -> DeliveryVerdict:
        """Decide the fate of one delivery attempt.  Draws only on the
        injector's own substreams, and only for fault classes whose
        probability is non-zero."""
        if not self.enabled:
            return NO_FAULT
        for budget in self._losses:
            if budget.matches(topic, subscriber):
                budget.remaining -= 1
                self._record("fault.bus.drop", topic=topic,
                             subscriber=subscriber, attempt=attempt,
                             targeted=True)
                return DeliveryVerdict(drop=True)
        cfg = self.plan.bus
        if cfg.loss_prob > 0 and self._rng("bus.loss").random() < cfg.loss_prob:
            self._record("fault.bus.drop", topic=topic,
                         subscriber=subscriber, attempt=attempt,
                         targeted=False)
            return DeliveryVerdict(drop=True)
        duplicate = (cfg.duplicate_prob > 0 and
                     self._rng("bus.dup").random() < cfg.duplicate_prob)
        extra = 0
        if (cfg.delay_spike_prob > 0 and
                self._rng("bus.delay").random() < cfg.delay_spike_prob):
            extra = cfg.delay_spike_ns
        if duplicate:
            self._record("fault.bus.duplicate", topic=topic,
                         subscriber=subscriber, attempt=attempt)
        if extra:
            self._record("fault.bus.delay", topic=topic,
                         subscriber=subscriber, extra_delay_ns=extra)
        if duplicate or extra:
            return DeliveryVerdict(duplicate=duplicate, extra_delay_ns=extra)
        return NO_FAULT

    def bus_ack_lost(self, topic: str, subscriber: str) -> bool:
        """Whether the reliable-mode ack for a delivery is dropped."""
        if not self.enabled:
            return False
        cfg = self.plan.bus
        prob = (cfg.ack_loss_prob if cfg.ack_loss_prob is not None
                else cfg.loss_prob)
        if prob > 0 and self._rng("bus.ack").random() < prob:
            self._record("fault.bus.ack_drop", topic=topic,
                         subscriber=subscriber)
            return True
        return False

    # -- snapshot/restore --------------------------------------------------------

    def serialize_state(self) -> dict:
        """Substream positions, loss budgets, and injected counts.

        Timed faults (crashes, clock steps) are *not* serialized: they
        are part of the plan and re-armed by whoever rebuilds the world,
        exactly as a replay would.  What must survive a restore is the
        injector's consumable state — where each probabilistic substream
        stands, how many targeted losses and disk faults remain — so the
        restored run's future fault decisions match the replayed run's.
        Cannot serialize while a crash→reboot window is open (live span).
        """
        from repro.sim.random import encode_rng_state

        if self._windows:
            raise CheckpointError(
                f"fault injector: open crash windows "
                f"{sorted(self._windows)} cannot be serialized")
        return {
            "seed": self.plan.seed,
            "rngs": {name: encode_rng_state(rng.getstate())
                     for name, rng in sorted(self._rngs.items())},
            "losses": [b.remaining for b in self._losses],
            "disk_remaining": list(self._disk_remaining),
            "injected": dict(sorted(self.injected.items())),
        }

    def restore_state(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload.

        The injector must interpret the same plan (seed check guards the
        obvious mismatch).  Substreams present in the payload are
        re-derived and positioned; live substreams absent from it are
        dropped so first use re-derives from the seed — matching a
        replayed world that had not touched them yet.
        """
        from repro.sim.random import decode_rng_state

        expected = ("seed", "rngs", "losses", "disk_remaining",
                    "injected")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise CheckpointError("fault injector: malformed payload")
        if state["seed"] != self.plan.seed:
            raise CheckpointError(
                f"fault injector: plan seed {self.plan.seed} != "
                f"snapshot seed {state['seed']}")
        if len(state["losses"]) != len(self._losses) or \
                len(state["disk_remaining"]) != len(self._disk_remaining):
            raise CheckpointError(
                "fault injector: plan shape mismatch (loss/disk counts)")
        for name in list(self._rngs):
            if name not in state["rngs"]:
                del self._rngs[name]
        for name, rng_state in state["rngs"].items():
            self._rng(name).setstate(decode_rng_state(rng_state))
        for budget, remaining in zip(self._losses, state["losses"]):
            budget.remaining = remaining
        self._disk_remaining = list(state["disk_remaining"])
        self.injected = dict(state["injected"])

    # -- process-death hook ------------------------------------------------------

    def process_crash_check(self, point: str) -> None:
        """Raise :class:`SimulatedCrash` if a matching kill is armed.

        Called by :class:`~repro.checkpoint.durable.DurableSnapshotStore`
        at every named durability barrier.  ``point == "save.begin"``
        advances the save counter so ``during_save`` targeting works;
        a spec with ``during_save=0`` matches any save.  The budgets are
        harness-side consumables (not serialized with the injector):
        a restored world re-arms them from its plan, exactly as timed
        faults are re-armed.
        """
        if not self.enabled:
            return
        if point == "save.begin":
            self._saves_seen += 1
        for i, spec in enumerate(self.plan.process_crashes):
            if self._crash_remaining[i] <= 0:
                continue
            if spec.at_point != point:
                continue
            if spec.during_save and spec.during_save != self._saves_seen:
                continue
            self._crash_remaining[i] -= 1
            self._record("fault.process.crash", point=point,
                         save=self._saves_seen, at_ns=self.sim.now,
                         remaining=self._crash_remaining[i])
            raise SimulatedCrash(
                f"injected process death at crash point {point!r} "
                f"(save #{self._saves_seen}, fault #{i})")

    # -- disk hook -------------------------------------------------------------

    def disk_check(self, store: str, operation: str) -> None:
        """Raise :class:`StorageError` if a matching disk fault fires."""
        if not self.enabled:
            return
        for i, fault in enumerate(self.plan.disk_faults):
            if self._disk_remaining[i] <= 0:
                continue
            if fault.store not in ("*", store):
                continue
            if fault.operation not in ("*", operation):
                continue
            if self.sim.now < fault.after_ns:
                continue
            if (fault.probability < 1.0 and
                    self._rng("disk").random() >= fault.probability):
                continue
            self._disk_remaining[i] -= 1
            self._record("fault.disk", store=store, operation=operation,
                         at_ns=self.sim.now,
                         remaining=self._disk_remaining[i])
            raise StorageError(
                f"injected I/O error: {store}.{operation} (fault #{i})")
