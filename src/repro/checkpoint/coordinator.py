"""Coordinated distributed checkpoint (§4.3–4.4).

The protocol reconciles two requirements: atomicity across the network
(every node suspends at "the same" instant) and capturing the network core
(delay nodes serialize their Dummynet state).  It runs in four rounds over
the notification bus:

1. ``prepare`` — every node agent runs the pipeline's ``prepare`` and
   ``precopy`` stages (live memory copy; delay-node agents have nothing
   to pre-copy).  Each replies ``ready``.
2. ``suspend_at T`` — the coordinator picks a wall-clock deadline ``T``
   (its own NTP-disciplined clock plus a margin) and publishes it.  Each
   agent arms a one-shot timer against its *own* disciplined clock, so
   the realized suspend skew equals the residual clock-synchronization
   error — the paper's transparency bound.  (``checkpoint_now`` instead
   suspends on message receipt: skew = control-network delivery jitter.)
3. Agents run ``quiesce → suspend → save → branch`` and report
   ``saved``; the coordinator's barrier waits for all of them.
4. ``resume`` — all agents thaw on receipt, so resume skew is again one
   bus-delivery jitter.

Every agent drives the same staged engine
(:class:`~repro.checkpoint.pipeline.CheckpointPipeline`); the coordinator
owns only barriers and failure semantics.  A barrier that times out, or
an agent that publishes a structured ``failed`` report, triggers the
**two-phase abort**: the coordinator publishes ``abort``, every agent
rolls its providers back to running state (pipeline ``abort``) and acks
``aborted``, and the checkpoint returns a
:class:`~repro.checkpoint.pipeline.CheckpointFailure` instead of wedging
the barrier forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.bus import Barrier, BusMessage, NotificationBus
from repro.checkpoint.pipeline import (AgentFailure, BranchProvider,
                                       CheckpointFailure, CheckpointPipeline,
                                       ClockProvider, DelayNodeProvider,
                                       Stage, StageFailed)
from repro.clocksync.clock import SystemClock
from repro.errors import CheckpointError, FirewallViolation, StorageError
from repro.net.delaynode import DelayNode, DelayNodeSnapshot
from repro.sim.core import Simulator
from repro.obs.trace import NULL_SPAN, Tracer, maybe_record
from repro.units import MS, SECOND
from repro.xen.checkpoint import CheckpointResult, LocalCheckpointer


class _PipelineAgent:
    """Bus plumbing shared by node and delay-node agents.

    Subclasses own a :class:`CheckpointPipeline`; this base wires the
    session topics, arms the suspend deadline, runs the suspend span, and
    routes stage failures into structured ``failed`` reports instead of
    letting a :class:`CheckpointError` escape a bus callback into the
    simulator loop.
    """

    def __init__(self, sim: Simulator, name: str, clock: SystemClock,
                 bus: NotificationBus, session: str) -> None:
        self.sim = sim
        self.name = name
        self.clock = clock
        self.bus = bus
        self.session = session
        self.last_failure: Optional[AgentFailure] = None
        self._suspend_arm = None
        self._aborting = False
        self._detached = False
        #: coordinator round this agent is participating in (set by the
        #: ``prepare`` message; stale-round messages are dropped)
        self._epoch = -1
        #: messages dropped because they belonged to an earlier round
        self.stale_messages = 0
        self._topics = (
            ("prepare", self._on_prepare),
            ("suspend_at", self._on_suspend_at),
            ("now", self._on_now),
            ("resume", self._on_resume),
            ("abort", self._on_abort),
        )
        self._subscribe_all()

    # Subclasses provide the pipeline.
    pipeline: CheckpointPipeline

    def _subscribe_all(self) -> None:
        for topic, handler in self._topics:
            self.bus.subscribe(f"{self.session}/{topic}", self.name, handler)

    def kill(self) -> None:
        """Stop responding to the bus (simulates an agent/node death)."""
        self._detached = True
        self._aborting = True
        if self._suspend_arm is not None:
            self._suspend_arm.cancel()
            self._suspend_arm = None
        for topic, _handler in self._topics:
            self.bus.unsubscribe(f"{self.session}/{topic}", self.name)

    def crash(self) -> None:
        """Fail-stop crash mid-protocol (alias that reads like a fault)."""
        self.kill()

    def revive(self):
        """Reboot a crashed agent: roll its providers back to running
        state (the reboot *is* the rollback) and rejoin the bus.

        Whatever rounds the agent missed while dead stay missed — the
        :class:`~repro.checkpoint.supervisor.CheckpointSupervisor` is
        what turns a reboot into a completed checkpoint, by retrying the
        whole round with the agent back in the quorum.
        """
        if not self._detached:
            return None
        self._epoch = -1
        return self.sim.process(self._reboot_rollback())

    def _reboot_rollback(self):
        try:
            yield from self.pipeline.abort()
        except (CheckpointError, FirewallViolation, StorageError):
            pass        # a rebooting node has nobody to report to
        self._detached = False
        self._aborting = False
        self._subscribe_all()

    # -- bus output ------------------------------------------------------------

    def _publish(self, topic: str, payload=None) -> None:
        """Publish unless crashed — a dead agent cannot reach the bus,
        even from a still-unwinding pipeline process."""
        if self._detached:
            return
        self.bus.publish(f"{self.session}/{topic}", payload,
                         publisher=self.name)

    def _reply(self) -> tuple:
        """Round-tagged ack payload for coordinator barriers."""
        return (self.name, self._epoch)

    def _stale(self, msg: BusMessage) -> bool:
        """Drop round-tagged messages from an earlier (aborted) round —
        e.g. a retransmitted ``resume`` arriving after a supervised
        retry already started the next round."""
        epoch = msg.payload
        if isinstance(epoch, int) and epoch != self._epoch:
            self.stale_messages += 1
            return True
        return False

    # -- failure routing ------------------------------------------------------

    def _report_failure(self, stage: str, exc: BaseException) -> None:
        if isinstance(exc, StageFailed):
            stage = exc.stage.value
        failure = AgentFailure(node=self.name, stage=stage, error=str(exc),
                               epoch=self._epoch)
        self.last_failure = failure
        self._publish("failed", failure)

    # -- round 1: prepare ------------------------------------------------------

    def _on_prepare(self, msg: BusMessage) -> None:
        if self._detached:
            return
        self._epoch = msg.payload if isinstance(msg.payload, int) else -1
        self._aborting = False
        self._prepare_impl()

    # -- round 2 arming -------------------------------------------------------

    def _on_suspend_at(self, msg: BusMessage) -> None:
        if self._detached:
            return
        deadline = msg.payload
        if isinstance(deadline, tuple):
            epoch, deadline = deadline
            if isinstance(epoch, int) and epoch != self._epoch:
                self.stale_messages += 1
                return

        def fire() -> None:
            self._suspend_arm = None
            self.sim.process(self._suspend())

        # A one-shot timer against the disciplined clock: the realized
        # suspend skew is the residual clock error at arming time (§4.3).
        self._suspend_arm = self.sim.call_in(
            self.clock.ns_until_local(deadline), fire)

    def _on_now(self, msg: BusMessage) -> None:
        if self._detached or self._stale(msg):
            return
        self.sim.process(self._suspend())

    # -- round 3: suspend/save/branch -----------------------------------------

    def _suspend(self):
        if self._aborting:
            return
        try:
            yield from self.pipeline.run_stages(Stage.QUIESCE, Stage.BRANCH)
        except CheckpointError as exc:
            self._report_failure(Stage.SAVE.value, exc)
            return
        if self._aborting:
            return
        self._publish("saved", self._reply())

    # -- abort round ----------------------------------------------------------

    def _on_abort(self, msg: BusMessage) -> None:
        if self._detached or self._stale(msg):
            return
        self._aborting = True
        if self._suspend_arm is not None:
            self._suspend_arm.cancel()
            self._suspend_arm = None
        self.sim.process(self._abort())

    def _abort(self):
        try:
            yield from self.pipeline.abort()
        except (CheckpointError, FirewallViolation, StorageError) as exc:
            self._report_failure("abort", exc)
            return
        self._publish("aborted", self._reply())

    # Subclass hooks ----------------------------------------------------------

    def _prepare_impl(self) -> None:
        raise NotImplementedError

    def _on_resume(self, _msg: BusMessage) -> None:
        raise NotImplementedError


class NodeAgent(_PipelineAgent):
    """Checkpoint agent running in dom0 of one experiment node.

    Drives the staged pipeline over the checkpointer's domain provider
    plus any ``extra_providers`` (branching storage, clock hand-off)
    between the coordinator's bus rounds.
    """

    def __init__(self, sim: Simulator, name: str,
                 checkpointer: LocalCheckpointer, clock: SystemClock,
                 bus: NotificationBus, session: str = "ckpt",
                 tracer: Optional[Tracer] = None,
                 extra_providers=()) -> None:
        super().__init__(sim, name, clock, bus, session)
        self.checkpointer = checkpointer
        self.provider = checkpointer.provider
        self.pipeline = CheckpointPipeline(
            sim, [self.provider, *extra_providers], tracer=tracer,
            session=f"{session}/{name}")
        self.last_result: Optional[CheckpointResult] = None

    # -- round 1: prepare -----------------------------------------------------

    def _prepare_impl(self) -> None:
        self.sim.process(self._prepare())

    def _prepare(self):
        try:
            yield from self.pipeline.run_stages(Stage.PREPARE, Stage.PRECOPY)
        except CheckpointError as exc:
            self._report_failure(Stage.PRECOPY.value, exc)
            return
        if self._aborting:
            return
        self._publish("ready", self._reply())

    # -- round 4: resume ------------------------------------------------------

    def _on_resume(self, msg: BusMessage) -> None:
        if self._detached or self._stale(msg):
            return
        self.sim.process(self._resume())

    def _resume(self):
        if not self.pipeline.completed(Stage.SAVE):
            self._report_failure(
                Stage.RESUME.value,
                CheckpointError(f"{self.name}: resume before save"))
            return
        try:
            yield from self.pipeline.run_stages(Stage.RESUME, Stage.RESUME)
        except CheckpointError as exc:
            self._report_failure(Stage.RESUME.value, exc)
            return
        self.last_result = self.provider.last_result
        self.checkpointer.results.append(self.last_result)
        self._publish("resumed", self._reply())

    # -- metrics --------------------------------------------------------------

    @property
    def branch_point(self):
        """The storage branch point of the last checkpoint, if any."""
        for provider in self.pipeline.providers:
            if isinstance(provider, BranchProvider):
                return provider.last_branch_point
        return None

    @property
    def clock_handoff(self):
        """The saved clock-discipline state of the last checkpoint."""
        for provider in self.pipeline.providers:
            if isinstance(provider, ClockProvider):
                return provider.last_handoff
        return None

    @property
    def frozen_at(self) -> int:
        return self.checkpointer.domain.kernel.firewall.last_clock_frozen_at_ns

    @property
    def thawed_at(self) -> int:
        return self.checkpointer.domain.kernel.firewall.last_clock_thawed_at_ns


class DelayNodeAgent(_PipelineAgent):
    """Checkpoint agent on a delay node (Dummynet serializer, §4.4)."""

    #: cost of serializing pipe state non-destructively
    SERIALIZE_COST_NS = DelayNodeProvider.SERIALIZE_COST_NS

    def __init__(self, sim: Simulator, name: str, delay_node: DelayNode,
                 clock: SystemClock, bus: NotificationBus,
                 session: str = "ckpt",
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(sim, name, clock, bus, session)
        self.delay_node = delay_node
        self.provider = DelayNodeProvider(
            delay_node, serialize_cost_ns=self.SERIALIZE_COST_NS)
        self.pipeline = CheckpointPipeline(sim, [self.provider],
                                           tracer=tracer,
                                           session=f"{session}/{name}")

    def _prepare_impl(self) -> None:
        # Dummynet state is tiny; nothing to pre-copy — the stages run
        # synchronously and the ack goes out in the same callback.
        self.pipeline.run_stages_now(Stage.PREPARE, Stage.PRECOPY)
        self._publish("ready", self._reply())

    def _on_resume(self, msg: BusMessage) -> None:
        if self._detached or self._stale(msg):
            return
        if not self.pipeline.completed(Stage.SAVE):
            self._report_failure(
                Stage.RESUME.value,
                CheckpointError(f"{self.name}: resume before save"))
            return
        # Thawing is zero-time: run it synchronously on receipt, so the
        # resume skew stays one bus-delivery jitter.
        self.pipeline.run_stages_now(Stage.RESUME, Stage.RESUME)
        self._publish("resumed", self._reply())

    @property
    def last_snapshot(self) -> Optional[DelayNodeSnapshot]:
        return self.provider.last_snapshot

    @property
    def frozen_at(self) -> int:
        return self.provider.frozen_at

    @property
    def thawed_at(self) -> int:
        return self.provider.thawed_at


@dataclass
class CoordinatedResult:
    """Metrics of one distributed checkpoint."""

    scheduled_deadline_local_ns: Optional[int]
    node_results: Dict[str, CheckpointResult]
    delay_snapshots: Dict[str, DelayNodeSnapshot]
    suspend_skew_ns: int
    resume_skew_ns: int
    core_packets_captured: int
    endpoint_packets_replayed: int
    wall_duration_ns: int
    #: per-agent, per-stage true-time totals from the pipelines
    stage_timings_ns: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: per-node storage branch points (agents with a BranchProvider)
    branch_points: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return True


class _StageAbort:
    """Sentinel delivered through a barrier event on timeout/failure."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


class Coordinator:
    """Runs coordinated checkpoints over a set of pipeline agents."""

    def __init__(self, sim: Simulator, bus: NotificationBus,
                 server_clock: SystemClock,
                 node_agents: List[NodeAgent],
                 delay_agents: Optional[List[DelayNodeAgent]] = None,
                 margin_ns: int = 100 * MS, session: str = "ckpt",
                 stage_timeout_ns: Optional[int] = 30 * SECOND,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.bus = bus
        self.server_clock = server_clock
        self.node_agents = node_agents
        self.delay_agents = delay_agents or []
        self.margin_ns = margin_ns
        self.session = session
        self.stage_timeout_ns = stage_timeout_ns
        self.tracer = tracer
        self.results: List[CoordinatedResult] = []
        self.failures: List[CheckpointFailure] = []
        self._ready: Optional[Barrier] = None
        self._saved: Optional[Barrier] = None
        self._resumed: Optional[Barrier] = None
        self._aborted: Optional[Barrier] = None
        self._watched: Optional[Barrier] = None
        self._agent_failures: List[AgentFailure] = []
        #: current round number — replies tagged with an older epoch are
        #: retransmitted stragglers from an aborted round and are dropped
        self.epoch = 0
        #: agents removed from the quorum (degraded checkpoints)
        self.excluded: set = set()
        self.stale_replies = 0

        def arrive(barrier_name):
            def handler(message):
                payload = message.payload
                if isinstance(payload, tuple):
                    name, epoch = payload
                    if isinstance(epoch, int) and epoch != self.epoch:
                        self.stale_replies += 1
                        maybe_record(self.tracer, "barrier.stale",
                                     session=self.session,
                                     barrier=barrier_name.lstrip("_"),
                                     agent=name, epoch=epoch,
                                     current=self.epoch)
                        return
                else:
                    name = payload
                if name in self.excluded:
                    return
                barrier = getattr(self, barrier_name)
                if barrier is not None:
                    barrier.arrive(name)
            return handler

        bus.subscribe(f"{session}/ready", f"coordinator/{session}",
                      arrive("_ready"))
        bus.subscribe(f"{session}/saved", f"coordinator/{session}",
                      arrive("_saved"))
        bus.subscribe(f"{session}/resumed", f"coordinator/{session}",
                      arrive("_resumed"))
        bus.subscribe(f"{session}/aborted", f"coordinator/{session}",
                      arrive("_aborted"))
        bus.subscribe(f"{session}/failed", f"coordinator/{session}",
                      self._on_failed)

    @property
    def participant_names(self) -> List[str]:
        return ([a.name for a in self.node_agents] +
                [a.name for a in self.delay_agents])

    @property
    def active_node_agents(self) -> List[NodeAgent]:
        return [a for a in self.node_agents if a.name not in self.excluded]

    @property
    def active_delay_agents(self) -> List[DelayNodeAgent]:
        return [a for a in self.delay_agents if a.name not in self.excluded]

    @property
    def active_participant_names(self) -> List[str]:
        return ([a.name for a in self.active_node_agents] +
                [a.name for a in self.active_delay_agents])

    @property
    def _participants(self) -> int:
        return len(self.active_node_agents) + len(self.active_delay_agents)

    def exclude(self, names) -> None:
        """Drop agents from the quorum for all future rounds.

        Degradation hook: a supervisor that decides a checkpoint may
        proceed without its dead delay nodes excludes them here before
        retrying.  Excluded agents may still hear the rounds; their
        replies are ignored and no barrier waits for them.
        """
        self.excluded.update(names)

    def detach(self) -> None:
        """Stop listening on the bus (when replaced by another coordinator).

        Note: unsubscribing removes every handler registered under the
        subscriber name "coordinator", so detach the old coordinator
        *before* constructing its replacement.
        """
        for topic in (f"{self.session}/ready", f"{self.session}/saved",
                      f"{self.session}/resumed", f"{self.session}/aborted",
                      f"{self.session}/failed"):
            self.bus.unsubscribe(topic, f"coordinator/{self.session}")

    # -- public API ------------------------------------------------------------------

    def checkpoint_scheduled(self):
        """Start a clock-scheduled checkpoint; returns a sim process."""
        return self.sim.process(self._run(scheduled=True))

    def checkpoint_now(self):
        """Start an event-driven checkpoint; returns a sim process."""
        return self.sim.process(self._run(scheduled=False))

    # -- failure intake --------------------------------------------------------------

    def _on_failed(self, message: BusMessage) -> None:
        failure = message.payload
        if failure.epoch not in (-1, self.epoch):
            self.stale_replies += 1
            return
        if failure.node in self.excluded:
            return
        if failure in self._agent_failures:
            return      # retransmitted/duplicated failure report
        self._agent_failures.append(failure)
        barrier = self._watched
        if barrier is not None and not barrier.event.triggered:
            barrier.event.succeed(_StageAbort(
                f"agent failure: {failure.node} at {failure.stage}"))

    # -- protocol ---------------------------------------------------------------------

    def _round_span(self, name: str):
        """Open a ``checkpoint.round`` span on the coordinator track."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled_for("checkpoint.round"):
            return NULL_SPAN
        return tracer.span("checkpoint.round",
                           track=f"coordinator/{self.session}", name=name,
                           session=self.session, epoch=self.epoch)

    def _run(self, scheduled: bool):
        started = self.sim.now
        self.epoch += 1
        session_span = NULL_SPAN
        tracer = self.tracer
        if tracer is not None and tracer.enabled_for("checkpoint.session"):
            session_span = tracer.span(
                "checkpoint.session", track=f"coordinator/{self.session}",
                name=f"{self.session}#{self.epoch}", session=self.session,
                epoch=self.epoch, scheduled=scheduled)
        self._agent_failures = []
        expected = self._participants
        self._ready = Barrier(self.sim, expected,
                              name=f"{self.session}/ready",
                              tracer=self.tracer)
        self._saved = Barrier(self.sim, expected,
                              name=f"{self.session}/saved",
                              tracer=self.tracer)
        self._resumed = Barrier(self.sim, expected,
                                name=f"{self.session}/resumed",
                                tracer=self.tracer)

        # Round 1: prepare (pre-copy).  Every round carries the epoch so
        # agents and coordinator can drop another round's stragglers.
        round_span = self._round_span("prepare")
        self.bus.publish(f"{self.session}/prepare", self.epoch,
                         publisher="coordinator")
        got = yield from self._await(self._ready)
        if isinstance(got, _StageAbort):
            round_span.end(outcome="abort")
            failure = yield from self._abort_round(self._ready, got,
                                                   "prepare", started)
            session_span.end(outcome="aborted", stage="prepare")
            return failure
        round_span.end(outcome="ok")

        # Round 2: trigger the synchronized suspend.
        deadline = None
        round_span = self._round_span("save")
        if scheduled:
            deadline = self.server_clock.read() + self.margin_ns
            self.bus.publish(f"{self.session}/suspend_at",
                             (self.epoch, deadline),
                             publisher="coordinator")
        else:
            self.bus.publish(f"{self.session}/now", self.epoch,
                             publisher="coordinator")

        # Round 3: barrier on saved.
        got = yield from self._await(self._saved)
        if isinstance(got, _StageAbort):
            round_span.end(outcome="abort")
            failure = yield from self._abort_round(self._saved, got,
                                                   "save", started)
            session_span.end(outcome="aborted", stage="save")
            return failure
        round_span.end(outcome="ok")

        # Round 4: resume everyone.
        round_span = self._round_span("resume")
        self.bus.publish(f"{self.session}/resume", self.epoch,
                         publisher="coordinator")
        got = yield from self._await(self._resumed)
        if isinstance(got, _StageAbort):
            round_span.end(outcome="abort")
            failure = yield from self._abort_round(self._resumed, got,
                                                   "resume", started)
            session_span.end(outcome="aborted", stage="resume")
            return failure
        round_span.end(outcome="ok")

        result = self._collect(deadline, started)
        self.results.append(result)
        self._clear_barriers()
        session_span.end(outcome="ok")
        return result

    def _await(self, barrier: Barrier):
        """Wait on a barrier; a timeout or agent failure resolves it with
        a :class:`_StageAbort` sentinel instead of wedging forever."""
        handle = None
        if self.stage_timeout_ns is not None:
            def expire() -> None:
                if not barrier.event.triggered:
                    barrier.event.succeed(_StageAbort("stage timeout"))
            handle = self.sim.call_in(self.stage_timeout_ns, expire)
        self._watched = barrier
        got = yield barrier.event
        self._watched = None
        if handle is not None:
            handle.cancel()
        return got

    def _abort_round(self, barrier: Barrier, signal: _StageAbort,
                     stage: str, started: int):
        """Phase two of the abort: roll every reachable agent back."""
        abort_span = self._round_span("abort").annotate(
            failed_stage=stage, reason=signal.reason)
        arrived = set(barrier.arrived)
        missing = tuple(n for n in self.active_participant_names
                        if n not in arrived)
        aborted = Barrier(self.sim, self._participants,
                          name=f"{self.session}/aborted",
                          tracer=self.tracer)
        self._aborted = aborted
        self.bus.publish(f"{self.session}/abort", self.epoch,
                         publisher="coordinator")
        # Dead agents never ack; the same timeout bounds the abort round,
        # and whoever acked by then counts as rolled back.
        yield from self._await(aborted)
        self._aborted = None
        failure = CheckpointFailure(
            session=self.session,
            stage=stage,
            reason=signal.reason,
            missing=missing,
            agent_failures=tuple(self._agent_failures),
            rolled_back=tuple(aborted.arrived),
            wall_duration_ns=self.sim.now - started,
            suspected_dead=self._suspected_dead(missing),
        )
        self.failures.append(failure)
        self._clear_barriers()
        abort_span.end(rolled_back=len(failure.rolled_back),
                       missing=len(missing))
        maybe_record(self.tracer, "checkpoint.abort", session=self.session,
                     stage=stage, reason=signal.reason,
                     missing=missing, rolled_back=failure.rolled_back,
                     suspected_dead=failure.suspected_dead)
        return failure

    def _suspected_dead(self, missing) -> tuple:
        """Split ``missing`` into dead vs merely slow/unreachable.

        An agent is suspected dead when it is detached (fail-stop crash)
        or the reliable bus exhausted its retransmits toward it; anyone
        else who missed the barrier is assumed slow or cut off and may
        still come back.
        """
        detached = {a.name
                    for a in self.node_agents + self.delay_agents
                    if a._detached}
        return tuple(n for n in missing
                     if n in detached or self.bus.suspects.get(n))

    def _clear_barriers(self) -> None:
        self._ready = self._saved = self._resumed = None

    def _collect(self, deadline, started) -> CoordinatedResult:
        nodes = self.active_node_agents
        delays = self.active_delay_agents
        freeze_times = ([a.frozen_at for a in nodes] +
                        [a.frozen_at for a in delays])
        thaw_times = ([a.thawed_at for a in nodes] +
                      [a.thawed_at for a in delays])
        node_results = {a.name: a.last_result for a in nodes}
        delay_snaps = {a.name: a.last_snapshot for a in delays}
        stage_timings = {a.name: a.pipeline.timings_by_stage()
                         for a in nodes + delays}
        branch_points = {a.name: a.branch_point for a in nodes
                         if a.branch_point is not None}
        return CoordinatedResult(
            scheduled_deadline_local_ns=deadline,
            node_results=node_results,
            delay_snapshots=delay_snaps,
            suspend_skew_ns=max(freeze_times) - min(freeze_times)
            if freeze_times else 0,
            resume_skew_ns=max(thaw_times) - min(thaw_times)
            if thaw_times else 0,
            core_packets_captured=sum(
                s.packets_in_flight for s in delay_snaps.values() if s),
            endpoint_packets_replayed=sum(
                r.replayed_packets for r in node_results.values() if r),
            wall_duration_ns=self.sim.now - started,
            stage_timings_ns=stage_timings,
            branch_points=branch_points,
        )
