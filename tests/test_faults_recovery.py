"""Two-phase abort under adversity: lost aborts, mid-protocol crashes,
supervised retries, and degraded completion without delay nodes."""

from repro.analysis.metrics import fault_retry_summary
from repro.checkpoint import (Coordinator, CheckpointSupervisor,
                              DelayNodeAgent, FailFast, NodeAgent,
                              NotificationBus, ProceedWithoutDelayNodes,
                              ReliabilityConfig, RetryThenAbort)
from repro.faults import FaultInjector, FaultPlan, MessageLoss
from repro.hw import Machine
from repro.net import LinkShape, install_shaped_link
from repro.clocksync import NTPClient, NTPServer
from repro.sim import RandomStreams, Simulator
from repro.obs.trace import Tracer
from repro.testbed.compile import compile_scenario, load_named
from repro.units import MB, MBPS, MS, SECOND
from repro.xen import Hypervisor, LocalCheckpointer


class AdversityRig:
    """Two guests + one delay node on a reliable bus, fault-injected."""

    def __init__(self, seed=11, plan=None, stage_timeout_ns=2 * SECOND,
                 max_retransmits=4):
        self.sim = Simulator()
        self.tracer = Tracer(clock=lambda: self.sim.now)
        self.injector = FaultInjector(
            self.sim, plan if plan is not None else FaultPlan(),
            tracer=self.tracer)
        streams = RandomStreams(seed)
        server_machine = Machine(self.sim, "ops",
                                 rng=streams.stream("m.ops"))
        self.ntp_server = NTPServer(server_machine.clock)
        self.bus = NotificationBus(
            self.sim, streams.stream("bus"),
            reliability=ReliabilityConfig(max_retransmits=max_retransmits),
            faults=self.injector, tracer=self.tracer)
        self.domains, self.agents = [], []
        for i in range(2):
            name = f"node{i}"
            machine = Machine(self.sim, name, rng=streams.stream(f"m.{name}"))
            hyp = Hypervisor(self.sim, machine)
            domain = hyp.create_domain(name, memory_bytes=128 * MB,
                                       rng=streams.stream(f"g.{name}"))
            agent = NodeAgent(self.sim, name, LocalCheckpointer(domain),
                              machine.clock, self.bus)
            NTPClient(self.sim, machine.clock, self.ntp_server,
                      streams.stream(f"ntp.{name}")).start()
            self.domains.append(domain)
            self.agents.append(agent)
            self.injector.register_agent(agent)
        shape = LinkShape(bandwidth_bps=100 * MBPS, delay_ns=5 * MS)
        self.delay_node = install_shaped_link(
            self.sim, self.domains[0].kernel.host,
            self.domains[1].kernel.host, shape, rng=streams.stream("shape"))
        for domain in self.domains:
            domain.attach_nic(domain.kernel.host.default_route)
        self.delay_agent = DelayNodeAgent(self.sim, "delay0",
                                          self.delay_node,
                                          server_machine.clock, self.bus)
        self.injector.register_agent(self.delay_agent)
        self.coordinator = Coordinator(self.sim, self.bus,
                                       server_machine.clock, self.agents,
                                       [self.delay_agent],
                                       stage_timeout_ns=stage_timeout_ns,
                                       tracer=self.tracer)
        self.injector.arm()
        self.sim.run(until=30 * SECOND)     # NTP convergence


def test_lost_abort_message_is_retransmitted_to_survivors():
    plan = FaultPlan(message_losses=(
        MessageLoss(topic="abort", count=1, subscriber="node0"),))
    rig = AdversityRig(plan=plan, stage_timeout_ns=1 * SECOND)
    rig.agents[1].kill()                    # node1 is gone for good
    failure = rig.sim.run(until=rig.coordinator.checkpoint_now())
    assert not failure.ok
    assert failure.stage == "prepare"
    assert failure.missing == ("node1",)
    assert "node1" in failure.suspected_dead
    # node0's abort delivery was dropped once, retransmitted, and node0
    # still rolled back — the abort never silently strands a survivor.
    assert rig.injector.injected["fault.bus.drop"] == 1
    assert rig.bus.retransmits >= 1
    assert "node0" in failure.rolled_back
    assert "delay0" in failure.rolled_back
    retx_topics = {r.topic for r in rig.tracer.select("bus.retransmit")}
    assert "ckpt/abort" in retx_topics


def test_agent_death_between_saved_and_resume_is_recovered():
    rig = AdversityRig()
    crashed = []

    def crash_on_saved(message) -> None:
        payload = message.payload
        name = payload[0] if isinstance(payload, tuple) else payload
        if name == "node1" and not crashed:
            crashed.append(rig.sim.now)
            rig.agents[1].crash()
            # The machine reboots after the abort round has run its
            # course (so the round classifies it dead, not slow); the
            # agent rolls back its half-finished pipeline and rejoins.
            rig.sim.call_in(4200 * MS, rig.agents[1].revive)

    rig.bus.subscribe("ckpt/saved", "spy", crash_on_saved)
    supervisor = CheckpointSupervisor(rig.sim, rig.coordinator,
                                      policy=RetryThenAbort(max_retries=3),
                                      tracer=rig.tracer)
    result = rig.sim.run(until=supervisor.checkpoint_scheduled())
    assert result.ok
    assert supervisor.attempts == 2
    assert crashed                           # the crash really fired
    first = supervisor.failures[0]
    assert first.stage == "resume"           # died after saved, before resume
    assert "node1" in first.missing
    assert "node1" in first.suspected_dead
    assert set(result.node_results) == {"node0", "node1"}
    # The whole recovery history is observable through analysis.metrics.
    summary = fault_retry_summary(rig.tracer.records)
    assert summary["attempts"] == 2
    assert summary["recovered"] and not summary["gave_up"]
    assert summary["aborts"] == 1
    assert summary["abort_stages"] == ["resume"]
    assert summary["suspected_dead"] == ["node1"]


def test_fail_fast_policy_surfaces_the_first_failure():
    rig = AdversityRig(stage_timeout_ns=500 * MS)
    rig.agents[1].kill()
    supervisor = CheckpointSupervisor(rig.sim, rig.coordinator,
                                      policy=FailFast(), tracer=rig.tracer)
    result = rig.sim.run(until=supervisor.checkpoint_now())
    assert not result.ok
    assert supervisor.attempts == 1
    assert rig.tracer.count("retry.checkpoint.gave_up") == 1


def test_degraded_completion_without_dead_delay_node():
    rig = AdversityRig(stage_timeout_ns=1 * SECOND)
    rig.delay_agent.kill()                  # delay node dies, stays dead
    supervisor = CheckpointSupervisor(
        rig.sim, rig.coordinator,
        policy=ProceedWithoutDelayNodes(max_retries=3), tracer=rig.tracer)
    result = rig.sim.run(until=supervisor.checkpoint_now())
    assert result.ok
    assert supervisor.attempts == 2
    assert rig.coordinator.excluded == {"delay0"}
    assert set(result.node_results) == {"node0", "node1"}
    assert "delay0" not in result.delay_snapshots
    assert rig.tracer.count("retry.checkpoint.degraded") == 1
    summary = fault_retry_summary(rig.tracer.records)
    assert summary["retries"]["retry.checkpoint.degraded"] == 1
    assert summary["recovered"]


def test_dead_node_agent_is_never_sacrificed_to_degradation():
    rig = AdversityRig(stage_timeout_ns=500 * MS)
    rig.agents[0].kill()                    # a *guest* agent, not a pipe
    supervisor = CheckpointSupervisor(
        rig.sim, rig.coordinator,
        policy=ProceedWithoutDelayNodes(max_retries=1), tracer=rig.tracer)
    result = rig.sim.run(until=supervisor.checkpoint_now())
    assert not result.ok                    # retried, never excluded node0
    assert rig.coordinator.excluded == set()
    assert supervisor.attempts == 2


def test_storm_acceptance_three_retries_and_deterministic():
    """The storm scenario file: 10% bus loss + one crash mid-save
    completes within <= 3 supervised retries and is digest-identical
    across runs."""
    storm = compile_scenario(load_named("ckpt10_faultstorm"))
    first, second = storm.run().details, storm.run().details
    assert first["completed"] and second["completed"]
    assert first["supervisor_attempts"] <= 4  # 1 initial + <= 3 retries
    assert first["injected"]["fault.agent.crash"] == 1
    assert first["injected"]["fault.bus.drop"] > 0
    assert first["experiment_digest"] == second["experiment_digest"]
    assert first == second


def test_storm_report_is_observable_and_fault_free_run_is_quiet():
    noisy = compile_scenario(load_named("ckpt10_faultstorm")).run().details
    assert noisy["trace_records"] > 0
    assert noisy["bus"]["retransmits"] > 0
    quiet = compile_scenario(load_named(
        "ckpt10_faultstorm", {"faults": {}})).run().details
    assert quiet["completed"]
    assert quiet["supervisor_attempts"] == 1
    assert quiet["injected"] == {}
    assert quiet["bus"]["retransmits"] == 0
