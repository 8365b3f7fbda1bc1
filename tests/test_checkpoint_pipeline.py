"""Tests for the staged checkpoint pipeline and its failure semantics."""

import random

import pytest

from repro.analysis.digest import experiment_digest
from repro.analysis.metrics import stage_timing_summary
from repro.checkpoint import (Checkpointable, CheckpointFailure,
                              CheckpointPipeline, DelayNodeAgent,
                              NotificationBus, NodeAgent, RemusCheckpointer,
                              Stage, StageFailed)
from repro.checkpoint.coordinator import Coordinator
from repro.clocksync import NTPClient, NTPServer
from repro.errors import CheckpointError, StorageError
from repro.hw import Disk, DiskSpec, Machine
from repro.net import LinkShape, Packet, install_shaped_link
from repro.sim import RandomStreams, Simulator
from repro.obs.trace import Tracer
from repro.storage import VolumeManager
from repro.units import GB, MB, MBPS, MS, SECOND, US
from repro.xen import Hypervisor, LocalCheckpointer


# ------------------------------------------------------------------ engine

class RecordingProvider(Checkpointable):
    """Logs every stage it runs into a shared journal."""

    def __init__(self, name, journal, step_ns=0):
        self.name = name
        self.journal = journal
        self.step_ns = step_ns
        self.sim = None

    def _log(self, stage):
        self.journal.append((stage, self.name))

    def stage_prepare(self):
        self._log("prepare")

    def stage_suspend(self):
        self._log("suspend")

    def stage_save(self):
        self._log("save")
        if self.step_ns:
            yield self.sim.timeout(self.step_ns)

    def stage_resume(self):
        self._log("resume")

    def stage_abort(self):
        self._log("abort")


def make_pipeline(step_ns=0, tracer=None):
    sim = Simulator()
    journal = []
    providers = [RecordingProvider("a", journal, step_ns),
                 RecordingProvider("b", journal, step_ns)]
    for p in providers:
        p.sim = sim
    pipeline = CheckpointPipeline(sim, providers, tracer=tracer,
                                  session="test")
    return sim, pipeline, journal


def test_stages_run_in_order_across_providers():
    sim, pipeline, journal = make_pipeline(step_ns=5 * US)
    sim.run(until=sim.process(pipeline.run_local()))
    assert journal == [("prepare", "a"), ("prepare", "b"),
                       ("suspend", "a"), ("suspend", "b"),
                       ("save", "a"), ("save", "b"),
                       ("resume", "a"), ("resume", "b")]
    # Every (stage, provider) step was timed; only save consumed time.
    by_stage = pipeline.timings_by_stage()
    assert by_stage["save"] == 10 * US
    assert by_stage["suspend"] == 0
    assert pipeline.completed(Stage.SAVE)


def test_stage_timings_recorded_through_tracer():
    sim, pipeline, _ = make_pipeline(step_ns=3 * US)
    tracer = Tracer(clock=lambda: sim.now)
    pipeline.tracer = tracer
    sim.run(until=sim.process(pipeline.run_local()))
    records = [r for r in tracer.records if r.category == "checkpoint.stage"]
    assert len(records) == 14          # 7 stages x 2 providers
    summary = stage_timing_summary(records)
    assert summary["save"]["count"] == 2
    assert summary["save"]["total_ns"] == 6 * US
    assert summary["save"]["max_ns"] == 3 * US
    assert summary["prepare"]["total_ns"] == 0


def test_stage_failure_is_wrapped_with_stage_and_provider():
    sim, pipeline, journal = make_pipeline()

    class Exploder(Checkpointable):
        name = "boom"

        def stage_save(self):
            raise CheckpointError("sink offline")

    pipeline.add_provider(Exploder())

    def driver():
        with pytest.raises(StageFailed) as exc_info:
            yield from pipeline.run_local()
        assert exc_info.value.stage is Stage.SAVE
        assert exc_info.value.provider == "boom"
        assert isinstance(exc_info.value.cause, CheckpointError)

    sim.run(until=sim.process(driver()))
    # Both healthy providers got through save before the explosion.
    assert journal.count(("save", "a")) == 1
    assert journal.count(("save", "b")) == 1


def test_abort_walks_providers_in_reverse():
    sim, pipeline, journal = make_pipeline()

    def driver():
        yield from pipeline.run_stages(Stage.PREPARE, Stage.SUSPEND)
        journal.clear()
        yield from pipeline.abort()

    sim.run(until=sim.process(driver()))
    assert journal == [("abort", "b"), ("abort", "a")]
    assert not pipeline.completed(Stage.SUSPEND)   # abort resets progress


def test_reversed_stage_span_rejected():
    sim, pipeline, _ = make_pipeline()
    with pytest.raises(CheckpointError):
        list(pipeline.run_stages(Stage.RESUME, Stage.PREPARE))


def test_run_stages_now_rejects_stages_that_need_time():
    sim, pipeline, _ = make_pipeline(step_ns=1 * MS)
    with pytest.raises(CheckpointError):
        pipeline.run_stages_now(Stage.SAVE, Stage.SAVE)
    # Zero-time spans are fine synchronously.
    pipeline.run_stages_now(Stage.PREPARE, Stage.PREPARE)


# ------------------------------------------------------------------ suspend deadline

class FakeClock:
    """ns_until_local with a fixed offset error against true time."""

    def __init__(self, sim, error_ns):
        self.sim = sim
        self.error_ns = error_ns

    def ns_until_local(self, deadline_local_ns):
        return max(0, deadline_local_ns - (self.sim.now + self.error_ns))


def test_deadline_policy_realizes_arming_time_clock_error():
    sim = Simulator()
    hosts = [Hypervisor(sim, Machine(sim, f"n{i}", rng=random.Random(i)))
             .create_domain(f"n{i}", memory_bytes=64 * MB,
                            rng=random.Random(10 + i)).kernel.host
             for i in range(2)]
    delay_node = install_shaped_link(sim, *hosts,
                                     LinkShape(bandwidth_bps=100 * MBPS),
                                     rng=random.Random(5))
    bus = NotificationBus(sim, random.Random(7))
    agent = DelayNodeAgent(sim, "delay0", delay_node,
                           FakeClock(sim, 400 * US), bus)
    bus.publish("ckpt/suspend_at", 100 * MS, publisher="coordinator")
    sim.run(until=1 * SECOND)
    # The agent's one-shot timer runs on its own clock: the 400 us clock
    # error at arming time becomes suspend skew.
    assert agent.frozen_at == 100 * MS - 400 * US


# ------------------------------------------------------------------ storage

def make_branch(sim, log_blocks=20_000):
    manager = VolumeManager(sim, Disk(sim, DiskSpec(capacity_bytes=4 * GB)))
    golden = manager.create_golden("img", 40_000)
    branch = manager.create_branch("b0", golden, log_blocks=log_blocks,
                                   aggregated_blocks=40_000)
    return manager, branch


def test_branch_point_capture_and_rollback():
    sim = Simulator()
    _manager, branch = make_branch(sim)
    sim.run(until=branch.write(100, 8))
    point = branch.take_checkpoint()
    assert point.delta_blocks == 8
    sim.run(until=branch.write(500, 16))
    assert branch.current_delta_blocks == 24
    discarded = branch.rollback_to(point)
    assert discarded == 16
    assert branch.current_delta_blocks == 8
    assert branch._log_head == point.log_head
    # The branch keeps working after a rollback.
    sim.run(until=branch.write(900, 4))
    assert branch.current_delta_blocks == 12


def test_rollback_rejects_foreign_or_future_points():
    sim = Simulator()
    manager, branch = make_branch(sim)
    golden = manager.goldens["img"]
    other = manager.create_branch("b1", golden, log_blocks=1024,
                                  aggregated_blocks=1024)
    with pytest.raises(StorageError):
        branch.rollback_to(other.take_checkpoint())
    point = branch.take_checkpoint()
    sim.run(until=branch.write(0, 4))
    future = branch.take_checkpoint()
    branch.rollback_to(point)
    with pytest.raises(StorageError):
        branch.rollback_to(future)


def test_fork_branch_freezes_the_point_into_aggregated_delta():
    sim = Simulator()
    manager, branch = make_branch(sim)
    sim.run(until=branch.write(100, 8))
    point = branch.take_checkpoint()
    sim.run(until=branch.write(500, 16))     # after the point; not forked
    fork = manager.fork_branch("fork0", branch, point,
                               log_blocks=1024, aggregated_blocks=1024)
    assert fork.aggregated_delta_blocks == 8
    assert fork.current_delta_blocks == 0
    # Offsets are assigned in VBA order, like merge_into_aggregated.
    assert fork.aggregated_index == {100 + i: i for i in range(8)}
    # The source branch is untouched.
    assert branch.current_delta_blocks == 24
    with pytest.raises(StorageError):
        manager.fork_branch("fork1", fork, point)


# ------------------------------------------------------------------ rigs

class MiniRig:
    """Two small checkpointable guests plus one delay node, NTP-synced."""

    def __init__(self, seed=11, memory=64 * MB, sync_ns=60 * SECOND):
        self.sim = Simulator()
        streams = RandomStreams(seed)
        server_machine = Machine(self.sim, "ops", rng=streams.stream("m.ops"))
        self.ntp_server = NTPServer(server_machine.clock)
        self.bus = NotificationBus(self.sim, streams.stream("bus"))
        self.domains, self.ckpts, self.agents = [], [], []
        for i in range(2):
            name = f"node{i}"
            machine = Machine(self.sim, name, rng=streams.stream(f"m.{name}"))
            domain = Hypervisor(self.sim, machine).create_domain(
                name, memory_bytes=memory, rng=streams.stream(f"g.{name}"))
            ckpt = LocalCheckpointer(domain)
            self.domains.append(domain)
            self.ckpts.append(ckpt)
            self.agents.append(NodeAgent(self.sim, name, ckpt, machine.clock,
                                         self.bus))
            NTPClient(self.sim, machine.clock, self.ntp_server,
                      streams.stream(f"ntp.{name}")).start()
        self.delay_node = install_shaped_link(
            self.sim, self.domains[0].kernel.host,
            self.domains[1].kernel.host,
            LinkShape(bandwidth_bps=100 * MBPS, delay_ns=5 * MS),
            rng=streams.stream("shape"))
        for domain in self.domains:
            domain.attach_nic(domain.kernel.host.default_route)
        self.delay_agent = DelayNodeAgent(self.sim, "delay0", self.delay_node,
                                          server_machine.clock, self.bus)
        self.coordinator = Coordinator(self.sim, self.bus,
                                       server_machine.clock, self.agents,
                                       [self.delay_agent],
                                       stage_timeout_ns=2 * SECOND)
        self.sim.run(until=sync_ns)


# ------------------------------------------------------------------ structured failure

def test_stage_failure_surfaces_structured_result_and_recovers():
    rig = MiniRig()
    provider = rig.ckpts[0].provider
    original_save = provider.stage_save

    def failing_save():
        raise CheckpointError("save sink offline")
        yield  # pragma: no cover — keeps this a generator like stage_save()

    provider.stage_save = failing_save
    failure = rig.sim.run(until=rig.coordinator.checkpoint_scheduled())
    # The CheckpointError never escaped into the simulator loop: it came
    # back as a structured failure after a coordinated rollback.
    assert isinstance(failure, CheckpointFailure)
    assert failure.ok is False
    assert failure.stage == "save"
    assert any(f.node == "node0" and f.stage == "save"
               for f in failure.agent_failures)
    assert "node0" in failure.rolled_back
    assert rig.coordinator.failures == [failure]
    assert rig.coordinator.results == []
    # Rollback left the world running: node0's firewall is down and its
    # guest clock advances.
    kernel = rig.domains[0].kernel
    assert not kernel.firewall.up
    before = kernel.now()
    rig.sim.run(until=rig.sim.now + 1 * SECOND)
    assert kernel.now() > before
    # With the fault removed, the next checkpoint on the same pipeline
    # succeeds end to end.
    provider.stage_save = original_save
    result = rig.sim.run(until=rig.coordinator.checkpoint_scheduled())
    assert result.ok
    assert set(result.node_results) == {"node0", "node1"}
    assert len(rig.coordinator.results) == 1


def test_rogue_resume_is_reported_not_raised():
    rig = MiniRig()
    # A resume published with no checkpoint in progress used to raise
    # CheckpointError inside the bus callback; now it is reported.
    rig.bus.publish("ckpt/resume", publisher="chaos")
    rig.sim.run(until=rig.sim.now + 1 * SECOND)
    for agent in rig.agents + [rig.delay_agent]:
        assert agent.last_failure is not None
        assert agent.last_failure.stage == "resume"
        assert "resume before save" in agent.last_failure.error


# ------------------------------------------------------------------ abort/rollback

def test_agent_killed_before_suspend_rolls_everyone_back():
    rig = MiniRig()
    start = rig.sim.now
    proc = rig.coordinator.checkpoint_scheduled()
    # node0 acks ready (precopy of 64 MB takes ~160 ms), then dies before
    # its suspend timer fires (deadline = ready + 100 ms margin).
    rig.sim.call_in(200 * MS, rig.agents[0].kill)
    failure = rig.sim.run(until=proc)
    assert isinstance(failure, CheckpointFailure)
    assert failure.stage == "save"
    assert failure.missing == ("node0",)
    assert "node1" in failure.rolled_back
    assert "delay0" in failure.rolled_back
    # node1 was suspended and saved, then rolled back: firewall lowered,
    # devices reconnected, guest time running again.
    kernel = rig.domains[1].kernel
    assert not kernel.firewall.up
    assert all(not nic.suspended for nic in rig.domains[1].nics)
    assert not rig.delay_node.frozen
    before = kernel.now()
    rig.sim.run(until=rig.sim.now + 1 * SECOND)
    assert kernel.now() > before
    # No result was recorded; the failure is the structured outcome.
    assert rig.coordinator.results == []
    assert rig.coordinator.failures == [failure]
    assert failure.wall_duration_ns > 0
    assert rig.sim.now > start


def test_abort_before_suspend_leaves_no_guest_visible_trace():
    """Kill a node between prepare and suspend; digest matches a run that
    never attempted a checkpoint, and the race detector stays clean."""
    from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                               TestbedConfig)

    def build(seed):
        sim = Simulator()
        testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=seed))
        exp = testbed.define_experiment(ExperimentSpec(
            "rig",
            nodes=[NodeSpec("node0", memory_bytes=64 * MB),
                   NodeSpec("node1", memory_bytes=64 * MB)],
            links=[LinkSpec("link0", "node0", "node1",
                            bandwidth_bps=100 * MBPS, delay_ns=5 * MS)]))
        sim.run(until=exp.swap_in())
        return sim, exp

    sim_a, exp_a = build(seed=31)
    horizon = sim_a.now + 20 * SECOND    # swap-in (imaging + boot) is slow
    sim_a.run(until=horizon)
    control = experiment_digest(exp_a)

    sim_b, exp_b = build(seed=31)
    detector = sim_b.enable_race_detection()
    exp_b.coordinator.stage_timeout_ns = 2 * SECOND
    exp_b.nodes["node0"].agent.kill()
    failure = sim_b.run(until=exp_b.coordinator.checkpoint_scheduled())
    assert isinstance(failure, CheckpointFailure)
    assert failure.stage == "prepare"
    assert "node0" in failure.missing
    assert "node1" in failure.rolled_back
    sim_b.run(until=horizon)
    # The aborted checkpoint is invisible: identical guest/network state.
    assert experiment_digest(exp_b) == control
    assert detector.races == []


# ------------------------------------------------------------------ Remus stop

def linked_domains(sim, shape=LinkShape(bandwidth_bps=100 * MBPS)):
    domains = []
    for i in range(2):
        machine = Machine(sim, f"n{i}", rng=random.Random(10 + i))
        domains.append(Hypervisor(sim, machine).create_domain(
            f"n{i}", memory_bytes=64 * MB, rng=random.Random(20 + i)))
    install_shaped_link(sim, domains[0].kernel.host, domains[1].kernel.host,
                        shape, rng=random.Random(5))
    for d in domains:
        d.attach_nic(d.kernel.host.default_route)
    return domains


def test_remus_stop_mid_epoch_flushes_and_preserves_order():
    sim = Simulator()
    domains = linked_domains(sim)
    k0, k1 = domains[0].kernel, domains[1].kernel
    got = []
    k1.host.register_protocol("probe", lambda p: got.append(p.headers["n"]))
    remus = RemusCheckpointer(domains[0], epoch_ns=25 * MS)
    remus.start()

    def probe(k):
        for n in range(30):
            k.host.send(Packet("n0", "n1", "probe", 100, headers={"n": n}))
            yield k.sleep(5 * MS)

    k0.spawn(probe)
    # Stop mid-epoch, with packets captured in the commit buffer.  The
    # old stop() left them held until the in-flight epoch completed,
    # while newer packets bypassed the buffer — reordering (or silently
    # dropping them if the run ended first).
    sim.run(until=62 * MS)
    assert remus._buffer, "test needs packets captured mid-epoch"
    remus.stop()
    assert remus._buffer == []          # flushed immediately
    sim.run(until=1 * SECOND)
    assert len(got) == 30               # nothing dropped
    assert got == sorted(got)           # nothing reordered across the stop
    assert all(n.iface.tx_interceptor is None for n in domains[0].nics)
    # stop() is idempotent.
    remus.stop()


def test_remus_restart_after_stop():
    sim = Simulator()
    domains = linked_domains(sim)
    remus = RemusCheckpointer(domains[0], epoch_ns=25 * MS)
    remus.start()
    sim.run(until=130 * MS)
    remus.stop()
    epochs_first = remus.epochs
    assert epochs_first >= 3
    remus.start()                       # a fresh generation
    sim.run(until=sim.now + 130 * MS)
    remus.stop()
    assert remus.epochs > epochs_first
    assert all(n.iface.tx_interceptor is None for n in domains[0].nics)
