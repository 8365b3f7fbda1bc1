"""Integration tests for stateful swapping (§5, §7.2)."""

import pytest

from repro.errors import CheckpointError, SwapError
from repro.obs.trace import Tracer, verify_span_nesting
from repro.sim import Simulator
from repro.swap import GuestTimeTransducer, StatefulSwapper, SwapConfig
from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NFSClient,
                           NodeSpec, TestbedConfig)
from repro.units import MB, MBPS, MS, SECOND


def swapped_in_experiment(sim, nodes=1, memory=256 * MB, tracer=None):
    testbed = Emulab(sim, TestbedConfig(num_machines=6), tracer=tracer)
    specs = [NodeSpec(f"node{i}", memory_bytes=memory) for i in range(nodes)]
    links = []
    if nodes > 1:
        links = [LinkSpec("link0", "node0", "node1",
                          bandwidth_bps=100 * MBPS)]
    exp = testbed.define_experiment(
        ExperimentSpec("swaptest", nodes=specs, links=links))
    sim.run(until=exp.swap_in())
    return testbed, exp


def generate_dirty_data(sim, exp, node="node0", nbytes=50 * MB):
    done = exp.node(node).filesystem.write_file("session-data", nbytes)
    sim.run(until=done)


def spawn_ticker(kernel, ticks):
    def ticker(k):
        while True:
            yield k.sleep(100 * MS)
            ticks.append(k.now())

    kernel.spawn(ticker)


def assert_running(sim, exp, ticks):
    """Every guest is running again and the ticker keeps ticking."""
    assert exp.state == "SWAPPED_IN"
    for node in exp.nodes.values():
        assert not node.kernel.firewall.up
        assert not any(nic.suspended for nic in node.domain.nics)
        assert node.checkpointer.provider.in_flight is None
    count = len(ticks)
    sim.run(until=sim.now + 5 * SECOND)
    assert len(ticks) - count >= 45


def test_swap_out_never_suspends_a_guest_during_a_checkpoint():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim, nodes=2)
    ticks = []
    spawn_ticker(exp.kernel("node1"), ticks)
    node0 = exp.node("node0")
    local = node0.checkpointer.checkpoint()
    while not node0.kernel.firewall.up:
        sim.run(until=sim.now + 1 * MS)
    with pytest.raises(SwapError) as err:
        sim.run(until=StatefulSwapper(exp).swap_out())
    # The error names the node with the checkpoint in flight and its stage.
    assert "node0" in str(err.value)
    assert any(f"stage {stage}" in str(err.value)
               for stage in ("suspend", "save"))
    # node1 was never suspended, and node0's own checkpoint completes.
    node1 = exp.node("node1")
    assert node1.kernel.firewall.last_clock_frozen_at_ns == 0
    assert not any(nic.suspended for nic in node1.domain.nics)
    sim.run(until=local)
    assert_running(sim, exp, ticks)
    assert len(node0.checkpointer.results) == 1


def test_failed_swap_out_rolls_suspended_guests_back():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim, nodes=2)
    ticks = []
    spawn_ticker(exp.kernel("node0"), ticks)

    def failing_save():
        raise CheckpointError("file server unreachable")
        yield  # pragma: no cover — keeps this a generator like stage_save()

    exp.node("node1").checkpointer.provider.stage_save = failing_save
    with pytest.raises(SwapError, match="domain.node1: save failed"):
        sim.run(until=StatefulSwapper(exp).swap_out())
    # node0 had quiesced, suspended and saved: the provider's abort
    # lowered its firewall and reconnected its devices.
    assert exp.node("node0").kernel.firewall.last_clock_frozen_at_ns > 0
    assert_running(sim, exp, ticks)
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert max(gaps) < 150 * MS


def test_swap_cycle_is_on_the_domain_pipeline_timeline():
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, categories={"checkpoint.stage"})
    testbed, exp = swapped_in_experiment(sim, tracer=tracer)
    swapper = StatefulSwapper(exp)

    def stages():
        return [(r.name, r.fields["provider"]) for r in tracer.records
                if r.track == "local.node0"]

    sim.run(until=swapper.swap_out())
    assert stages() == [("quiesce", "domain.node0"),
                        ("suspend", "domain.node0"),
                        ("save", "domain.node0")]
    sim.run(until=sim.now + 10 * SECOND)
    sim.run(until=swapper.swap_in())
    assert stages()[3:] == [("resume", "domain.node0")]
    assert verify_span_nesting(tracer.records) == []


def test_swap_out_then_in_preserves_guest_state():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    kernel = exp.kernel("node0")
    generate_dirty_data(sim, exp)
    ticks = []

    def ticker(k):
        while True:
            yield k.sleep(100 * MS)
            ticks.append(k.now())

    kernel.spawn(ticker)
    sim.run(until=sim.now + 2 * SECOND)
    swapper = StatefulSwapper(exp)
    out = sim.run(until=swapper.swap_out())
    assert exp.state == "SWAPPED_OUT_STATEFUL"
    assert len(testbed.free_machines) == 6        # hardware released
    count_at_swap = len(ticks)
    sim.run(until=sim.now + 30 * SECOND)          # swapped out: no progress
    assert len(ticks) == count_at_swap
    record = sim.run(until=swapper.swap_in())
    assert exp.state == "SWAPPED_IN"
    sim.run(until=sim.now + 2 * SECOND)
    # The ticker resumed and virtual time is continuous (~100 ms gaps).
    assert len(ticks) > count_at_swap
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert max(gaps) < 150 * MS


def test_swap_out_requires_swapped_in_state():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    swapper = StatefulSwapper(exp)
    sim.run(until=swapper.swap_out())
    with pytest.raises(SwapError):
        sim.run(until=swapper.swap_out())
    sim.run(until=swapper.swap_in())
    with pytest.raises(SwapError):
        sim.run(until=swapper.swap_in())


def test_delta_merged_into_aggregated_across_cycles():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    swapper = StatefulSwapper(exp)
    generate_dirty_data(sim, exp, nbytes=20 * MB)
    delta1 = exp.node("node0").branch.current_delta_blocks
    assert delta1 > 0
    sim.run(until=swapper.swap_out())
    sim.run(until=swapper.swap_in())
    branch = exp.node("node0").branch
    assert branch.current_delta_blocks == 0
    assert branch.aggregated_delta_blocks == delta1
    # Second session dirties more data; aggregate grows.
    generate_dirty_data(sim, exp, nbytes=10 * MB)
    sim.run(until=swapper.swap_out())
    sim.run(until=swapper.swap_in())
    assert exp.node("node0").branch.aggregated_delta_blocks > delta1


def test_eager_copyout_shrinks_post_suspend_transfer():
    """With pre-copy, most of the delta is on the server before suspend."""
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    generate_dirty_data(sim, exp, nbytes=40 * MB)
    swapper = StatefulSwapper(exp, SwapConfig(eager_copyout=True))
    record = sim.run(until=swapper.swap_out())
    assert record.precopied_blocks * 4096 >= 40 * MB


def test_swap_in_lazy_resumes_before_delta_transferred():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    generate_dirty_data(sim, exp, nbytes=100 * MB)
    lazy = StatefulSwapper(exp, SwapConfig(lazy_copyin=True))
    sim.run(until=lazy.swap_out())
    rec_lazy = sim.run(until=lazy.swap_in())
    # Now do the same experiment again eagerly for comparison.
    sim2 = Simulator()
    testbed2, exp2 = swapped_in_experiment(sim2)
    generate_dirty_data(sim2, exp2, nbytes=100 * MB)
    eager = StatefulSwapper(exp2, SwapConfig(lazy_copyin=False))
    sim2.run(until=eager.swap_out())
    rec_eager = sim2.run(until=eager.swap_in())
    assert rec_lazy.duration_ns < rec_eager.duration_ns
    assert rec_eager.delta_bytes_before_resume >= 100 * MB
    assert rec_lazy.delta_bytes_before_resume == 0


def test_lazy_copy_in_faults_on_aggregated_reads_after_resume():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    fs = exp.node("node0").filesystem
    sim.run(until=fs.write_file("dataset", 20 * MB))
    swapper = StatefulSwapper(exp, SwapConfig(lazy_copyin=True))
    sim.run(until=swapper.swap_out())
    sim.run(until=swapper.swap_in())
    # Immediately read the data back: blocks still on the server fault in.
    sim.run(until=fs.read_file("dataset"))
    pager = swapper._pagers["node0"]
    assert pager.demand_fetches + pager.prefetched_blocks > 0
    branch = exp.node("node0").branch
    assert branch.stats.reads_from_aggregated == -(-20 * MB // 4096)


def test_guest_time_transducer_conceals_swap_downtime():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim)
    kernel = exp.kernel("node0")
    transducer = GuestTimeTransducer(kernel)
    nfs = NFSClient(sim, testbed.nfs, testbed.control, transducer)
    # Before any swap: server mtimes look current to the guest.
    attrs = sim.run(until=nfs.write("results.log", 1000))
    assert abs(attrs.mtime_ns - kernel.gettimeofday()) < 50 * MS
    swapper = StatefulSwapper(exp)
    sim.run(until=swapper.swap_out())
    sim.run(until=sim.now + 60 * SECOND)          # a minute swapped out
    sim.run(until=swapper.swap_in())
    hidden = kernel.vclock.total_hidden_ns
    assert hidden > 60 * SECOND
    # The server's (real-time) mtime is transduced into guest time.
    attrs = sim.run(until=nfs.getattr("results.log"))
    raw = testbed.nfs.files["results.log"].mtime_ns
    assert attrs.mtime_ns == raw - hidden
    # Outbound: a guest-supplied mtime reaches the server in real time.
    guest_now = kernel.gettimeofday()
    attrs = sim.run(until=nfs.setattr("results.log", guest_now))
    assert testbed.nfs.files["results.log"].mtime_ns == guest_now + hidden
    # And reading it back round-trips to the guest's own timestamp.
    assert attrs.mtime_ns == guest_now


def test_two_node_swap_preserves_tcp_session():
    sim = Simulator()
    testbed, exp = swapped_in_experiment(sim, nodes=2, memory=64 * MB)
    k0, k1 = exp.kernel("node0"), exp.kernel("node1")
    acc = []
    k1.tcp.listen(5001, acc.append)
    conn = k0.tcp.connect("node1", 5001)
    sim.run(until=sim.now + 1 * SECOND)
    conn.send(2 * MB)
    sim.run(until=sim.now + 1 * SECOND)
    delivered_before = acc[0].bytes_delivered
    swapper = StatefulSwapper(exp)
    sim.run(until=swapper.swap_out())
    sim.run(until=sim.now + 120 * SECOND)
    sim.run(until=swapper.swap_in())
    sim.run(until=sim.now + 10 * SECOND)
    # The TCP session survived the swap and finished the transfer with no
    # spurious retransmissions from the downtime.
    assert acc[0].bytes_delivered == 2 * MB
    assert conn.stats.timeouts == 0
