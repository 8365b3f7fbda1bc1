"""Unit tests for time travel: checkpoint trees and replay navigation."""

import random

import pytest

from repro.checkpoint.pipeline import capture_run_snapshot
from repro.errors import TimeTravelError
from repro.sim import Simulator
from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                           TestbedConfig)
from repro.timetravel import (CheckpointTree, ExperimentHandle,
                              Perturbation, ReplayableExperiment,
                              TimeTravelController, interrupt_skew,
                              packet_drop, world_factory)
from repro.timetravel.scenarios import WORLD_BUILDERS
from repro.units import MB, MBPS, MS, SECOND, US


class MiniRun:
    """A tiny deterministic experiment for replay tests.

    A counter accumulates a seeded random increment every 10 ms; a
    "boost" perturbation adds its payload when its time passes.
    """

    def __init__(self, seed, perturbations):
        self.sim = Simulator()
        self.rng = random.Random(seed)
        self.counter = 0
        self.log = []
        self._perturbations = sorted(perturbations,
                                     key=lambda p: p.at_virtual_ns)
        self.sim.process(self._tick())

    def _tick(self):
        while True:
            yield self.sim.timeout(10 * MS)
            while (self._perturbations and
                   self._perturbations[0].at_virtual_ns <= self.sim.now):
                p = self._perturbations.pop(0)
                if p.name == "boost":
                    self.counter += p.payload
            step = self.rng.randint(1, 10)
            self.counter += step
            self.log.append((self.sim.now, self.counter))

    # ReplayableRun interface -------------------------------------------------

    def virtual_now(self):
        return self.sim.now

    def advance_to(self, virtual_ns):
        if virtual_ns > self.sim.now:
            self.sim.run(until=virtual_ns)

    def state_digest(self):
        return (self.sim.now, self.counter)

    def snapshot_bytes(self):
        return 1 * MB


def make_controller(**kw):
    return TimeTravelController(MiniRun, seed=42, **kw)


# ------------------------------------------------------------------ tree

def test_tree_root_and_children():
    tree = CheckpointTree()
    root = tree.add(None, 0, "origin")
    a = tree.add(root.node_id, 100, "a")
    b = tree.add(root.node_id, 200, "b")
    assert tree.root_id == root.node_id
    assert [n.node_id for n in tree.path_to(b.node_id)] == \
        [root.node_id, b.node_id]
    assert tree.depth(a.node_id) == 1
    assert len(tree) == 3
    assert {n.node_id for n in tree.leaves()} == {a.node_id, b.node_id}


def test_tree_rejects_second_root_and_time_regression():
    tree = CheckpointTree()
    root = tree.add(None, 100)
    with pytest.raises(TimeTravelError):
        tree.add(None, 0)
    with pytest.raises(TimeTravelError):
        tree.add(root.node_id, 50)          # child before parent
    with pytest.raises(TimeTravelError):
        tree.node(999)


def test_tree_storage_budget_enforced():
    tree = CheckpointTree(storage_budget_bytes=3 * MB)
    root = tree.add(None, 0, snapshot_bytes=1 * MB)
    tree.add(root.node_id, 1, snapshot_bytes=1 * MB)
    tree.add(root.node_id, 2, snapshot_bytes=1 * MB)
    with pytest.raises(TimeTravelError):
        tree.add(root.node_id, 3, snapshot_bytes=1 * MB)
    assert tree.storage_used_bytes == 3 * MB


def test_tree_supports_thousands_of_nodes():
    """§6: the scratch disk holds time-travel trees with 1000s of nodes."""
    tree = CheckpointTree(storage_budget_bytes=146_000_000_000)
    parent = tree.add(None, 0, snapshot_bytes=40 * MB).node_id
    for i in range(1, 3000):
        parent = tree.add(parent, i, snapshot_bytes=40 * MB).node_id
    assert len(tree) == 3000


# ------------------------------------------------------------------ controller

def test_checkpoint_and_rollback_restores_state():
    ctl = make_controller()
    ctl.run_to(1 * SECOND)
    node = ctl.checkpoint("t=1s")
    digest_at_ckpt = ctl.active_run.state_digest()
    ctl.run_to(3 * SECOND)
    assert ctl.active_run.state_digest() != digest_at_ckpt
    run = ctl.travel_to(node.node_id)
    assert run.state_digest() == digest_at_ckpt


def test_deterministic_replay_reproduces_execution():
    ctl = make_controller()
    ctl.run_to(2 * SECOND)
    node = ctl.checkpoint()
    assert ctl.verify_reproducibility(node.node_id)


def test_forward_replay_without_perturbation_matches_original():
    ctl = make_controller()
    ctl.run_to(1 * SECOND)
    node = ctl.checkpoint()
    ctl.run_to(2 * SECOND)
    original = ctl.active_run.state_digest()
    ctl.travel_to(node.node_id)
    ctl.run_to(2 * SECOND)
    assert ctl.active_run.state_digest() == original


def test_perturbed_replay_diverges_and_branches():
    ctl = make_controller()
    ctl.run_to(1 * SECOND)
    node = ctl.checkpoint("before")
    ctl.run_to(2 * SECOND)
    original = ctl.active_run.state_digest()
    ctl.checkpoint("original-2s")
    # Roll back and replay with a state mutation.
    ctl.travel_to(node.node_id)
    ctl.perturb(Perturbation(1500 * MS, "boost", 10_000))
    ctl.run_to(2 * SECOND)
    perturbed = ctl.active_run.state_digest()
    assert perturbed != original
    assert perturbed[1] >= original[1] + 10_000
    branched = ctl.checkpoint("mutated-2s")
    # Two children of `node`: the original continuation and the branch.
    assert len(ctl.tree.node(node.node_id).children) == 2
    assert branched.perturbations


def test_perturbation_history_carried_to_descendants():
    ctl = make_controller()
    ctl.run_to(1 * SECOND)
    base = ctl.checkpoint()
    ctl.perturb(Perturbation(1100 * MS, "boost", 500))
    ctl.run_to(1200 * MS)
    child = ctl.checkpoint("after-boost")
    digest = ctl.active_run.state_digest()
    # Travelling back to the child must replay the boost too.
    ctl.travel_to(base.node_id)
    run = ctl.travel_to(child.node_id)
    assert run.state_digest() == digest


def test_run_to_backwards_rejected():
    ctl = make_controller()
    ctl.run_to(1 * SECOND)
    with pytest.raises(TimeTravelError):
        ctl.run_to(500 * MS)


def test_perturbation_in_the_past_rejected():
    ctl = make_controller()
    ctl.run_to(1 * SECOND)
    with pytest.raises(TimeTravelError):
        ctl.perturb(Perturbation(500 * MS, "boost", 1))


# ------------------------------------------------------------------ navigation start points

def record_chain(ctl, seconds=(1, 2, 3)):
    nodes = []
    for second in seconds:
        ctl.run_to(second * SECOND)
        nodes.append(ctl.checkpoint(f"t={second}s"))
    return nodes


def build_stream_rig(sim, seed):
    """Two guests on a shaped link with one bulk TCP stream."""
    testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=seed))
    for cache in testbed.image_caches.values():
        cache.preload("FC4-STD")
    exp = testbed.define_experiment(ExperimentSpec(
        "stream",
        nodes=[NodeSpec("node0", memory_bytes=64 * MB),
               NodeSpec("node1", memory_bytes=64 * MB)],
        links=[LinkSpec("l0", "node0", "node1",
                        bandwidth_bps=20 * MBPS, delay_ns=5 * MS)]))
    sim.run(until=exp.swap_in())
    accepted = []
    exp.kernel("node0").tcp.listen(5001, accepted.append)
    conn = exp.kernel("node1").tcp.connect("node0", 5001)
    conn.send(1 << 40)

    def digest():
        delivered = accepted[0].bytes_delivered if accepted else 0
        return (sim.now, delivered, conn.stats.retransmits, conn.cwnd)
    return ExperimentHandle(exp, digest=digest)


def fresh_replay(ctl, node):
    """``factory(seed, history)`` replayed from the origin to ``node``."""
    run = ctl.factory(ctl.seed, ctl.tree.perturbations_along(node.node_id))
    run.advance_to(node.virtual_time_ns)
    return run


def test_forward_travel_continues_the_live_run():
    ctl = make_controller()
    nodes = record_chain(ctl)
    ctl.travel_to(nodes[0].node_id)
    live = ctl.active_run
    run = ctl.travel_to(nodes[2].node_id)
    assert run is live
    assert run.virtual_now() == nodes[2].virtual_time_ns
    assert ctl.restore_stats["continues"] == 1
    assert ctl.restore_stats["replays"] == 1


def test_inexact_live_run_is_not_continued():
    ctl = make_controller()
    nodes = record_chain(ctl)
    # the target is the position itself: travel_to discards the live run
    live = ctl.active_run
    assert ctl.travel_to(nodes[2].node_id) is not live
    # the live run has already passed the target
    ctl.travel_to(nodes[0].node_id)
    ctl.run_to(2500 * MS)
    ctl.travel_to(nodes[1].node_id)
    # a perturbation is pending on the live run
    ctl.travel_to(nodes[0].node_id)
    ctl.perturb(Perturbation(1500 * MS, "boost", 7))
    run = ctl.travel_to(nodes[1].node_id)
    assert run.state_digest() == fresh_replay(ctl, nodes[1]).state_digest()
    # the edge to the target carries a perturbation
    ctl.travel_to(nodes[0].node_id)
    ctl.perturb(Perturbation(1500 * MS, "boost", 7))
    ctl.run_to(2 * SECOND)
    branch = ctl.checkpoint("boosted")
    ctl.travel_to(nodes[0].node_id)
    ctl.travel_to(branch.node_id)
    assert ctl.restore_stats["continues"] == 0
    assert ctl.restore_stats["replays"] == 8


def test_stepwise_advance_equals_one_advance():
    """``advance_to(a); advance_to(b)`` is ``advance_to(b)``: running to
    an integer horizon schedules nothing, on a plain run and on a full
    testbed experiment."""
    for factory, seed in ((MiniRun, 42),
                          (ReplayableExperiment.factory(build_stream_rig), 3)):
        stepped, straight = factory(seed, []), factory(seed, [])
        origin = stepped.virtual_now()
        stepped.advance_to(origin + 250 * MS)
        stepped.advance_to(origin + 750 * MS)
        straight.advance_to(origin + 750 * MS)
        assert stepped.sim.frontier_state() == straight.sim.frontier_state()
        assert stepped.state_digest() == straight.state_digest()


# ------------------------------------------------------------------ oracles

def counting(factory):
    """``factory`` plus a list of every run it built."""
    built = []

    def build(seed, perturbations):
        built.append(factory(seed, perturbations))
        return built[-1]
    return build, built


def test_verify_reproducibility_compares_two_fresh_replays():
    factory, built = counting(MiniRun)
    ctl = TimeTravelController(factory, seed=42)
    nodes = record_chain(ctl)
    ctl.travel_to(nodes[0].node_id)
    live, digest = ctl.active_run, ctl.active_run.state_digest()
    before = len(built)
    assert ctl.verify_reproducibility(nodes[2].node_id)
    assert len(built) == before + 2
    assert live not in built[before:]
    assert ctl.active_run is live and live.state_digest() == digest
    assert ctl.position.node_id == nodes[0].node_id


def test_verify_restore_replays_from_the_origin_not_the_live_run():
    factory, built = counting(world_factory("fig4"))
    seed = 3
    probe = WORLD_BUILDERS["fig4"](seed=seed)
    times = [probe.advance_to_quiescence(t * SECOND) for t in (1, 2)]
    ctl = TimeTravelController(factory, seed=seed)
    nodes = []
    for t in times:
        ctl.run_to(t)
        nodes.append(ctl.checkpoint())
    ctl.travel_to(nodes[0].node_id)
    live, digest = ctl.active_run, ctl.active_run.state_digest()
    before = len(built)
    assert ctl.verify_restore(nodes[1].node_id)
    assert len(built) == before + 1
    assert built[-1] is not live
    assert ctl.active_run is live and live.state_digest() == digest
    assert live.virtual_now() == nodes[0].virtual_time_ns


# ------------------------------------------------------------------ exactness property

def random_session(ctl, rng, steps, perturbation):
    """Drive ``ctl`` through a seeded mix of run_to, checkpoint, perturb
    and forward/backward travel_to.  After every navigation the landed
    run must equal a fresh replay of the target, and no checkpoint
    capture may move the event frontier."""
    nodes = [ctl.position]
    for _ in range(steps):
        op = rng.choice(("run", "record", "record", "record", "perturb",
                         "travel", "travel", "travel"))
        now = ctl.active_run.virtual_now()
        if op == "perturb":
            ctl.perturb(perturbation(now + rng.randrange(1, 100) * MS, rng))
        elif op != "travel":
            ctl.run_to(now + rng.randrange(1, 300) * MS)
            if op == "record":
                frontier = ctl.active_run.sim.frontier_state()
                nodes.append(ctl.checkpoint())
                assert ctl.active_run.sim.frontier_state() == frontier
        else:
            # two hops, each preferring a checkpoint ahead of the
            # position, so a backward jump is often followed by a
            # forward one
            for _hop in range(2):
                position = ctl.position.node_id
                ahead = [n for n in nodes if n.node_id != position
                         and position in {a.node_id for a in
                                          ctl.tree.path_to(n.node_id)}]
                target = rng.choice(ahead if ahead and rng.random() < 0.7
                                    else nodes)
                run = ctl.travel_to(target.node_id)
                fresh = fresh_replay(ctl, target)
                assert run.virtual_now() == target.virtual_time_ns
                assert run.state_digest() == fresh.state_digest()
                assert run.sim.frontier_state() == \
                    fresh.sim.frontier_state()


def test_navigation_is_exact_on_random_sessions():
    stats = {"continues": 0, "replays": 0}
    for seed in range(20):
        ctl = make_controller()
        random_session(ctl, random.Random(seed), 30,
                       lambda at, rng: Perturbation(
                           at, "boost", rng.randrange(1, 100)))
        for key in stats:
            stats[key] += ctl.restore_stats[key]
    # both start points were exercised, or the property proves nothing
    assert stats["continues"] > 0 and stats["replays"] > 0


def test_navigation_is_exact_on_a_testbed_experiment():
    def perturbation(at, rng):
        if rng.random() < 0.5:
            return packet_drop(at, "l0")
        return interrupt_skew(at, "node1", rng.randrange(1, 100) * US)

    factory = ReplayableExperiment.factory(build_stream_rig)
    continues = 0
    for seed in range(4):
        ctl = TimeTravelController(factory, seed=3)
        random_session(ctl, random.Random(seed), 16, perturbation)
        continues += ctl.restore_stats["continues"]
        # the captures ran through the pipeline, so the frontier checks
        # above covered real branch points
        assert all(c.branch_points for c in ctl.captures.values())
    assert continues > 0


def test_capture_leaves_the_frontier_unchanged():
    run = ReplayableExperiment.factory(build_stream_rig)(3, [])
    run.advance_to(run.virtual_now() + 100 * MS)
    frontier, digest = run.sim.frontier_state(), run.state_digest()
    capture = capture_run_snapshot(run)
    assert capture.branch_points
    assert run.sim.frontier_state() == frontier
    assert run.state_digest() == digest
