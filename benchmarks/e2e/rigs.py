"""The four workloads of the end-to-end benchmark.

Every workload builds its rig through the APIs the ROADMAP keeps:
``repro.testbed`` (``Emulab``, ``ExperimentSpec``, ``swap_in``),
``repro.workloads``, ``repro.storage``/``repro.hw`` and
``TimeTravelController`` over ``ReplayableExperiment``.  A rig always
starts from a plain ``Simulator()``; no scheduler switch is ever passed.

A workload runs in *rounds*.  A round is a fixed piece of work whose
outputs depend only on the seed and the round index, so its digest is
the same in every run, on every commit that keeps behaviour.  Inside a
round the workload ``yield``\\ s its operations (one checkpoint, one
Bonnie++ run, one time-travel navigation) as thunks; the harness in
``run.py`` times each thunk and sends its result back for checking.

Guest activity in the checkpointed workloads never sleeps through
``GuestKernel.sleep``: a guest sleep whose timer expires between the
firewall's gate-close and wheel-freeze steps raises
``FirewallViolation`` (see README.md), so the checkpointed guests arm
their timers on the guest timer wheel directly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List

from repro.sim import Simulator
from repro.sim.core import Event
from repro.sim.random import derived_rng
from repro.hw import Disk, DiskSpec
from repro.storage import (BranchConfig, CowMode, Extent, LinearVolume,
                           VolumeManager)
from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                           TestbedConfig)
from repro.testbed.experiment import LanSpec
from repro.timetravel import ReplayableExperiment, TimeTravelController
from repro.timetravel.knobs import interrupt_skew
from repro.timetravel.replayable import ExperimentHandle
from repro.units import GB, GBPS, MB, MBPS, MS, SECOND, US
from repro.workloads import BitTorrentSwarm, BonnieBenchmark, BonnieConfig


class OpFailed(Exception):
    """An operation finished but its output is wrong (or it aborted)."""


def digest_of(payload) -> str:
    """Short, stable digest of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _timer_sleep(kernel, delay_ns: int) -> Event:
    """An event fired by the guest timer wheel after ``delay_ns`` of
    virtual time (``GuestKernel.sleep`` without the gate check)."""
    done = Event(kernel.sim)
    kernel.timers.call_in(delay_ns, done.succeed)
    return done


class Workload:
    """One benchmark workload; subclasses fill in the rig and the round."""

    name = ""
    #: rounds per second of ``--seconds`` (their rate on the reference
    #: host), and the fixed number of rounds at ``--smoke`` scale
    rounds_per_second = 1.0
    smoke_rounds = 1
    #: operations per round
    ops_per_round = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, purpose: str):
        """A seeded stream for one kind of input of this workload."""
        return derived_rng(f"bench.{self.name}.{purpose}", self.seed)

    def build(self):
        """Everything from a new ``Simulator()`` to the first operation."""
        raise NotImplementedError

    def round(self, rig, index: int) -> Iterator:
        """Yield one thunk per operation; return the round's payload."""
        raise NotImplementedError


class IperfCkpt(Workload):
    """Fig. 6 topology: one bulk TCP stream between two guests on a shaped
    1 Gbps link, checkpointed by the coordinator over and over."""

    name = "iperf_ckpt"
    rounds_per_second = 3.0
    smoke_rounds = 3
    MEMORY = 64 * MB
    #: stream time between one checkpoint's resume and the next start
    STREAM_NS = 100 * MS
    PORT = 5001

    def build(self):
        sim = Simulator()
        testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=self.seed))
        exp = testbed.define_experiment(ExperimentSpec(
            "iperf",
            nodes=[NodeSpec("node0", memory_bytes=self.MEMORY),
                   NodeSpec("node1", memory_bytes=self.MEMORY)],
            links=[LinkSpec("link0", "node0", "node1",
                            bandwidth_bps=GBPS)]))
        sim.run(until=exp.swap_in())
        receiver, sender = exp.kernel("node0"), exp.kernel("node1")
        accepted: List = []
        receiver.tcp.listen(self.PORT, accepted.append)
        # A bulk transfer (iperf -n): more bytes than any run can move,
        # queued before the handshake, so no guest thread paces it.
        conn = sender.tcp.connect(receiver.name, self.PORT)
        conn.send(1 << 50)
        sim.run(until=sim.now + self.STREAM_NS)
        if not accepted or not conn.established:
            raise OpFailed("iperf stream did not connect")
        return {"sim": sim, "exp": exp, "conn": conn, "server": accepted[0]}

    def round(self, rig, index):
        sim, exp = rig["sim"], rig["exp"]
        server = rig["server"]
        before = server.bytes_delivered
        result = yield lambda: sim.run(
            until=exp.coordinator.checkpoint_scheduled())
        if not result.ok:
            raise OpFailed(f"checkpoint aborted at {result.stage}: "
                           f"{result.reason}")
        sim.run(until=sim.now + self.STREAM_NS)
        if server.bytes_delivered <= before:
            raise OpFailed("the stream stalled across a checkpoint")
        stats = rig["conn"].stats
        return [result.suspend_skew_ns, result.resume_skew_ns,
                result.wall_duration_ns, result.core_packets_captured,
                result.endpoint_packets_replayed, server.bytes_delivered,
                stats.retransmits, stats.timeouts, sim.now]


class CkptStorm(Workload):
    """Twelve lightly loaded guests on an idle LAN, checkpointed every two
    virtual seconds: the checkpoint protocol itself is the work."""

    name = "ckpt_storm"
    rounds_per_second = 11.0
    smoke_rounds = 2
    ops_per_round = 10
    NODES = 12
    SLEEP_NS = 100 * MS
    PERIOD_NS = 2 * SECOND

    def build(self):
        sim = Simulator()
        testbed = Emulab(sim, TestbedConfig(num_machines=2 * self.NODES + 1,
                                            seed=self.seed))
        names = [f"node{i}" for i in range(self.NODES)]
        exp = testbed.define_experiment(ExperimentSpec(
            "storm", nodes=[NodeSpec(n) for n in names],
            lans=[LanSpec("lan0", tuple(names), bandwidth_bps=100 * MBPS)]))
        sim.run(until=exp.swap_in())
        wakeups: Dict[str, int] = {}
        offsets = self.rng("sleepers")
        for name in names:
            wakeups[name] = 0
            offset = offsets.randrange(self.SLEEP_NS)
            exp.kernel(name).spawn(self._sleeper(name, offset, wakeups),
                                   name="sleeper")
        return {"sim": sim, "exp": exp, "wakeups": wakeups}

    def _sleeper(self, name: str, offset_ns: int, wakeups: Dict[str, int]):
        def body(kernel):
            yield _timer_sleep(kernel, offset_ns)
            while True:
                yield _timer_sleep(kernel, self.SLEEP_NS)
                wakeups[name] += 1
        return body

    def round(self, rig, index):
        sim, coordinator = rig["sim"], rig["exp"].coordinator
        payload = []
        for _ in range(self.ops_per_round):
            sim.run(until=sim.now + self.PERIOD_NS)
            result = yield lambda: sim.run(
                until=coordinator.checkpoint_scheduled())
            if not result.ok:
                raise OpFailed(f"checkpoint aborted at {result.stage}: "
                               f"{result.reason}")
            payload.append([result.suspend_skew_ns, result.resume_skew_ns,
                            result.wall_duration_ns])
        wakeups = rig["wakeups"]
        payload.append([wakeups[n] for n in sorted(wakeups)])
        payload.append(sim.now)
        return payload


class CowStorage(Workload):
    """Fig. 8: Bonnie++ on the base volume and the three copy-on-write
    branch configurations, each run on a fresh storage stack."""

    name = "cow_storage"
    rounds_per_second = 1.8
    smoke_rounds = 2
    CONFIGS = ("base", "branch", "branch-aged", "branch-orig")
    ops_per_round = len(CONFIGS)
    FILE_BYTES = 64 * MB
    GOLDEN_BLOCKS = 400_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng("layout")
        self.order = list(self.CONFIGS)
        rng.shuffle(self.order)
        # Where the character-phase file starts inside the volume; the
        # block-phase file follows it, as in Bonnie++.
        chunk = BonnieConfig().chunk_blocks
        self.char_vba = chunk * rng.randrange(4096)
        #: first result per configuration; every fresh stack must repeat it
        self.reference: Dict[str, list] = {}

    def _stack(self, config: str):
        sim = Simulator()
        disk = Disk(sim, DiskSpec(capacity_bytes=64 * GB))
        if config == "base":
            return sim, LinearVolume(Extent(disk, 0, self.GOLDEN_BLOCKS))
        manager = VolumeManager(sim, disk)
        golden = manager.create_golden("img", self.GOLDEN_BLOCKS)
        branch_config = {
            "branch": BranchConfig(),
            "branch-aged": BranchConfig(aged=True),
            "branch-orig": BranchConfig(cow_mode=CowMode.ORIGINAL_LVM),
        }[config]
        return sim, manager.create_branch(
            "b", golden, config=branch_config,
            log_blocks=self.GOLDEN_BLOCKS,
            aggregated_blocks=self.GOLDEN_BLOCKS)

    def build(self):
        # The four stacks of one round.  Each operation builds its own
        # fresh stack, so that every round repeats exactly.
        return [self._stack(config) for config in self.order]

    def _bonnie(self, config: str):
        sim, volume = self._stack(config)
        bench = BonnieBenchmark(
            sim, volume, config=BonnieConfig(file_bytes=self.FILE_BYTES),
            char_vba=self.char_vba)
        return sim.run(until=bench.run())

    def round(self, rig, index):
        payload = []
        for config in self.order:
            result = yield lambda config=config: self._bonnie(config)
            phases = result.throughput
            if sorted(phases) != sorted(result.PHASES) or \
                    min(phases.values()) <= 0:
                raise OpFailed(f"{config}: incomplete Bonnie++ result")
            row = [config] + [phases[p] for p in result.PHASES]
            if self.reference.setdefault(config, row) != row:
                raise OpFailed(f"{config}: a fresh stack gave another result")
            payload.append(row)
        return payload


class TimeTravel(Workload):
    """Fig. 7 topology: a four-node BitTorrent swarm on a 100 Mbps LAN,
    recorded with four checkpoints, then navigated by one waiting user."""

    name = "timetravel"
    rounds_per_second = 0.8
    smoke_rounds = 1
    CHECKPOINTS = 4
    ops_per_round = CHECKPOINTS
    SPACING_NS = 250 * MS
    NODES = 4

    @staticmethod
    def _swarm_rig(sim: Simulator, seed: int) -> ExperimentHandle:
        testbed = Emulab(sim, TestbedConfig(num_machines=2 * TimeTravel.NODES
                                            + 1, seed=seed))
        names = [f"node{i}" for i in range(TimeTravel.NODES)]
        exp = testbed.define_experiment(ExperimentSpec(
            "swarm", nodes=[NodeSpec(n) for n in names],
            lans=[LanSpec("lan0", tuple(names), bandwidth_bps=100 * MBPS)]))
        sim.run(until=exp.swap_in())
        swarm = BitTorrentSwarm([exp.kernel(n) for n in names],
                                seeder_index=0, file_bytes=3 * GB,
                                rng=testbed.streams.stream("bt"))
        swarm.start()

        def digest():
            return [sim.now] + [[len(p.pieces), p.stats.bytes_downloaded,
                                 p.stats.bytes_uploaded]
                                for p in swarm.peers]
        return ExperimentHandle(exp, digest=digest)

    def build(self):
        controller = TimeTravelController(
            ReplayableExperiment.factory(self._swarm_rig), seed=self.seed)
        origin = controller.active_run.virtual_now()
        recorded = []
        for i in range(1, self.CHECKPOINTS + 1):
            controller.run_to(origin + i * self.SPACING_NS)
            node = controller.checkpoint(label=f"t{i}")
            recorded.append((node.node_id,
                             controller.active_run.state_digest()))
        return {"controller": controller, "recorded": recorded}

    def round(self, rig, index):
        controller = rig["controller"]
        rng = self.rng(f"round{index}")
        targets = list(rig["recorded"])
        rng.shuffle(targets)
        payload = []
        for node_id, expected in targets:
            fallbacks = controller.restore_stats["fallbacks"]
            run = yield lambda node_id=node_id: controller.travel_to(node_id)
            landed = run.state_digest()
            if landed != expected:
                raise OpFailed(f"navigation to checkpoint {node_id} landed "
                               f"on a different state")
            if controller.restore_stats["fallbacks"] != fallbacks:
                raise OpFailed("navigation fell back from restore to replay")
            payload.append(node_id)
        # The user then perturbs the run, goes on and checkpoints: a new
        # branch of the tree.
        run = controller.active_run
        node = f"node{1 + rng.randrange(self.NODES - 1)}"
        controller.perturb(interrupt_skew(run.virtual_now() + 1 * MS, node,
                                          (1 + rng.randrange(100)) * US))
        controller.run_to(run.virtual_now() + self.SPACING_NS)
        branch = controller.checkpoint(label=f"branch{index}")
        payload.append([branch.node_id, controller.active_run.state_digest()])
        return payload


WORKLOADS = {cls.name: cls for cls in (IperfCkpt, CkptStorm, CowStorage,
                                       TimeTravel)}
