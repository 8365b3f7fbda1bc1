"""Benchmark scenarios, each built on a caller-supplied simulator.

Every scenario builds its world through the public API on the
:class:`~repro.sim.core.Simulator` it is given.  ``run_fig8`` returns a
digest that the golden-digest test and ``repro bench`` compare against
the stored golden in ``benchmarks/results/PIPELINE_digests.json``.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from typing import Tuple

from repro.analysis.digest import branch_digest, hash_parts
from repro.sim import Simulator
from repro.sim.random import RandomStreams
from repro.sim.timers import SimTimerService
from repro.units import GB, MB, MBPS, MS, SECOND


# -- kernel microbenchmarks ----------------------------------------------------


def run_calibrator(events: int = 200_000, chains: int = 64) -> int:
    """Host-speed yardstick: :func:`run_event_churn`'s shape in bare heapq.

    ``chains`` self-rescheduling Python callbacks on a plain ``heapq`` of
    ``(when, seq, fn)`` tuples, with no simulator code at all.  Timed
    next to ``event_churn`` in the same process, its cost cancels host
    speed and load out of the churn gate.  Keep it frozen: editing it
    moves the gate's yardstick.  Returns the number of callbacks fired.
    """
    heap: list = []
    state = {"fired": 0, "seq": 0}
    limit = events - chains

    def tick(now: int) -> None:
        state["fired"] += 1
        if state["fired"] <= limit:
            state["seq"] += 1
            heappush(heap, (now + 1000, state["seq"], tick))

    for i in range(chains):
        state["seq"] += 1
        heappush(heap, (10 + i, state["seq"], tick))
    while heap:
        now, _seq, fn = heappop(heap)
        fn(now)
    return state["fired"]


def run_event_churn(sim: Simulator, events: int = 200_000,
                    chains: int = 64) -> int:
    """Schedule-and-fire churn: ``chains`` self-rescheduling callbacks.

    Models the steady-state heap load of a busy experiment: a bounded set
    of concurrent activities, each rescheduling itself after firing.
    Returns the number of callbacks fired.
    """
    state = {"fired": 0}
    limit = events

    def tick() -> None:
        state["fired"] += 1
        if state["fired"] <= limit - chains:
            sim.schedule_fn(sim.now + 1000, tick)

    for i in range(chains):
        sim.schedule_fn(sim.now + 10 + i, tick)
    sim.run()
    return state["fired"]


def run_timer_storm(sim: Simulator, rounds: int = 400,
                    timers: int = 250) -> Tuple[int, int]:
    """A TCP-RTO-style cancel/rearm storm.

    Each round arms ``timers`` long-deadline timers (60 s out, like
    retransmission timers) and immediately cancels all but one — the
    "ack arrived, rearm" pattern.  Without lazy deletion + compaction
    every cancelled timer would sit in the store until its 60 s deadline.
    Returns (timers armed, timers fired).
    """
    svc = SimTimerService(sim)
    state = {"fired": 0}

    def on_fire() -> None:
        state["fired"] += 1

    armed = 0
    for _ in range(rounds):
        handles = [svc.call_in(60 * SECOND, on_fire) for _ in range(timers)]
        armed += len(handles)
        for handle in handles[:-1]:
            handle.cancel()
        sim.run(until=sim.now + 1 * MS)
    sim.run(until=sim.now + 61 * SECOND)
    return armed, state["fired"]


def run_pipe_saturation(sim: Simulator, packets: int = 20_000,
                        bursts: int = 40) -> str:
    """A Dummynet pipe saturated between checkpoint epochs.

    Pumps ``packets`` packets through one shaped pipe (bandwidth + delay
    line) in ``bursts`` back-to-back bursts, refilling the router queue
    from the sink callback so the bandwidth server never idles — the
    steady-state load of the merged advance driver.  Returns a digest over
    every delivery instant and packet identity, so any scheduling change
    in the pipe driver changes the result.
    """
    from repro.net.dummynet import Pipe, PipeConfig
    from repro.net.packet import Packet

    config = PipeConfig(bandwidth_bps=100 * MBPS, delay_ns=5 * MS,
                        queue_slots=200)
    state = {"sent": 0, "h": hashlib.sha256()}
    per_burst = max(1, packets // bursts)

    def sink(packet: Packet) -> None:
        state["h"].update(b"%d:%d;" % (sim.now, packet.headers["n"]))
        # Refill from the delivery callback: keeps the queue non-empty so
        # the server stays saturated (and exercises advance re-entrancy).
        if state["sent"] < packets:
            n = state["sent"]
            state["sent"] += 1
            pipe.submit(Packet("src", "dst", "bench", 1434,
                               headers={"n": n}))

    rng = RandomStreams(seed=11).stream("bench.pipe_saturation")
    pipe = Pipe(sim, config, sink, rng, name="saturation")
    for _ in range(bursts):
        if state["sent"] >= packets:
            break
        for _i in range(per_burst):
            if state["sent"] >= packets:
                break
            n = state["sent"]
            state["sent"] += 1
            pipe.submit(Packet("src", "dst", "bench", 1434,
                               headers={"n": n}))
        sim.run(until=sim.now + 50 * MS)
    sim.run()
    state["h"].update(b"delivered=%d" % pipe.delivered)
    return state["h"].hexdigest()


# -- figure rigs ----------------------------------------------------------------
#
# fig4-fig7 and ckpt10 are scenario files (repro.testbed.compile.
# NAMED_SCENARIOS); fig8 runs on private simulators with no testbed, so
# it stays a function here.


def run_fig8(sim: Simulator, file_mb: int = 96, seed: int = 8) -> str:
    """The Figure 8 scenario (Bonnie++ on COW storage configurations).

    Each configuration after ``base`` runs in its own fresh simulator; the
    digest covers the branch content maps and throughputs.
    """
    from repro.hw import Disk, DiskSpec
    from repro.storage import (BranchConfig, CowMode, Extent, LinearVolume,
                               VolumeManager)
    from repro.workloads import BonnieBenchmark, BonnieConfig

    golden_blocks = 120_000
    parts: list = []
    for config_name in ("base", "branch", "branch-aged", "branch-orig"):
        config_sim = sim if config_name == "base" else Simulator()
        disk = Disk(config_sim, DiskSpec(capacity_bytes=16 * GB))
        branch = None
        if config_name == "base":
            volume = LinearVolume(Extent(disk, 0, golden_blocks))
        else:
            manager = VolumeManager(config_sim, disk)
            golden = manager.create_golden("img", golden_blocks)
            cfg = {
                "branch": BranchConfig(),
                "branch-aged": BranchConfig(aged=True),
                "branch-orig": BranchConfig(cow_mode=CowMode.ORIGINAL_LVM),
            }[config_name]
            volume = manager.create_branch("b", golden, config=cfg,
                                           log_blocks=golden_blocks,
                                           aggregated_blocks=golden_blocks)
            branch = volume
        bench = BonnieBenchmark(config_sim, volume,
                                config=BonnieConfig(file_bytes=file_mb * MB))
        result = config_sim.run(until=bench.run())
        throughput = {phase: round(result.throughput[phase], 3)
                      for phase in sorted(result.throughput)}
        parts.append((config_name, throughput, config_sim.now))
        if branch is not None:
            parts.append(branch_digest(branch))
    return hash_parts(parts)
