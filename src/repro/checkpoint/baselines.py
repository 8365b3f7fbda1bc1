"""Baseline checkpointers the paper argues against (§3, §8).

Three comparators for the ablation benchmarks, all thin drivers over the
same staged engine (:mod:`repro.checkpoint.pipeline`) as the transparent
checkpoint — what differs is only which providers participate and how
the stages are scheduled:

* :class:`NaiveCheckpointer` — suspends execution but **not time** (a
  :class:`~repro.checkpoint.pipeline.NaiveDomainProvider`: the domain
  provider without its temporal firewall).  The guest observes the
  downtime: sleeping loops see giant iterations, expired TCP retransmit
  timers fire on resume.
* :class:`UncoordinatedRunner` — every node runs its own full local
  pipeline on its own schedule (no clock-synchronized trigger, no
  delay-node capture).  While one node is down its peers keep running:
  packet delays, NIC-ring replay logs, retransmissions.
* :class:`RemusCheckpointer` — Remus-style continuous checkpointing with
  buffered output commit (Cully 2008): every epoch is a ``save →
  resume`` pipeline span — the domain's outbound packets are held until
  the epoch's state is committed, adding up to one epoch of latency and
  a release burst — "background state-saving and buffered I/O may harm
  realism" (§8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.checkpoint.pipeline import (Checkpointable, CheckpointPipeline,
                                       NaiveDomainProvider, Stage)
from repro.errors import CheckpointError
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.units import MB, MS, transfer_time_ns
from repro.xen.checkpoint import CheckpointConfig, LocalCheckpointer
from repro.xen.hypervisor import Domain


class NaiveCheckpointer:
    """Stops the guest without virtualizing time (no temporal firewall).

    The suspension is externally identical to the transparent checkpoint —
    same downtime, same device handling — but the virtual clock and guest
    TSC keep running, so the guest wakes up ``downtime`` in its own future:
    timers have expired en masse and ``gettimeofday`` jumps.
    """

    def __init__(self, domain: Domain,
                 config: Optional[CheckpointConfig] = None) -> None:
        self.domain = domain
        self.sim: Simulator = domain.sim
        self.config = config if config is not None else CheckpointConfig()
        self.downtimes: List[int] = []
        self.provider = NaiveDomainProvider(domain, self.config)
        self.pipeline = CheckpointPipeline(self.sim, [self.provider],
                                           session=f"naive.{domain.name}")

    def checkpoint(self):
        """Run one non-transparent checkpoint; returns a sim process."""
        return self.sim.process(self.run())

    def run(self):
        yield from self.pipeline.run_local()
        downtime = self.provider.last_downtime_ns
        self.downtimes.append(downtime)
        return downtime, self.provider.last_replayed


@dataclass
class UncoordinatedRunner:
    """Periodic independent checkpoints on a set of nodes.

    Each node drives its own full local pipeline every ``period_ns``,
    with node *i* phase-shifted by ``i * stagger_ns``.  No clock
    synchronization, no coordinated suspend, no delay-node capture — the
    §3.2 anomalies follow.
    """

    sim: Simulator
    checkpointers: List[LocalCheckpointer]
    period_ns: int
    stagger_ns: int = 250 * MS
    started: bool = field(default=False, init=False)
    rounds: int = field(default=0, init=False)

    def start(self, rounds: int = 1) -> List:
        """Run ``rounds`` checkpoints on every node; returns the processes."""
        if self.started:
            raise CheckpointError("runner already started")
        self.started = True
        procs = []
        for i, ckpt in enumerate(self.checkpointers):
            procs.append(self.sim.process(self._node_loop(i, ckpt, rounds)))
        return procs

    def _node_loop(self, index: int, ckpt: LocalCheckpointer, rounds: int):
        yield self.sim.timeout(index * self.stagger_ns)
        for _ in range(rounds):
            yield from ckpt.run()
            yield self.sim.timeout(self.period_ns)


class RemusEpochProvider(Checkpointable):
    """One Remus epoch as a pipeline span: commit (save), release (resume).

    ``save`` is the brief stop-and-copy of the epoch's dirty pages;
    ``resume`` releases the output commit buffer.  ``abort`` also
    releases the buffer, so a coordinated rollback never strands held
    packets.
    """

    def __init__(self, remus: "RemusCheckpointer") -> None:
        self.remus = remus
        self.name = f"remus.{remus.domain.name}"

    def stage_save(self):
        remus = self.remus
        commit_ns = transfer_time_ns(remus.dirty_per_epoch_bytes,
                                     remus.copy_rate_bps)
        remus.domain.kernel.cpu_outside(commit_ns // 2, weight=0.5)
        yield remus.sim.timeout(commit_ns)

    def stage_resume(self):
        self.remus._flush()

    def stage_abort(self):
        self.remus._flush()


class RemusCheckpointer:
    """Continuous high-frequency checkpointing with buffered output.

    While running, all outbound packets of the domain's NICs are held in a
    commit buffer; at every epoch boundary the epoch's dirty state is
    copied (a short stop-and-copy) and the buffer is released.  Latency
    grows by up to one epoch plus the commit time; packets leave in bursts.
    """

    def __init__(self, domain: Domain, epoch_ns: int = 25 * MS,
                 dirty_per_epoch_bytes: int = 4 * MB,
                 copy_rate_bps: int = 400 * MB) -> None:
        self.domain = domain
        self.sim: Simulator = domain.sim
        self.epoch_ns = epoch_ns
        self.dirty_per_epoch_bytes = dirty_per_epoch_bytes
        self.copy_rate_bps = copy_rate_bps
        self._buffer: List[tuple] = []
        self._running = False
        self._generation = 0
        self.epochs = 0
        self.packets_buffered = 0
        self.provider = RemusEpochProvider(self)
        self.pipeline = CheckpointPipeline(self.sim, [self.provider],
                                           session=f"remus.{domain.name}")

    def start(self) -> None:
        """Begin continuous checkpointing."""
        if self._running:
            raise CheckpointError("Remus already running")
        self._running = True
        self._generation += 1
        for nic in self.domain.nics:
            nic.iface.tx_interceptor = self._intercept(nic.iface)
        self.sim.process(self._epoch_loop(self._generation))

    def stop(self) -> None:
        """Stop immediately: flush held packets, remove the interceptors.

        A stop during an in-flight epoch must not strand the commit
        buffer — new packets already bypass it the instant ``_running``
        drops, so a deferred flush would deliver the held packets *after*
        younger traffic (reordering) or never (if the run ends first).
        """
        if not self._running:
            return
        self._running = False
        self._flush()
        for nic in self.domain.nics:
            nic.iface.tx_interceptor = None

    def _intercept(self, iface):
        def hold(packet: Packet) -> bool:
            if not self._running:
                return False
            self._buffer.append((iface, packet))
            self.packets_buffered += 1
            return True
        return hold

    def _epoch_loop(self, generation: int):
        while self._running and generation == self._generation:
            yield self.sim.timeout(self.epoch_ns)
            if not self._running or generation != self._generation:
                return  # stop() already flushed and detached mid-epoch
            # Commit + release: one save→resume span of the epoch pipeline.
            self.pipeline.reset()
            yield from self.pipeline.run_stages(Stage.SAVE, Stage.RESUME)
            self.epochs += 1

    def _flush(self) -> None:
        buffered, self._buffer = self._buffer, []
        for iface, packet in buffered:
            iface.send_raw(packet)
