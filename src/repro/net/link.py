"""Point-to-point duplex links.

A link serializes transmissions per direction at its bandwidth, applies
propagation delay, and drops on transmit-queue overflow.  Emulab experiment
links are physically switched Ethernet at full NIC rate; the *shaping* to
the experiment's requested characteristics happens in the interposed delay
node (:mod:`repro.net.delaynode`), so plain links are typically configured
at line rate with negligible propagation.

Delivery uses **packet trains**: because each direction is a FIFO serializer,
arrival times are monotone, so while packets are in flight back-to-back the
direction keeps exactly one scheduled delivery event alive.  The event
delivers the head of the train at its precise arrival time and reschedules
itself for the next head — per-packet arrival timing is reconstructed
exactly (bit-identical to per-packet scheduling) while the event heap holds
one entry per busy direction instead of one per in-flight packet, and the
scheduled item is one prebound callable reused for the whole train (zero
per-packet allocation).  The train disengages whenever it drains (the
direction goes idle) and re-engages on the next transmission.
"""

from __future__ import annotations

from collections import deque

from repro.errors import NetworkError
from repro.net.interface import Interface
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.units import GBPS, US, transmission_time_ns


class _Direction:
    """One serializing direction of a duplex link."""

    __slots__ = ("sim", "src", "dst", "busy_until", "queued", "drops",
                 "train", "scheduled", "fire", "schedule", "deliver")

    def __init__(self, sim: Simulator, src: Interface, dst: Interface) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.busy_until = 0
        self.queued = 0
        self.drops = 0
        #: in-flight packets in arrival order: (arrive_ns, packet)
        self.train: deque = deque()
        self.scheduled = False
        #: the one delivery callable reused for every entry of the train
        self.fire = self._deliver_next
        #: prebound hot-path targets: one attribute hop instead of two on
        #: every train re-arm and every delivery
        self.schedule = sim.schedule_fn
        self.deliver = dst.deliver

    def _deliver_next(self) -> None:
        train = self.train
        arrive, packet = train.popleft()
        if train:
            # Re-arm for the next arrival *before* delivering: a handler
            # that synchronously transmits again must see consistent state.
            self.schedule(train[0][0], self.fire)
        else:
            self.scheduled = False          # train drained
        self.queued -= 1
        self.deliver(packet)


class Link:
    """A full-duplex wire between two interfaces."""

    __slots__ = ("sim", "bandwidth_bps", "propagation_ns", "queue_packets",
                 "_dirs")

    def __init__(self, sim: Simulator, a: Interface, b: Interface,
                 bandwidth_bps: int = GBPS, propagation_ns: int = 1 * US,
                 queue_packets: int = 1000) -> None:
        if bandwidth_bps <= 0:
            raise NetworkError("link bandwidth must be positive")
        if a.link is not None or b.link is not None:
            raise NetworkError("interface already wired to a link")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.queue_packets = queue_packets
        self._dirs = {a: _Direction(sim, a, b), b: _Direction(sim, b, a)}
        a.link = self
        b.link = self

    def transmit(self, src: Interface, packet: Packet) -> None:
        """Clock ``packet`` onto the wire from ``src``."""
        direction = self._dirs.get(src)
        if direction is None:
            raise NetworkError(f"{src!r} is not an endpoint of this link")
        if direction.queued >= self.queue_packets:
            direction.drops += 1
            return
        now = self.sim.now
        start = max(now, direction.busy_until)
        finish = start + transmission_time_ns(packet.wire_bytes,
                                              self.bandwidth_bps)
        direction.busy_until = finish
        direction.queued += 1
        arrive = finish + self.propagation_ns
        direction.train.append((arrive, packet))
        if not direction.scheduled:
            direction.scheduled = True
            direction.schedule(arrive, direction.fire)

    def drops(self, src: Interface) -> int:
        """Packets dropped at ``src``'s transmit queue."""
        return self._dirs[src].drops

    def peer_of(self, iface: Interface) -> Interface:
        """The interface on the other end."""
        return self._dirs[iface].dst
