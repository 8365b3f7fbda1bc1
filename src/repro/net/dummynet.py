"""Dummynet-style traffic shaping pipes.

A pipe emulates a link with configurable bandwidth, delay, and loss
(Rizzo's Dummynet, which Emulab runs on its FreeBSD delay nodes).  A packet
entering the pipe first waits in a bounded router queue for the bandwidth
server, then rides the delay line, then is handed to the pipe's sink.

The pipe is the heart of the paper's "transparency of the network core"
(§4.4): because endpoint links are zero-delay, *all* bandwidth-delay-product
packets live inside pipes, so checkpointing the delay node — freezing pipes
and serializing their queues non-destructively — captures the in-flight
state of the whole network.  :meth:`freeze`, :meth:`thaw`,
:meth:`capture_state` and :meth:`restore_state` implement exactly that
live-checkpoint protocol, including virtualizing the pipe clock so queued
packets resume with their *remaining* service times (§4.4's "virtualizing
time to account for the time spent in the checkpoint").

The whole pipe is driven by a *single* armed
:class:`~repro.sim.core.ScheduledCall` at the earliest pending action
(transmission finish or delay-line head delivery).  One :meth:`_advance`
fire drains *everything* due at that instant in one pass — finish the
transmission, deliver every due delay-line entry, start the next
transmission — and re-arms once.  The re-arm is skipped entirely while an
earlier-or-equal call is already pending.  Freezing cancels that one
handle, and a snapshot records its one ``(when, seq)`` event triple.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import CheckpointError, NetworkError
from repro.net.packet import Packet
from repro.sim.core import ScheduledCall, Simulator
from repro.sim.random import derived_rng
from repro.units import MBPS, SECOND, transmission_time_ns

#: nbytes * _BITS_TO_NS // rate_bps == transmission_time_ns(nbytes, rate):
#: bits = nbytes * 8, scaled to nanoseconds before the ceil division
_BITS_TO_NS = 8 * SECOND


@dataclass(frozen=True)
class PipeConfig:
    """Shaping parameters of one pipe (one direction of a shaped link)."""

    bandwidth_bps: int = 100 * MBPS
    delay_ns: int = 0
    loss_probability: float = 0.0
    queue_slots: int = 50

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise NetworkError("pipe bandwidth must be positive")
        if not (0.0 <= self.loss_probability < 1.0):
            raise NetworkError("loss probability must be in [0, 1)")
        if self.queue_slots < 1:
            raise NetworkError("queue must hold at least one packet")


@dataclass
class PipeSnapshot:
    """Serialized pipe state, as written by the delay-node checkpointer."""

    config: PipeConfig
    queue: List[Packet]
    transmitting: Optional[Tuple[Packet, int]]       # (packet, remaining ns)
    delay_line: List[Tuple[Packet, int]]             # (packet, remaining ns)

    @property
    def packets_in_flight(self) -> int:
        return (len(self.queue) + len(self.delay_line) +
                (1 if self.transmitting else 0))


class Pipe:
    """One shaping pipe: bounded queue -> bandwidth server -> delay line."""

    __slots__ = ("sim", "config", "sink", "rng", "name", "_queue",
                 "_transmitting", "_delay_line", "_advance_call",
                 "_armed_at", "_armed_seq", "_frozen",
                 "_bw", "_delay_ns", "_schedule",
                 "submitted", "delivered", "dropped_loss", "dropped_queue",
                 "frozen_arrivals")

    def __init__(self, sim: Simulator, config: PipeConfig,
                 sink: Callable[[Packet], None],
                 rng: Optional[random.Random] = None,
                 name: str = "pipe") -> None:
        self.sim = sim
        self.config = config
        self.sink = sink
        self.rng = rng or derived_rng(f"pipe.{name}")
        self.name = name
        self._queue: List[Packet] = []      # bounded by config.queue_slots
        self._transmitting: Optional[Tuple[Packet, int]] = None  # (pkt, finish)
        self._delay_line: deque = deque()                   # (pkt, deliver_at)
        # the one merged advance call that drives the pipe
        self._advance_call: Optional[ScheduledCall] = None
        self._armed_at = -1                 # instant the advance call is armed for
        self._armed_seq = -1                # its event-store seq (for snapshots)
        # hot-path prebinds: PipeConfig is frozen, so these never go stale
        self._bw = config.bandwidth_bps
        self._delay_ns = config.delay_ns
        self._schedule = sim.schedule_tracked
        self._frozen = False
        self.submitted = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        self.frozen_arrivals = 0

    # -- data path ---------------------------------------------------------------

    def submit(self, packet: Packet) -> None:
        """Offer a packet to the pipe."""
        self.submitted += 1
        if self.config.loss_probability > 0.0 and \
                self.rng.random() < self.config.loss_probability:
            self.dropped_loss += 1
            return
        if len(self._queue) >= self.config.queue_slots:
            self.dropped_queue += 1
            return
        self._queue.append(packet)
        if self._frozen:
            # Arrivals during a checkpoint simply wait in the queue; they
            # will be shaped after thaw like any backlog.
            self.frozen_arrivals += 1
            return
        if self._transmitting is None:
            pkt = self._queue.pop(0)
            # inlined transmission_time_ns (ceil division, >= 1 ns)
            tx = -(-pkt.wire_bytes * _BITS_TO_NS // self._bw)
            self._transmitting = (pkt, self.sim.now + tx)
            self._arm()

    # -- the merged advance call -------------------------------------------------

    def _arm(self) -> None:
        """Ensure the advance call fires no later than the earliest action.

        A pending call armed at or before the new deadline is kept (a
        too-early fire is a cheap no-op that re-arms); only a *later* one
        is cancelled and replaced.  Transmission finishes are strictly in
        the future (transmission time is >= 1 ns) and delay-line delivery
        instants are monotone, so re-arms are rare under load.
        """
        t = self._transmitting
        line = self._delay_line
        if t is not None:
            due = t[1]
            if line and line[0][1] < due:
                due = line[0][1]
        elif line:
            due = line[0][1]
        else:
            return
        call = self._advance_call
        if call is not None:
            if self._armed_at <= due:
                return
            call.cancel()
        self._armed_at = due
        self._advance_call, self._armed_seq = self._schedule(due,
                                                             self._advance)

    def _advance(self) -> None:
        """Drain every action due now in one pass, then re-arm once.

        Order within an instant is fixed: finish the transmission first
        (it may feed the delay line or the sink), then deliver every due
        delay-line entry, then start the next transmission.  Spurious
        fires (after a perturb shortened the delay line) find nothing due
        and simply re-arm.
        """
        self._advance_call = None
        self._armed_at = -1
        self._armed_seq = -1
        now = self.sim.now
        t = self._transmitting
        if t is not None and t[1] <= now:
            packet = t[0]
            self._transmitting = None
            if self._delay_ns == 0:
                self.delivered += 1
                self.sink(packet)
            else:
                # FIFO + constant delay: appending keeps the line sorted.
                self._delay_line.append((packet, now + self._delay_ns))
        line = self._delay_line
        while line and line[0][1] <= now:
            packet, _t = line.popleft()
            self.delivered += 1
            self.sink(packet)
        if self._frozen:
            return                          # a sink callback froze the pipe
        # A sink callback may have re-entered submit() and already started
        # the next transmission; only start one if the server is idle.
        if self._transmitting is None and self._queue:
            packet = self._queue.pop(0)
            # inlined transmission_time_ns (ceil division, >= 1 ns)
            tx = -(-packet.wire_bytes * _BITS_TO_NS // self._bw)
            self._transmitting = (packet, now + tx)
        self._arm()

    # -- introspection -------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def packets_in_flight(self) -> int:
        """Packets currently queued, transmitting, or riding the delay line."""
        return (len(self._queue) + len(self._delay_line) +
                (1 if self._transmitting else 0))

    # -- replay perturbation knobs (§6) ------------------------------------------
    #
    # During a time-travel replay the user may "reorder packets" or
    # "perturb selected system inputs"; these act on the router queue.

    def perturb_reorder(self) -> bool:
        """Swap the two packets closest to delivery.  True if changed.

        Prefers the router queue; falls back to swapping the payloads of
        the two head entries of the delay line (their delivery slots keep
        their times — the packets trade places, i.e. reorder in flight).
        """
        if len(self._queue) >= 2:
            self._queue[0], self._queue[1] = self._queue[1], self._queue[0]
            return True
        if len(self._delay_line) >= 2:
            (p0, t0), (p1, t1) = self._delay_line[0], self._delay_line[1]
            self._delay_line[0] = (p1, t0)
            self._delay_line[1] = (p0, t1)
            return True
        return False

    def perturb_drop(self) -> Optional[Packet]:
        """Drop the packet closest to delivery (an injected loss).

        Takes from the router queue first, then from the delay line (a
        loss in flight); the armed advance call then fires early, finds
        nothing due, and re-arms for the new head.
        """
        if self._queue:
            self.dropped_queue += 1
            return self._queue.pop(0)
        if self._delay_line:
            packet, _t = self._delay_line.popleft()
            self.dropped_queue += 1
            return packet
        return None

    # -- live checkpoint ------------------------------------------------------------

    def freeze(self) -> None:
        """Stop the pipe clock; packets keep their remaining service times."""
        if self._frozen:
            raise CheckpointError(f"pipe {self.name} already frozen")
        self._frozen = True
        now = self.sim.now
        # Convert absolute deadlines into remaining times and cancel the
        # advance call — the pipe's virtual clock stops and the event-store
        # entry is reclaimed lazily.
        if self._advance_call is not None:
            self._advance_call.cancel()
            self._advance_call = None
            self._armed_at = -1
            self._armed_seq = -1
        if self._transmitting is not None:
            packet, finish = self._transmitting
            self._transmitting = (packet, max(0, finish - now))
        self._delay_line = deque((p, max(0, t - now))
                                 for p, t in self._delay_line)

    def thaw(self) -> None:
        """Restart the pipe clock; remaining times resume where they stopped."""
        if not self._frozen:
            raise CheckpointError(f"pipe {self.name} is not frozen")
        self._frozen = False
        now = self.sim.now
        if self._transmitting is not None:
            packet, remaining = self._transmitting
            self._transmitting = (packet, now + remaining)
        self._delay_line = deque((p, now + r) for p, r in self._delay_line)
        if self._transmitting is None and self._queue:
            packet = self._queue.pop(0)
            tx = transmission_time_ns(packet.wire_bytes,
                                      self.config.bandwidth_bps)
            self._transmitting = (packet, now + tx)
        self._arm()

    def capture_state(self) -> PipeSnapshot:
        """Serialize the pipe non-destructively (must be frozen)."""
        if not self._frozen:
            raise CheckpointError("capture requires a frozen pipe")
        return PipeSnapshot(
            config=self.config,
            queue=[p.copy() for p in self._queue],
            transmitting=(None if self._transmitting is None else
                          (self._transmitting[0].copy(), self._transmitting[1])),
            delay_line=[(p.copy(), r) for p, r in self._delay_line],
        )

    def restore_state(self, snapshot: PipeSnapshot) -> None:
        """Load serialized state into this (frozen) pipe."""
        if not self._frozen:
            raise CheckpointError("restore requires a frozen pipe")
        if snapshot.config != self.config:
            raise CheckpointError("snapshot/pipe configuration mismatch")
        self._queue = [p.copy() for p in snapshot.queue]
        self._transmitting = (None if snapshot.transmitting is None else
                              (snapshot.transmitting[0].copy(),
                               snapshot.transmitting[1]))
        self._delay_line = deque((p.copy(), r) for p, r in snapshot.delay_line)

    # -- JSON serialize/restore (the snapshot-store payload) -----------------------

    def serialize_state(self) -> dict:
        """The pipe's full state as a JSON-serializable dict.

        Works frozen (times are remaining-ns, nothing armed) or running
        (times are absolute instants and the armed advance call records
        its exact ``(when, seq)`` event triple for verbatim re-insertion).
        Packet uids are not preserved across the boundary — restored
        packets draw fresh ids; nothing orders or digests on uid.
        """
        from repro.sim.random import encode_rng_state

        cfg = self.config
        tx = self._transmitting
        return {
            "name": self.name, "frozen": self._frozen,
            "config": {"bandwidth_bps": cfg.bandwidth_bps,
                       "delay_ns": cfg.delay_ns,
                       "loss_probability": cfg.loss_probability,
                       "queue_slots": cfg.queue_slots},
            "queue": [encode_packet(p) for p in self._queue],
            "transmitting": (None if tx is None
                             else [encode_packet(tx[0]), tx[1]]),
            "delay_line": [[encode_packet(p), t]
                           for p, t in self._delay_line],
            "calls": {"advance": [self._armed_at, self._armed_seq]
                      if self._advance_call is not None else None},
            "counters": {"submitted": self.submitted,
                         "delivered": self.delivered,
                         "dropped_loss": self.dropped_loss,
                         "dropped_queue": self.dropped_queue,
                         "frozen_arrivals": self.frozen_arrivals},
            "rng": encode_rng_state(self.rng.getstate()),
        }

    def restore_serialized(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload to this empty pipe.

        The pipe must be freshly built (no packets in flight, nothing
        armed) and structurally identical — same name and config.  The
        armed advance call is re-inserted with its original event triple
        via :meth:`~repro.sim.core.Simulator.restore_call`, so the
        restored world pops it in replay-identical order.
        """
        from repro.sim.core import NORMAL
        from repro.sim.random import decode_rng_state

        expected = ("name", "frozen", "config", "queue",
                    "transmitting", "delay_line", "calls", "counters",
                    "rng")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise CheckpointError(f"pipe {self.name}: malformed payload")
        if state["name"] != self.name:
            raise CheckpointError(
                f"pipe {self.name}: payload belongs to {state['name']!r}")
        cfg = self.config
        if state["config"] != {"bandwidth_bps": cfg.bandwidth_bps,
                               "delay_ns": cfg.delay_ns,
                               "loss_probability": cfg.loss_probability,
                               "queue_slots": cfg.queue_slots}:
            raise CheckpointError(
                f"pipe {self.name}: configuration mismatch")
        if self.packets_in_flight or self._advance_call is not None:
            raise CheckpointError(
                f"pipe {self.name}: restore requires an idle pipe")
        self._frozen = bool(state["frozen"])
        self._queue = [decode_packet(p) for p in state["queue"]]
        tx = state["transmitting"]
        self._transmitting = (None if tx is None
                              else (decode_packet(tx[0]), tx[1]))
        self._delay_line = deque((decode_packet(p), t)
                                 for p, t in state["delay_line"])
        counters = state["counters"]
        self.submitted = counters["submitted"]
        self.delivered = counters["delivered"]
        self.dropped_loss = counters["dropped_loss"]
        self.dropped_queue = counters["dropped_queue"]
        self.frozen_arrivals = counters["frozen_arrivals"]
        self.rng.setstate(decode_rng_state(state["rng"]))
        calls = state["calls"]
        if set(calls) != {"advance"}:
            raise CheckpointError(f"pipe {self.name}: malformed calls")
        advance = calls["advance"]
        if advance is None:
            return
        if self._frozen:
            raise CheckpointError(
                f"pipe {self.name}: frozen payload with an armed call")
        self._armed_at, self._armed_seq = advance
        self._advance_call = self.sim.restore_call(
            self._armed_at, NORMAL, self._armed_seq, self._advance)


def encode_packet(packet: Packet) -> dict:
    """A packet as a JSON-serializable dict (uid intentionally dropped)."""
    return {"src": packet.src, "dst": packet.dst,
            "protocol": packet.protocol,
            "payload_bytes": packet.payload_bytes,
            "headers": dict(packet.headers),
            "created_at": packet.created_at}


def decode_packet(data: dict) -> Packet:
    """Rebuild a packet from :func:`encode_packet` output (fresh uid)."""
    expected = ("src", "dst", "protocol", "payload_bytes", "headers",
                "created_at")
    if not isinstance(data, dict) or set(data) != set(expected):
        raise CheckpointError("malformed packet payload")
    return Packet(data["src"], data["dst"], data["protocol"],
                  data["payload_bytes"], dict(data["headers"]),
                  data["created_at"])
