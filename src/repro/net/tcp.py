"""A flow-controlled, congestion-controlled TCP.

This is a Reno-style TCP faithful enough to expose the checkpoint anomalies
the paper cares about (§3.2): retransmissions from packet delays, duplicate
acknowledgements from reordered/in-flight replay, receive-window pressure
from replay bursts, and timeout behaviour under frozen clocks.  Figure 6's
claim — *checkpoints caused no retransmissions, double acknowledgements, or
changes of window size* — is asserted directly against this
implementation's counters.

Bytes are modelled as counts (no payload contents).  All timers run through
the owning host's :class:`~repro.sim.timers.TimerService`; inside a guest
that service is the kernel's virtual timer wheel, so a transparent
checkpoint freezes RTO timers along with everything else — exactly the
mechanism that prevents spurious retransmits in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import CheckpointError, NetworkError
from repro.net.host import Host
from repro.net.packet import Packet
from repro.obs.trace import maybe_record
from repro.units import MS, SECOND

MSS = 1448                      # bytes of payload per full segment
DEFAULT_RECV_BUFFER = 256 * 1024
INITIAL_CWND_SEGMENTS = 10
MIN_RTO_NS = 200 * MS
MAX_RTO_NS = 60 * SECOND
DUPACK_THRESHOLD = 3
DELACK_SEGMENTS = 2             # ack every other in-order segment
DELACK_TIMEOUT_NS = 40 * MS     # delayed-ack timer

SYN, ACK, FIN = "SYN", "ACK", "FIN"


@dataclass(slots=True)
class TCPStats:
    """Per-connection counters used by the evaluation's trace analysis."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_acked: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    dupacks_received: int = 0
    dupacks_sent: int = 0
    zero_window_advertisements: int = 0
    rtt_samples: int = 0


class TCPConnection:
    """One endpoint of a TCP connection."""

    __slots__ = (
        "stack", "host", "local_port", "remote_addr", "remote_port", "state",
        "stats", "snd_una", "snd_nxt", "snd_max", "send_queue", "cwnd",
        "ssthresh", "peer_window", "dupack_count", "_recovery_point",
        "_in_fast_recovery", "_segment_times", "_ca_accumulator", "rcv_nxt",
        "_unacked_segments", "_delack_timer", "recv_buffer_capacity",
        "recv_buffered", "_ooo", "bytes_delivered", "srtt", "rttvar", "rto",
        "_rto_timer", "_rto_backoff", "_recovery_span", "_recovery_goal",
        "on_receive", "auto_consume",
        "on_established", "on_close", "on_send_space", "fin_sent",
        "fin_received",
    )

    def __init__(self, stack: "TCPStack", local_port: int, remote_addr: str,
                 remote_port: int, passive: bool,
                 recv_buffer: int = DEFAULT_RECV_BUFFER) -> None:
        self.stack = stack
        self.host = stack.host
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.state = "LISTEN" if passive else "CLOSED"
        self.stats = TCPStats()
        # --- sender state ---
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0                    # highest sequence ever sent
        self.send_queue = 0                 # bytes the app queued, unsent
        self.cwnd = INITIAL_CWND_SEGMENTS * MSS
        self.ssthresh = 1 << 30
        self.peer_window = DEFAULT_RECV_BUFFER
        self.dupack_count = 0
        self._recovery_point = 0            # NewReno fast-recovery boundary
        self._in_fast_recovery = False
        #: segment end -> (sent_at, is_retransmit), ordered by end so an
        #: ACK prunes its acknowledged prefix from the front
        self._segment_times: Dict[int, Tuple[int, bool]] = {}
        self._ca_accumulator = 0            # RFC 3465 byte-counted CA credit
        # --- receiver state ---
        self.rcv_nxt = 0
        self._unacked_segments = 0
        self._delack_timer = None
        self.recv_buffer_capacity = recv_buffer
        self.recv_buffered = 0              # bytes awaiting the application
        self._ooo: list[Tuple[int, int]] = []   # out-of-order (start, end)
        self.bytes_delivered = 0
        # --- timers / RTT ---
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = SECOND
        self._rto_timer = None
        self._rto_backoff = 1
        # --- loss-recovery episode (open async span, or None) ---
        self._recovery_span = None
        self._recovery_goal = 0
        # --- app hooks ---
        self.on_receive: Optional[Callable[[int], None]] = None
        self.auto_consume = True
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_send_space: Optional[Callable[[], None]] = None
        self.fin_sent = False
        self.fin_received = False

    # ------------------------------------------------------------------ app API

    @property
    def established(self) -> bool:
        return self.state == "ESTABLISHED"

    @property
    def inflight(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return self.snd_nxt - self.snd_una

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes < 0:
            raise NetworkError("cannot send a negative byte count")
        if self.fin_sent:
            raise NetworkError("send after close")
        self.send_queue += nbytes
        self._pump()

    def consume(self, nbytes: int) -> None:
        """Application reads ``nbytes`` from the receive buffer.

        If the advertised window was closed, this sends a window update so
        the peer can resume (the counterpart of a zero-window probe).
        """
        if nbytes > self.recv_buffered:
            raise NetworkError("consuming more than is buffered")
        was_closed = self._advertised_window() == 0
        self.recv_buffered -= nbytes
        if was_closed and self._advertised_window() > 0:
            self._send_ack()

    def close(self) -> None:
        """Send FIN once all queued data has drained."""
        self.fin_sent = True
        self._pump()

    # ------------------------------------------------------------------ open

    def open(self) -> None:
        """Begin the active-open handshake."""
        if self.state != "CLOSED":
            raise NetworkError(f"open() in state {self.state}")
        self.state = "SYN_SENT"
        self._transmit(SYN, seq=0, length=0)
        self._arm_rto()

    # ------------------------------------------------------------------ sending

    def _advertised_window(self) -> int:
        return max(0, self.recv_buffer_capacity - self.recv_buffered)

    def _pump(self) -> None:
        """(Re)send as much data as the window permits.

        After an RTO collapses ``snd_nxt`` back to ``snd_una`` (go-back-N),
        the region ``[snd_nxt, snd_max)`` is retransmitted before any new
        data is taken from the application queue.

        The send window, the sequence bounds and the guest clock are read
        once: transmitting never delivers synchronously (links and pipes
        schedule every arrival), so no ACK can move them inside the loop.
        """
        if self.state != "ESTABLISHED":
            return
        snd_una, snd_nxt, snd_max = self.snd_una, self.snd_nxt, self.snd_max
        window = self.cwnd
        if self.peer_window < window:
            window = self.peer_window
        limit = snd_una + window
        # a receiver pumps on every data segment it takes in, mostly
        # with nothing to send: skip the clock read then
        if snd_nxt < limit and (snd_nxt < snd_max or self.send_queue > 0):
            now = self.host.timers.now()
            times = self._segment_times
            transmit = self._transmit
            while snd_nxt < limit:
                # A segment is either entirely a retransmission or entirely
                # new data — mixing the two would send the new bytes twice.
                is_retransmit = snd_nxt < snd_max
                length = snd_max - snd_nxt if is_retransmit \
                    else self.send_queue
                if length > MSS:
                    length = MSS
                if length > limit - snd_nxt:
                    length = limit - snd_nxt
                if length <= 0:
                    break
                transmit(ACK, snd_nxt, length, is_retransmit)
                if is_retransmit:
                    self.stats.retransmits += 1
                else:
                    self.send_queue -= length
                snd_nxt += length
                # no recorded end lies past the old snd_nxt: this insert
                # keeps the table ordered by end
                times[snd_nxt] = (now, is_retransmit)
                self.snd_nxt = snd_nxt
                if snd_nxt > snd_max:
                    self.snd_max = snd_max = snd_nxt
        if (self.fin_sent and self.send_queue == 0 and
                snd_nxt == snd_una and self.state == "ESTABLISHED"):
            self.state = "FIN_WAIT"
            self._transmit(FIN, seq=snd_nxt, length=0)
        if snd_nxt > snd_una and self._rto_timer is None:
            self._arm_rto()

    def _transmit(self, flags: str, seq: int, length: int,
                  is_retransmit: bool = False) -> None:
        window = self.recv_buffer_capacity - self.recv_buffered
        if window <= 0:                     # inlined _advertised_window
            window = 0
            self.stats.zero_window_advertisements += 1
        packet = Packet(
            src=self.host.name, dst=self.remote_addr, protocol="tcp",
            payload_bytes=length,
            headers={"sport": self.local_port, "dport": self.remote_port,
                     "flags": flags, "seq": seq, "ack": self.rcv_nxt,
                     "len": length, "win": window,
                     "retransmit": is_retransmit})
        self.stats.segments_sent += 1
        tracer = self.host.tracer
        if tracer is not None and tracer.enabled_for("tcp.tx"):
            # inline maybe_record: hot path; the cached category verdict
            # is checked before the kwargs dict is even built
            tracer.record("tcp.tx", conn=self._key(), seq=seq, length=length,
                          flags=flags, retransmit=is_retransmit)
        self.host.send(packet)

    def _send_ack(self, duplicate: bool = False) -> None:
        if duplicate:
            self.stats.dupacks_sent += 1
        self._unacked_segments = 0
        self._transmit(ACK, seq=self.snd_nxt, length=0)

    def _maybe_delay_ack(self) -> None:
        """Delayed ACKs: acknowledge every second in-order segment,
        backed by a timer so a lone trailing segment is still acked well
        before the sender's RTO."""
        self._unacked_segments += 1
        if self._unacked_segments >= DELACK_SEGMENTS:
            self._send_ack()
            return
        if self._delack_timer is None or self._delack_timer.fired or \
                self._delack_timer.cancelled:
            self._delack_timer = self.host.timers.call_in(
                DELACK_TIMEOUT_NS, self._on_delack_timer)

    def _on_delack_timer(self) -> None:
        if self._unacked_segments > 0:
            self._send_ack()

    # ------------------------------------------------------------------ timers

    def _arm_rto(self) -> None:
        delay = min(MAX_RTO_NS, self.rto * self._rto_backoff)
        if self._rto_timer is None:
            self._rto_timer = self.host.timers.call_in(delay, self._on_rto)
        else:
            self._rto_timer = self.host.timers.rearm(self._rto_timer, delay)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.state == "SYN_SENT":
            self._transmit(SYN, seq=0, length=0)
            self._rto_backoff *= 2
            self._arm_rto()
            return
        if self.inflight == 0:
            return
        # Timeout: go-back-N.  Collapse the window, rewind snd_nxt so the
        # whole unacknowledged region is retransmitted in slow start.
        self.stats.timeouts += 1
        self._begin_recovery_span("rto")
        self.ssthresh = max(2 * MSS, self.inflight // 2)
        self.cwnd = MSS
        self._rto_backoff *= 2
        self._in_fast_recovery = False
        self.snd_nxt = self.snd_una
        self._segment_times.clear()
        self._pump()
        self._arm_rto()

    def _begin_recovery_span(self, kind: str) -> None:
        """Open a loss-recovery episode span (async, per-host tcp track).

        An episode runs from the first loss signal (RTO fire or the
        dup-ack threshold) until the cumulative ack covers everything
        that was outstanding when it began.  Overlapping episodes on the
        same host (different connections) render stacked in the
        timeline.  No-op if an episode is already open for this
        connection or the ``tcp.recovery`` category is filtered out.
        """
        if self._recovery_span is not None:
            return
        tracer = self.host.tracer
        if tracer is None or not tracer.enabled_for("tcp.recovery"):
            return
        self._recovery_goal = self.snd_max
        self._recovery_span = tracer.async_span(
            "tcp.recovery", track=f"tcp/{self.host.name}", name=kind,
            conn=self._key(), kind=kind, snd_una=self.snd_una,
            goal=self.snd_max)

    def _retransmit_first(self) -> None:
        length = min(MSS, self.inflight)
        self.stats.retransmits += 1
        end = self.snd_una + length
        times = self._segment_times
        # The one insert that can break the end-ordering: an end that
        # falls inside an original segment (sub-MSS segments went out).
        reorder = end not in times and end < next(reversed(times), end)
        times[end] = (self.host.timers.now(), True)
        if reorder:
            self._segment_times = dict(sorted(times.items()))
        self._transmit(ACK, seq=self.snd_una, length=length,
                       is_retransmit=True)

    # ------------------------------------------------------------------ receive

    def handle(self, packet: Packet) -> None:
        """Process one inbound segment."""
        h = packet.headers
        flags = h["flags"]
        self.stats.segments_received += 1
        if flags == SYN and h.get("synack"):
            self._on_synack(h)
            return
        if flags == SYN:
            self._on_syn(h)
            return
        if flags == FIN:
            self._on_fin(h)
            return
        self._on_ack_field(h)
        if h["len"] > 0:
            self._on_data(h)

    def _on_syn(self, h: dict) -> None:
        if self.state == "ESTABLISHED":
            # Duplicate SYN: our SYN-ACK was lost; repeat it.
            self._repeat_synack(h)
            return
        if self.state not in ("LISTEN", "SYN_RCVD"):
            return
        self.state = "SYN_RCVD"
        self.peer_window = h["win"]
        packet = Packet(
            src=self.host.name, dst=self.remote_addr, protocol="tcp",
            payload_bytes=0,
            headers={"sport": self.local_port, "dport": self.remote_port,
                     "flags": SYN, "synack": True, "seq": 0, "ack": 0,
                     "len": 0, "win": self._advertised_window(),
                     "retransmit": False})
        self.host.send(packet)
        self.state = "ESTABLISHED"
        if self.on_established:
            self.on_established()

    def _repeat_synack(self, h: dict) -> None:
        packet = Packet(
            src=self.host.name, dst=self.remote_addr, protocol="tcp",
            payload_bytes=0,
            headers={"sport": self.local_port, "dport": self.remote_port,
                     "flags": SYN, "synack": True, "seq": 0, "ack": 0,
                     "len": 0, "win": self._advertised_window(),
                     "retransmit": True})
        self.host.send(packet)

    def _on_synack(self, h: dict) -> None:
        if self.state != "SYN_SENT":
            return
        self._cancel_rto()
        self._rto_backoff = 1
        self.peer_window = h["win"]
        self.state = "ESTABLISHED"
        if self.on_established:
            self.on_established()
        self._send_ack()
        self._pump()

    def _on_fin(self, h: dict) -> None:
        self.fin_received = True
        self._send_ack()
        if self.state == "FIN_WAIT":
            self.state = "CLOSED"
        else:
            self.state = "CLOSE_WAIT"
        if self.on_close:
            self.on_close()

    def _on_ack_field(self, h: dict) -> None:
        ack = h["ack"]
        self.peer_window = h["win"]
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.stats.bytes_acked += acked
            self.snd_una = ack
            if ack > self.snd_nxt:
                self.snd_nxt = ack
            self.dupack_count = 0
            self._rto_backoff = 1
            if self._recovery_span is not None and \
                    ack >= self._recovery_goal:
                self._recovery_span.end(outcome="recovered", acked=ack)
                self._recovery_span = None
            self._sample_rtt(ack)
            # _segment_times is ordered by end: drop the acknowledged
            # prefix, so an ACK costs what it acknowledges, not the window
            times = self._segment_times
            for end in list(itertools.takewhile(ack.__ge__, times)):
                del times[end]
            if self._in_fast_recovery:
                if ack >= self._recovery_point:
                    # Full recovery: deflate to ssthresh.
                    self._in_fast_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # NewReno partial ack: the next hole is lost too.
                    self._retransmit_first()
            else:
                self._grow_cwnd(acked)
            if self.inflight > 0:
                self._arm_rto()
            else:
                self._cancel_rto()
            self._pump()
            if self.on_send_space and self.send_queue == 0:
                self.on_send_space()
        elif ack == self.snd_una and self.inflight > 0 and h["len"] == 0 \
                and h["flags"] == ACK:
            self.dupack_count += 1
            self.stats.dupacks_received += 1
            if self.dupack_count == DUPACK_THRESHOLD and \
                    not self._in_fast_recovery:
                # Fast retransmit / fast recovery (Reno, NewReno exit rule).
                self.stats.fast_retransmits += 1
                self._begin_recovery_span("fast_retransmit")
                self.ssthresh = max(2 * MSS, self.inflight // 2)
                self.cwnd = self.ssthresh + DUPACK_THRESHOLD * MSS
                self._in_fast_recovery = True
                self._recovery_point = self.snd_max
                self._retransmit_first()
        else:
            # Pure window update (e.g. the peer's buffer reopened).
            self._pump()

    def _sample_rtt(self, ack: int) -> None:
        info = self._segment_times.get(ack)
        if info is None:
            return
        sent_at, was_retransmitted = info
        if was_retransmitted:
            return                        # Karn's rule
        rtt = self.host.timers.now() - sent_at
        if rtt < 0:
            return
        self.stats.rtt_samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt // 2
        else:
            self.rttvar = (3 * self.rttvar + abs(self.srtt - rtt)) // 4
            self.srtt = (7 * self.srtt + rtt) // 8
        self.rto = max(MIN_RTO_NS, self.srtt + 4 * self.rttvar)

    def _grow_cwnd(self, acked: int) -> None:
        if self.cwnd < self.ssthresh:
            # Slow start with appropriate byte counting (RFC 3465), so
            # delayed acks do not halve the growth rate.
            self.cwnd += min(acked, 2 * MSS)
        else:
            # Congestion avoidance, byte-counted.
            self._ca_accumulator += acked
            if self._ca_accumulator >= self.cwnd:
                self._ca_accumulator -= self.cwnd
                self.cwnd += MSS

    def _on_data(self, h: dict) -> None:
        seq, length = h["seq"], h["len"]
        end = seq + length
        if end <= self.rcv_nxt:
            # Old duplicate: re-ack.
            self._send_ack(duplicate=True)
            return
        if seq > self.rcv_nxt:
            # Hole: stash and send a duplicate ack.
            self._insert_ooo(seq, end)
            maybe_record(self.host.tracer, "tcp.ooo", conn=self._key(),
                         seq=seq, expected=self.rcv_nxt)
            self._send_ack(duplicate=True)
            return
        # In order (possibly overlapping).
        filled_gap = bool(self._ooo)
        delivered = end - self.rcv_nxt
        self.rcv_nxt = end
        if filled_gap:
            self._drain_ooo()
        self._deliver(delivered)
        if filled_gap:
            # RFC 5681: ack immediately when a segment fills a hole, so
            # the sender's recovery is not stalled by delayed acks.
            self._send_ack()
        else:
            self._maybe_delay_ack()

    def _insert_ooo(self, start: int, end: int) -> None:
        self._ooo.append((start, end))
        self._ooo.sort()
        merged: list[Tuple[int, int]] = []
        for s, e in self._ooo:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(e, merged[-1][1]))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _drain_ooo(self) -> None:
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            s, e = self._ooo.pop(0)
            if e > self.rcv_nxt:
                extra = e - self.rcv_nxt
                self.rcv_nxt = e
                self._deliver(extra)

    def _deliver(self, nbytes: int) -> None:
        self.bytes_delivered += nbytes
        tracer = self.host.tracer
        if tracer is not None and tracer.enabled_for("tcp.deliver"):
            # inline maybe_record: hot path, verdict checked pre-kwargs
            tracer.record("tcp.deliver", conn=self._key(), nbytes=nbytes,
                          total=self.bytes_delivered,
                          vtime=self.host.timers.now())
        if self.on_receive is not None:
            self.on_receive(nbytes)
        if not self.auto_consume:
            self.recv_buffered += nbytes

    # ------------------------------------------------------------- serialize

    def _timer_remaining(self, handle) -> Optional[int]:
        """Nanoseconds until an armed timer fires, if its deadline is
        knowable.

        Inside a guest the timer service is the kernel's virtual wheel,
        whose entries expose their virtual deadline; a bare
        :class:`~repro.sim.timers.SimTimerService` handle does not, in
        which case the caller falls back to a nominal re-arm."""
        if handle is None or handle.fired or handle.cancelled:
            return None
        deadline = getattr(handle._call, "vdeadline", None)
        if deadline is None:
            return None
        return max(0, deadline - self.host.timers.now())

    def serialize_state(self) -> dict:
        """The connection's protocol state as a JSON-serializable dict.

        Cannot serialize mid-recovery-episode (an open observability
        span has live references into the tracer); snapshot scenarios
        take checkpoints at quiescent instants, where no episode is
        open.  Timer deadlines are captured when the timer service
        exposes them (the guest wheel does); otherwise the restore
        re-arms at the nominal interval.
        """
        if self._recovery_span is not None:
            raise CheckpointError(
                f"{self!r}: cannot serialize during a loss-recovery "
                f"episode")
        s = self.stats
        return {
            "state": self.state, "local_port": self.local_port,
            "remote_addr": self.remote_addr,
            "remote_port": self.remote_port,
            "snd_una": self.snd_una, "snd_nxt": self.snd_nxt,
            "snd_max": self.snd_max, "send_queue": self.send_queue,
            "cwnd": self.cwnd, "ssthresh": self.ssthresh,
            "peer_window": self.peer_window,
            "dupack_count": self.dupack_count,
            "recovery_point": self._recovery_point,
            "in_fast_recovery": self._in_fast_recovery,
            "segment_times": [[end, sent_at, rexmit] for end,
                              (sent_at, rexmit) in
                              sorted(self._segment_times.items())],
            "ca_accumulator": self._ca_accumulator,
            "rcv_nxt": self.rcv_nxt,
            "unacked_segments": self._unacked_segments,
            "recv_buffer_capacity": self.recv_buffer_capacity,
            "recv_buffered": self.recv_buffered,
            "ooo": [[a, b] for a, b in self._ooo],
            "bytes_delivered": self.bytes_delivered,
            "srtt": self.srtt, "rttvar": self.rttvar, "rto": self.rto,
            "rto_backoff": self._rto_backoff,
            "recovery_goal": self._recovery_goal,
            "auto_consume": self.auto_consume,
            "fin_sent": self.fin_sent,
            "fin_received": self.fin_received,
            "timers": {"rto": self._timer_remaining(self._rto_timer),
                       "rto_armed": self._rto_timer is not None and not
                       self._rto_timer.fired and not
                       self._rto_timer.cancelled,
                       "delack": self._timer_remaining(self._delack_timer),
                       "delack_armed": self._delack_timer is not None
                       and not self._delack_timer.fired and not
                       self._delack_timer.cancelled},
            "stats": {"segments_sent": s.segments_sent,
                      "segments_received": s.segments_received,
                      "bytes_acked": s.bytes_acked,
                      "retransmits": s.retransmits,
                      "timeouts": s.timeouts,
                      "fast_retransmits": s.fast_retransmits,
                      "dupacks_received": s.dupacks_received,
                      "dupacks_sent": s.dupacks_sent,
                      "zero_window_advertisements":
                      s.zero_window_advertisements,
                      "rtt_samples": s.rtt_samples},
        }

    def restore_state(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload to this connection.

        The connection must address the same four-tuple.  Armed timers
        are re-created at their captured remaining delay when the
        snapshot recorded one, else at the nominal interval (RTO/delayed
        ack) — a documented approximation for non-wheel timer services.
        """
        expected = ("state", "local_port", "remote_addr", "remote_port",
                    "snd_una", "snd_nxt", "snd_max", "send_queue",
                    "cwnd", "ssthresh", "peer_window", "dupack_count",
                    "recovery_point", "in_fast_recovery",
                    "segment_times", "ca_accumulator", "rcv_nxt",
                    "unacked_segments", "recv_buffer_capacity",
                    "recv_buffered", "ooo", "bytes_delivered", "srtt",
                    "rttvar", "rto", "rto_backoff", "recovery_goal",
                    "auto_consume", "fin_sent", "fin_received",
                    "timers", "stats")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise CheckpointError(f"{self!r}: malformed payload")
        if (state["local_port"], state["remote_addr"],
                state["remote_port"]) != self._key():
            raise CheckpointError(
                f"{self!r}: payload addresses a different connection")
        self._cancel_rto()
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self.state = state["state"]
        self.snd_una = state["snd_una"]
        self.snd_nxt = state["snd_nxt"]
        self.snd_max = state["snd_max"]
        self.send_queue = state["send_queue"]
        self.cwnd = state["cwnd"]
        self.ssthresh = state["ssthresh"]
        self.peer_window = state["peer_window"]
        self.dupack_count = state["dupack_count"]
        self._recovery_point = state["recovery_point"]
        self._in_fast_recovery = state["in_fast_recovery"]
        self._segment_times = {end: (sent_at, rexmit) for
                               end, sent_at, rexmit in
                               sorted(state["segment_times"])}
        self._ca_accumulator = state["ca_accumulator"]
        self.rcv_nxt = state["rcv_nxt"]
        self._unacked_segments = state["unacked_segments"]
        self.recv_buffer_capacity = state["recv_buffer_capacity"]
        self.recv_buffered = state["recv_buffered"]
        self._ooo = [(a, b) for a, b in state["ooo"]]
        self.bytes_delivered = state["bytes_delivered"]
        self.srtt = state["srtt"]
        self.rttvar = state["rttvar"]
        self.rto = state["rto"]
        self._rto_backoff = state["rto_backoff"]
        self._recovery_goal = state["recovery_goal"]
        self.auto_consume = state["auto_consume"]
        self.fin_sent = state["fin_sent"]
        self.fin_received = state["fin_received"]
        self._recovery_span = None
        self.stats = TCPStats(**state["stats"])
        timers = state["timers"]
        if timers["rto_armed"]:
            delay = timers["rto"]
            if delay is None:
                delay = min(MAX_RTO_NS, self.rto * self._rto_backoff)
            self._rto_timer = self.host.timers.call_in(delay, self._on_rto)
        if timers["delack_armed"]:
            delay = timers["delack"]
            if delay is None:
                delay = DELACK_TIMEOUT_NS
            self._delack_timer = self.host.timers.call_in(
                delay, self._on_delack_timer)

    def _key(self) -> tuple:
        return (self.local_port, self.remote_addr, self.remote_port)

    def __repr__(self) -> str:
        return (f"<TCP {self.host.name}:{self.local_port} <-> "
                f"{self.remote_addr}:{self.remote_port} {self.state}>")


class TCPStack:
    """Per-host TCP: demux, listeners, and ephemeral ports."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.connections: Dict[tuple, TCPConnection] = {}
        self.listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._ephemeral = itertools.count(49152)
        host.register_protocol("tcp", self._demux)

    def listen(self, port: int,
               on_accept: Optional[Callable[[TCPConnection], None]] = None
               ) -> None:
        """Accept connections on ``port``."""
        if port in self.listeners:
            raise NetworkError(f"port {port} already listening")
        self.listeners[port] = on_accept or (lambda conn: None)

    def connect(self, remote_addr: str, remote_port: int,
                recv_buffer: int = DEFAULT_RECV_BUFFER) -> TCPConnection:
        """Open a connection; returns immediately (handshake is async)."""
        local_port = next(self._ephemeral)
        conn = TCPConnection(self, local_port, remote_addr, remote_port,
                             passive=False, recv_buffer=recv_buffer)
        self.connections[conn._key()] = conn
        conn.open()
        return conn

    def _demux(self, packet: Packet) -> None:
        h = packet.headers
        key = (h["dport"], packet.src, h["sport"])
        conn = self.connections.get(key)
        if conn is None:
            accept = self.listeners.get(h["dport"])
            if accept is None or h["flags"] != SYN:
                return                          # RST territory; drop
            conn = TCPConnection(self, h["dport"], packet.src, h["sport"],
                                 passive=True)
            self.connections[key] = conn
            accept(conn)
        conn.handle(packet)
