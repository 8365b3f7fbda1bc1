"""Unit tests for the TCP implementation."""

import json
import random

import pytest

from repro.guest.timer import VirtualTimerWheel, _Guard
from repro.guest.vclock import VirtualClock
from repro.net import (Host, Interface, Link, LinkShape, MSS, Packet,
                       TCPStack, install_shaped_link)
from repro.net.tcp import TCPConnection
from repro.sim import Simulator
from repro.units import GBPS, MB, MBPS, MS, SECOND, US


def direct_pair(sim, bandwidth=GBPS, propagation=10 * US,
                timers=(None, None)):
    """Two hosts joined by a plain link."""
    ha, hb = Host(sim, "A", timers[0]), Host(sim, "B", timers[1])
    ia, ib = Interface(sim, "A.0", "A"), Interface(sim, "B.0", "B")
    ha.add_interface(ia)
    hb.add_interface(ib)
    Link(sim, ia, ib, bandwidth, propagation)
    ha.add_route("B", ia)
    hb.add_route("A", ib)
    return ha, hb


def shaped_pair(sim, shape, seed=1):
    ha, hb = Host(sim, "A"), Host(sim, "B")
    node = install_shaped_link(sim, ha, hb, shape, rng=random.Random(seed))
    return ha, hb, node


def connect(sim, ha, hb, port=5001):
    sa, sb = TCPStack(ha), TCPStack(hb)
    accepted = []
    sb.listen(port, accepted.append)
    conn = sa.connect("B", port)
    sim.run(until=sim.now + 500 * MS)
    assert conn.established
    assert accepted and accepted[0].established
    return conn, accepted[0]


def test_handshake_establishes_both_ends():
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    assert client.state == "ESTABLISHED"
    assert server.state == "ESTABLISHED"


def test_data_transfer_delivers_every_byte():
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    client.send(1 * MB)
    sim.run(until=sim.now + 2 * SECOND)
    assert server.bytes_delivered == 1 * MB
    assert client.snd_una == 1 * MB
    assert client.stats.retransmits == 0


def test_transfer_respects_link_bandwidth():
    sim = Simulator()
    ha, hb, _ = shaped_pair(sim, LinkShape(bandwidth_bps=10 * MBPS))
    client, server = connect(sim, ha, hb)
    start = sim.now
    client.send(1 * MB)
    while server.bytes_delivered < 1 * MB:
        sim.run(until=sim.now + 100 * MS)
        if sim.now > 60 * SECOND:
            pytest.fail("transfer stalled")
    elapsed_s = (sim.now - start) / 1e9
    goodput_bps = 8 * MB / elapsed_s
    # Goodput close to, and not exceeding, the shaped rate.
    assert goodput_bps < 10 * MBPS
    assert goodput_bps > 0.7 * 10 * MBPS


def test_loss_triggers_retransmission_and_recovery():
    sim = Simulator()
    ha, hb, _ = shaped_pair(
        sim, LinkShape(bandwidth_bps=50 * MBPS, loss_probability=0.02))
    client, server = connect(sim, ha, hb)
    client.send(2 * MB)
    sim.run(until=sim.now + 30 * SECOND)
    assert server.bytes_delivered == 2 * MB          # reliable despite loss
    assert client.stats.retransmits > 0


def test_queue_overflow_causes_reno_sawtooth_not_stall():
    sim = Simulator()
    ha, hb, _ = shaped_pair(
        sim, LinkShape(bandwidth_bps=20 * MBPS, delay_ns=5 * MS,
                       queue_slots=20))
    client, server = connect(sim, ha, hb)
    client.send(4 * MB)
    sim.run(until=sim.now + 30 * SECOND)
    assert server.bytes_delivered == 4 * MB
    # Window outgrew the queue at some point: fast retransmits happened.
    assert client.stats.fast_retransmits + client.stats.timeouts > 0


def test_rtt_estimation_tracks_path_delay():
    sim = Simulator()
    ha, hb, _ = shaped_pair(
        sim, LinkShape(bandwidth_bps=100 * MBPS, delay_ns=20 * MS))
    client, server = connect(sim, ha, hb)
    client.send(256 * 1024)
    sim.run(until=sim.now + 5 * SECOND)
    assert client.stats.rtt_samples > 0
    assert client.srtt >= 40 * MS            # >= two one-way delays


def test_receiver_window_limits_inflight():
    sim = Simulator()
    ha, hb = direct_pair(sim)
    sa, sb = TCPStack(ha), TCPStack(hb)
    server_conns = []
    sb.listen(5001, server_conns.append)
    client = sa.connect("B", 5001)
    sim.run(until=sim.now + 10 * MS)
    server = server_conns[0]
    server.auto_consume = False              # application stops reading
    client.send(4 * MB)
    sim.run(until=sim.now + 5 * SECOND)
    # Only about one receive buffer's worth can be delivered.
    assert server.recv_buffered <= server.recv_buffer_capacity
    assert server.bytes_delivered <= server.recv_buffer_capacity + 64 * 1024
    # Application drains; the transfer proceeds.
    server.consume(server.recv_buffered)
    server.auto_consume = True
    sim.run(until=sim.now + 20 * SECOND)
    assert server.bytes_delivered == 4 * MB


def test_close_sends_fin_and_peer_notices():
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    closed = []
    server.on_close = lambda: closed.append(True)
    client.send(10_000)
    client.close()
    sim.run(until=sim.now + 1 * SECOND)
    assert server.bytes_delivered == 10_000
    assert closed == [True]
    assert client.state in ("FIN_WAIT", "CLOSED")


def test_send_after_close_rejected():
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, _server = connect(sim, ha, hb)
    client.close()
    from repro.errors import NetworkError
    with pytest.raises(NetworkError):
        client.send(100)


def test_syn_retransmitted_when_lost():
    sim = Simulator()
    # 30% loss: the first SYN may die; connection must still form.
    ha, hb, _ = shaped_pair(
        sim, LinkShape(bandwidth_bps=100 * MBPS, loss_probability=0.3),
        seed=7)
    sa, sb = TCPStack(ha), TCPStack(hb)
    sb.listen(5001)
    conn = sa.connect("B", 5001)
    sim.run(until=sim.now + 60 * SECOND)
    assert conn.established


def test_out_of_order_delivery_generates_dupacks_and_recovers():
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    # Hand-deliver segments out of order, bypassing the wire.
    base = {"sport": client.local_port, "dport": 5001, "flags": "ACK",
            "win": 1 << 20, "retransmit": False}
    def seg(seq, length):
        return Packet("A", "B", "tcp", length,
                      headers={**base, "seq": seq, "ack": 0, "len": length})
    server.handle(seg(MSS, MSS))            # hole at [0, MSS)
    assert server.stats.dupacks_sent == 1
    assert server.bytes_delivered == 0
    server.handle(seg(0, MSS))              # hole filled
    assert server.bytes_delivered == 2 * MSS
    assert server.rcv_nxt == 2 * MSS


# --------------------------------------------------------------- ACK path

class SegmentTimesModel:
    """A reference model of the sender's segment-timestamp table.

    Every data segment sent records ``end -> (sent_at, is_retransmit)``;
    an ACK of new data keeps exactly the entries ending above it
    (``{e: v for e, v in before.items() if e > ack}``); an RTO that
    goes back N forgets them all.  After every processed ACK (and RTO)
    the connection's table must equal the model, keys and values.
    """

    def __init__(self, monkeypatch):
        self.tables = {}
        self.acks_checked = 0
        on_ack = TCPConnection._on_ack_field
        transmit = TCPConnection._transmit
        on_rto = TCPConnection._on_rto
        model = self

        def _on_ack_field(conn, h):
            table = model.tables.setdefault(conn, {})
            ack = h["ack"]
            if ack > conn.snd_una:
                # the prune comes before any (re)transmission of this ACK
                model.tables[conn] = {e: v for e, v in table.items()
                                      if e > ack}
            on_ack(conn, h)
            model.check(conn)
            model.acks_checked += 1

        def _transmit(conn, flags, seq, length, is_retransmit=False):
            transmit(conn, flags, seq, length, is_retransmit)
            if length > 0:
                model.tables.setdefault(conn, {})[seq + length] = (
                    conn.host.timers.now(), is_retransmit)

        def _on_rto(conn):
            if conn.state != "SYN_SENT" and conn.inflight > 0:
                model.tables[conn] = {}
            on_rto(conn)
            model.check(conn)

        monkeypatch.setattr(TCPConnection, "_on_ack_field", _on_ack_field)
        monkeypatch.setattr(TCPConnection, "_transmit", _transmit)
        monkeypatch.setattr(TCPConnection, "_on_rto", _on_rto)

    def check(self, conn):
        assert conn._segment_times == self.tables.get(conn, {})

    def restored(self, conn, state):
        """``conn`` was restored from ``state``: the model restarts there."""
        self.tables[conn] = {end: (sent_at, rexmit)
                             for end, sent_at, rexmit in state["segment_times"]}
        self.check(conn)


def ack_from_peer(conn, ack, win):
    """A pure ACK as ``conn``'s peer would send it."""
    return Packet(conn.remote_addr, conn.host.name, "tcp", 0, headers={
        "sport": conn.remote_port, "dport": conn.local_port,
        "flags": "ACK", "seq": 0, "ack": ack, "len": 0, "win": win,
        "retransmit": False})


def test_ack_path_matches_reference_model_in_slow_start(monkeypatch):
    model = SegmentTimesModel(monkeypatch)
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    client.send(1 * MB)
    sim.run(until=sim.now + 2 * SECOND)
    assert server.bytes_delivered == 1 * MB
    assert client.cwnd < client.ssthresh           # never left slow start
    assert model.acks_checked > 300
    assert client._segment_times == {}


def test_ack_path_matches_reference_model_across_partial_acks(monkeypatch):
    # A receive window of 5000 bytes cuts the stream into segments that
    # are not MSS-aligned, so the NewReno partial ACK's retransmission
    # [4344, 5792) spans the original segments ending at 5000 and 6448:
    # its end is recorded below ends already in the table.
    model = SegmentTimesModel(monkeypatch)
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, _server = connect(sim, ha, hb)
    win = 5000
    checked = model.acks_checked
    # The sim is not run again: every ACK below is hand-delivered.
    client.handle(ack_from_peer(client, 0, win))
    client.send(100_000)
    assert sorted(client._segment_times) == [1448, 2896, 4344, 5000]
    client.handle(ack_from_peer(client, 2896, win))
    assert sorted(client._segment_times) == [4344, 5000, 6448, 7896]
    for _ in range(3):
        client.handle(ack_from_peer(client, 2896, win))
    assert client.stats.fast_retransmits == 1
    client.handle(ack_from_peer(client, 4344, win))        # partial ACK
    assert client._in_fast_recovery
    assert client._segment_times[5792][1] is True
    assert sorted(client._segment_times) == [5000, 5792, 6448, 7896, 9344]
    client.handle(ack_from_peer(client, 6448, win))        # partial ACK
    assert sorted(client._segment_times) == [7896, 9344, 10792, 11448]
    client.handle(ack_from_peer(client, 9344, win))        # full recovery
    assert not client._in_fast_recovery
    assert min(client._segment_times) > 9344
    assert model.acks_checked - checked == 8


def test_ack_path_matches_reference_model_after_rto_go_back_n(monkeypatch):
    model = SegmentTimesModel(monkeypatch)
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    client.send(2 * MB)
    sim.run(until=sim.now + 5 * MS)
    # The receiver's NIC holds every arrival for 3 s: no ACK comes back,
    # the RTO fires and goes back N; the thaw then replays the ring.
    nic = hb.interfaces["B.0"]
    nic.freeze()
    sim.run(until=sim.now + 3 * SECOND)
    assert client.stats.timeouts >= 1
    nic.thaw()
    sim.run(until=sim.now + 10 * SECOND)
    assert server.bytes_delivered == 2 * MB
    assert client.stats.retransmits > 0
    assert model.acks_checked > 300


def test_ack_path_matches_reference_model_across_restore(monkeypatch):
    model = SegmentTimesModel(monkeypatch)
    sim = Simulator()
    ha, hb = direct_pair(sim)
    client, server = connect(sim, ha, hb)
    client.send(1 * MB)
    sim.run(until=sim.now + 3 * MS)
    assert 0 < client.inflight
    state = json.loads(json.dumps(client.serialize_state()))
    assert state["segment_times"]
    client.restore_state(state)
    model.restored(client, state)
    sim.run(until=sim.now + 2 * SECOND)
    assert server.bytes_delivered == 1 * MB
    assert client._segment_times == {}


# RTT samples above the 200 ms floor: (cumulative ack, ms after the first
# send).  The first two ack segments sent at the start, the third one
# sent when the first ACK opened the window, 300 ms earlier.
RTT_SAMPLES = ((1448, 300), (2896, 500), (15928, 600))


def stalled_stream(sim, timers=(None, None)):
    """A client whose ten-segment initial window went out at ``t0`` and
    whose peer's NIC holds every arrival, so ACKs come only by hand."""
    ha, hb = direct_pair(sim, timers=timers)
    client, _server = connect(sim, ha, hb)
    hb.interfaces["B.0"].freeze()
    t0 = sim.now
    client.send(1 * MB)
    return client, t0


def test_rto_estimator_is_exact_above_the_floor():
    sim = Simulator()
    client, t0 = stalled_stream(sim)
    seen = []
    for ack, at_ms in RTT_SAMPLES:
        sim.run(until=t0 + at_ms * MS)
        client.handle(ack_from_peer(client, ack, 1 * MB))
        seen.append((client.srtt, client.rttvar, client.rto))
    assert client.stats.rtt_samples == 3
    # srtt' = (7 srtt + rtt) / 8, rttvar' = (3 rttvar + |srtt - rtt|) / 4,
    # rto = srtt + 4 rttvar, over rtts of 300, 500 and 300 ms
    assert seen == [(300 * MS, 150 * MS, 900 * MS),
                    (325 * MS, 162_500 * US, 975 * MS),
                    (321_875 * US, 128_125 * US, 834_375 * US)]


def eager_rearm(wheel, handle, delay_ns):
    """The reference ``rearm``: cancel, then arm the callback again."""
    fn, tag = handle._fn, handle._call.tag
    handle.cancel()
    return wheel.call_in(delay_ns, fn, tag=tag)


def test_rto_remaining_reads_the_same_after_deferred_and_eager_rearm():
    readings = {}
    deferred = []
    for lazy in (True, False):
        sim = Simulator()
        wheels = [VirtualTimerWheel(sim, VirtualClock(sim),
                                    random.Random(7), name=name)
                  for name in "AB"]
        if not lazy:
            for wheel in wheels:
                wheel.rearm = (lambda handle, delay, wheel=wheel:
                               eager_rearm(wheel, handle, delay))
        client, t0 = stalled_stream(sim, timers=wheels)
        readings[lazy] = []
        for ack, at_ms in RTT_SAMPLES:
            sim.run(until=t0 + at_ms * MS)
            client.handle(ack_from_peer(client, ack, 1 * MB))
            timer = client._rto_timer
            remaining = client._timer_remaining(timer)
            assert remaining == client.rto      # armed just now, backoff 1
            assert client.serialize_state()["timers"]["rto"] == remaining
            readings[lazy].append(remaining)
            if lazy:
                call = wheels[0]._due_calls[timer._call.fire_at]
                deferred.append(call.fn.__class__ is _Guard)
    assert readings[True] == readings[False]
    # every re-arm lands past the first arm's instant (t0 + 1 s), whose
    # store entry stays as the guard
    assert deferred == [True, True, True]
