"""Figure 6: iperf over a 1 Gbps link under coordinated checkpoints.

Paper: a 25-second TCP stream checkpointed every 5 seconds.  Throughput
(20 ms averages) shows only a slight dip after each checkpoint.  The
first four checkpoints cause inter-packet arrival delays of 5801, 816,
399, and 330 µs (vs. an 18 µs average) — the delays shrink as NTP
converges, because the suspend skew *is* the clock-sync error.  The trace
shows **no retransmissions, no duplicate acknowledgements, and no window
changes**.

Note on direction: the inter-packet delay is visible at the receiver when
the *sender* suspends first (the stream falls silent while the receiver's
clock still runs).  ntpd starts at node boot, so the sign of the residual
clock offset between the two nodes is fixed for the whole run; we stream
from the node that suspends first, as the paper's trace implies.
"""

import pytest

from repro.analysis import ExperimentReport, fmt_us
from repro.units import MS, SECOND, US

from repro.testbed.compile import compile_scenario, load_named

from harness import emit_report

RUN_SECONDS = 25
NUM_CKPTS = 4
PAPER_GAPS_US = ("5801", "816", "399", "330")


def run_figure():
    # With this seed node1's clock leads: it suspends first, so it sends.
    run = compile_scenario(load_named("fig6_iperf", {
        "nodes[0].memory_mb": 256, "nodes[1].memory_mb": 256,
        "checkpoints.period_ms": 5000, "checkpoints.count": NUM_CKPTS,
        "checkpoints.start_ms": 5000, "run.seconds": RUN_SECONDS})).run()
    (_kind, session), = run.workloads
    return session, run.checkpoints, run.experiment.kernel("node0")


def gap_at_checkpoint(trace, receiver, checkpoints, index) -> int:
    """Largest receiver-side inter-arrival gap around checkpoint ``index``.

    Arrival timestamps are in receiver virtual time; the suspend instant
    is known in true time, so shift it by the downtime concealed before
    that checkpoint.
    """
    result = checkpoints[index].node_results[receiver.name]
    concealed_before = sum(
        c.node_results[receiver.name].downtime_ns for c in checkpoints[:index])
    v_suspend = result.clock_frozen_at_ns - concealed_before
    window = 1 * SECOND
    return trace.max_gap_in_window(v_suspend - window, v_suspend + window)


def test_fig6_iperf_transparency(benchmark):
    session, checkpoints, receiver = benchmark.pedantic(run_figure, rounds=1,
                                                        iterations=1)
    assert len(checkpoints) == NUM_CKPTS
    trace = session.trace
    mean_gap = trace.mean_gap_ns()
    gaps = [gap_at_checkpoint(trace, receiver, checkpoints, i)
            for i in range(NUM_CKPTS)]

    sender_stats = session.sender_stats()
    receiver_stats = session.receiver_stats()
    throughput = [v for _t, v in trace.throughput_series(20 * MS)]
    mean_mbps = sum(throughput) / len(throughput)

    report = ExperimentReport("Figure 6 — iperf on 1 Gbps under "
                              "checkpoints every 5 s")
    report.add("mean throughput (20 ms buckets)", "~55 MB/s",
               f"{mean_mbps:.1f} MB/s")
    report.add("mean inter-packet gap", "18 us", fmt_us(mean_gap))
    for i, g in enumerate(gaps):
        report.add(f"gap across checkpoint {i + 1}",
                   f"{PAPER_GAPS_US[i]} us", fmt_us(g))
    report.add("TCP retransmissions", "0", str(sender_stats.retransmits))
    report.add("duplicate ACKs", "0",
               str(sender_stats.dupacks_received +
                   receiver_stats.dupacks_sent))
    report.add("zero-window advertisements", "0",
               str(sender_stats.zero_window_advertisements +
                   receiver_stats.zero_window_advertisements))
    report.add("suspend skew per checkpoint", "(= clock sync error)",
               " / ".join(fmt_us(c.suspend_skew_ns) for c in checkpoints))
    from repro.analysis import timeseries_chart
    series = [(t / 1e9, v) for t, v in trace.throughput_series(100 * MS)]
    concealed = 0
    marks = []
    for c in checkpoints:
        r = c.node_results[receiver.name]
        marks.append((r.clock_frozen_at_ns - concealed) / 1e9)
        concealed += r.downtime_ns
    report.note_chart = timeseries_chart(
        series, title="receiver throughput (100 ms buckets, virtual time)",
        unit="MB/s", marks=marks)
    print(report.note_chart)
    emit_report(report, "fig6.txt")
    import os
    from harness import RESULTS_DIR
    with open(os.path.join(RESULTS_DIR, "fig6.txt"), "a") as fh:
        fh.write("\n" + report.note_chart + "\n")

    # Shape assertions:
    # 1. Throughput is steady at the paravirtual NIC rate.
    assert 40 < mean_mbps < 70
    # 2. The trace is clean across all checkpoints.
    assert sender_stats.retransmits == 0
    assert sender_stats.timeouts == 0
    assert sender_stats.dupacks_received == 0
    assert receiver_stats.dupacks_sent == 0
    assert sender_stats.zero_window_advertisements == 0
    # 3. Gaps at checkpoints: well above the steady-state inter-packet
    #    time, far below the concealed downtime.
    for gap in gaps:
        assert gap > 3 * mean_gap
        assert gap < checkpoints[0].node_results[receiver.name].downtime_ns
    # 4. The first checkpoint (ntpd still converging) dominates.
    assert gaps[0] > 3 * max(gaps[1:])
    # 5. Suspend skew shrinks as NTP converges, and the observed gaps
    #    track the skews.
    assert checkpoints[-1].suspend_skew_ns < checkpoints[0].suspend_skew_ns
    for gap, ckpt in zip(gaps, checkpoints):
        assert gap == pytest.approx(ckpt.suspend_skew_ns, rel=1.0, abs=500 * US)
