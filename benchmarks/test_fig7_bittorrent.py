"""Figure 7: a four-node BitTorrent swarm under periodic checkpoints.

Paper: one seeder and three clients on a 100 Mbps LAN download a 3 GB
file.  Checkpointing starts 70 s into the run (steady state), repeats
every 5 s for 100 s, then stops; the run continues another 100 s.  Each
client averages ~1 MB/s from the seeder; each checkpoint causes only a
small dip, and repeated checkpointing does not move the center line.

We run a time-scaled version of the same schedule (steady state arrives
well before 70 s here): checkpoints from t=20 s to t=50 s, run to t=80 s,
plus an identical no-checkpoint control run.  BitTorrent over drop-tail
queues retransmits as part of its normal congestion sawtooth, so the
transparency claim is *differential*: checkpointing adds no TCP damage
and does not move the throughput center line.
"""

import pytest

from repro.analysis import ExperimentReport, mean
from repro.units import SECOND

from repro.testbed.compile import compile_scenario, load_named

from harness import emit_report

WARMUP_S = 20
CKPT_WINDOW_S = 30
TAIL_S = 30
NUM_CKPTS = 6
TOTAL_S = WARMUP_S + CKPT_WINDOW_S + TAIL_S


def run_swarm(with_checkpoints):
    overrides = {"nodes[0].memory_mb": 256, "run.seconds": TOTAL_S,
                 "checkpoints.count": NUM_CKPTS,
                 "checkpoints.start_ms": WARMUP_S * 1000}
    if not with_checkpoints:
        overrides["checkpoints.mode"] = "none"
    run = compile_scenario(load_named("fig7_bittorrent", overrides)).run()
    (_kind, swarm), = run.workloads
    return swarm, run.checkpoints, run.swap_in_ns


def total_retransmits(swarm):
    return sum(c.stats.retransmits
               for peer in swarm.peers
               for c in peer.kernel.tcp.connections.values())


def run_figure():
    control_swarm, _none, _s0 = run_swarm(with_checkpoints=False)
    swarm, checkpoints, start = run_swarm(with_checkpoints=True)
    return control_swarm, swarm, checkpoints, start


def test_fig7_bittorrent(benchmark):
    control, swarm, checkpoints, start = benchmark.pedantic(
        run_figure, rounds=1, iterations=1)
    assert len(checkpoints) == NUM_CKPTS
    series = swarm.seeder_throughput_series(bucket_ns=1 * SECOND)
    ckpt_start_v = (WARMUP_S - 2) * SECOND
    ckpt_end_v = (WARMUP_S + CKPT_WINDOW_S + 5) * SECOND

    client_means = {}
    center_during = {}
    center_outside = {}
    for client, samples in series.items():
        steady = [(t - start, v) for t, v in samples
                  if t - start > 10 * SECOND]
        client_means[client] = mean([v for _t, v in steady])
        during = [v for t, v in steady if ckpt_start_v < t < ckpt_end_v]
        outside = [v for t, v in steady if t >= ckpt_end_v]
        center_during[client] = sorted(during)[len(during) // 2]
        center_outside[client] = sorted(outside)[len(outside) // 2]

    retx = total_retransmits(swarm)
    retx_control = total_retransmits(control)

    report = ExperimentReport("Figure 7 — 4-node BitTorrent under "
                              "checkpoints (window mid-run)")
    for client in sorted(series):
        report.add(f"{client} mean seeder throughput", "~1 MB/s",
                   f"{client_means[client]:.2f} MB/s")
        report.add(f"{client} center line ckpt-window vs after",
                   "unchanged",
                   f"{center_during[client]:.2f} vs "
                   f"{center_outside[client]:.2f} MB/s")
    report.add("TCP retransmits vs no-ckpt control", "no extra damage",
               f"{retx} vs {retx_control}")
    report.add("packets captured in the network core", "(delay nodes)",
               str(sum(r.core_packets_captured for r in checkpoints)))
    report.add("suspend skew (worst)", "~ clock sync error",
               f"{max(r.suspend_skew_ns for r in checkpoints) / 1000:.0f} us")
    emit_report(report, "fig7.txt")
    import os
    from repro.analysis import timeseries_chart
    from harness import RESULTS_DIR
    client0 = sorted(series)[0]
    chart = timeseries_chart(
        [((t - start) / 1e9, v) for t, v in series[client0]],
        title=f"seeder -> {client0} throughput (1 s buckets)", unit="MB/s",
        marks=[WARMUP_S + 5 * i for i in range(NUM_CKPTS)])
    print(chart)
    with open(os.path.join(RESULTS_DIR, "fig7.txt"), "a") as fh:
        fh.write("\n" + chart + "\n")

    # Shape assertions:
    # 1. Every client pulls steadily from the seeder, near 1 MB/s.
    for client, avg in client_means.items():
        assert 0.4 < avg < 3.0, f"{client}: {avg} MB/s"
    # 2. Repeated checkpointing does not move the center line.
    for client in series:
        assert center_during[client] == pytest.approx(
            center_outside[client], rel=0.25)
    # 3. Checkpoints add no TCP damage beyond the swarm's normal
    #    congestion behaviour.
    assert retx <= 1.15 * retx_control + 50
    # 4. The delay nodes captured the LAN's in-flight packets.
    assert sum(r.core_packets_captured for r in checkpoints) > 0
