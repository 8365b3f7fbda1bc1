"""Event-core microbenchmarks on the one scheduler path.

Run with ``pytest benchmarks/perf/ --benchmark-only -s`` for interactive
pytest-benchmark tables, or ``python -m repro bench`` for the
machine-readable ``BENCH_sim_core.json`` artifact (which also gates every
scenario on its stored golden digest).  Scenarios live in
:mod:`repro.bench`.
"""

from repro.bench.scenarios import (run_calibrator, run_event_churn,
                                   run_fig6, run_fig7, run_timer_storm)
from repro.sim import Simulator


def test_event_churn(benchmark):
    fired = benchmark.pedantic(
        lambda: run_event_churn(Simulator(), events=50_000),
        rounds=3, iterations=1)
    assert fired == 50_000


def test_calibrator(benchmark):
    # The host-speed yardstick event_churn's bench gate is divided by.
    fired = benchmark.pedantic(lambda: run_calibrator(events=50_000),
                               rounds=3, iterations=1)
    assert fired == 50_000


def test_timer_cancel_rearm_storm(benchmark):
    armed, fired = benchmark.pedantic(
        lambda: run_timer_storm(Simulator(), rounds=100),
        rounds=3, iterations=1)
    assert armed == 100 * 250
    assert fired == 100          # one survivor per round


def test_fig6_iperf_wall_clock(benchmark):
    digest = benchmark.pedantic(
        lambda: run_fig6(Simulator(), run_seconds=6, num_ckpts=1),
        rounds=1, iterations=1)
    assert digest            # non-empty hex digest; the golden is gated in
    #                          tests/test_golden_digests.py


def test_fig7_bittorrent_wall_clock(benchmark):
    digest = benchmark.pedantic(
        lambda: run_fig7(Simulator(), run_seconds=8, num_ckpts=1),
        rounds=1, iterations=1)
    assert digest
