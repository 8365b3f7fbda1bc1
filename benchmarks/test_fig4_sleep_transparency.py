"""Figure 4: periodic checkpointing of a 10 ms-sleep microbenchmark.

Paper: iterations measure 20 ms; during normal execution 97% of
iterations are accurate to within 28 µs; a checkpoint briefly increases
the measurement error to ~80 µs.  Checkpoints every 5 seconds.
"""

import pytest

from repro.analysis import ExperimentReport, fmt_us, percentile
from repro.units import MS, US

from repro.testbed.compile import compile_scenario, load_named

from harness import emit_report

ITERATIONS = 6000            # as in the paper's Figure 4 x-axis
TARGET_NS = 20 * MS


def run_figure():
    run = compile_scenario(load_named("fig4_sleep", {
        "nodes[0].memory_mb": 256, "workloads[0].iterations": ITERATIONS,
        "checkpoints.period_ms": 5000, "checkpoints.count": 23})).run()
    (_kind, bench), = run.workloads
    return bench.result, run.checkpoints, run.experiment.kernel("node0")


def test_fig4_sleep_transparency(benchmark):
    result, checkpoints, kernel = benchmark.pedantic(run_figure, rounds=1,
                                                     iterations=1)
    assert len(result.iteration_ns) == ITERATIONS
    assert len(checkpoints) == 23

    deviations = [abs(t - TARGET_NS) for t in result.iteration_ns]
    frac_28us = result.within(TARGET_NS, 28 * US)
    worst = max(deviations)
    p999 = percentile(deviations, 99.9)

    report = ExperimentReport("Figure 4 — usleep(10 ms) loop under "
                              "checkpoints every 5 s")
    report.add("iteration time", "20 ms",
               f"{result.iteration_ns[100] / 1e6:.2f} ms")
    report.add("iterations within 28 us", ">= 97%", f"{frac_28us * 100:.1f}%")
    report.add("worst-case error (at a checkpoint)", "~80 us", fmt_us(worst))
    report.add("99.9th pct error", "<= ~80 us", fmt_us(p999))
    report.add("checkpoints concealed", "23", str(kernel.vclock.freezes))
    emit_report(report, "fig4.txt")

    # Shape assertions (the paper's transparency claims):
    # 1. The loop still measures ~20 ms everywhere.
    assert all(TARGET_NS - 1 * MS < t < TARGET_NS + 1 * MS
               for t in result.iteration_ns)
    # 2. Baseline accuracy: the overwhelming majority within 28 us.
    assert frac_28us >= 0.97
    # 3. Checkpoints cost only tens of microseconds of measured error —
    #    two orders of magnitude below the concealed downtime.
    assert worst < 200 * US
    downtime = checkpoints[0].downtime_ns
    assert downtime > 5 * MS
    assert worst < downtime / 10
    # 4. Every checkpoint was concealed by the virtual clock.
    assert kernel.vclock.total_hidden_ns == pytest.approx(
        sum(c.downtime_ns for c in checkpoints), rel=0.01)
