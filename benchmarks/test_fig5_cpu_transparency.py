"""Figure 5: periodic checkpointing of a CPU-intensive loop.

Paper: uncheckpointed iterations take 236.6 ms (90% within 9 ms);
with checkpoints every 5 s the temporal firewall keeps CPU-time
allocation within 27 ms of the expected value — the excess being
residual dom0 checkpoint activity, not leaked downtime.
"""

import pytest

from repro.analysis import ExperimentReport, fmt_ms, fraction_within
from repro.units import MS

from repro.testbed.compile import compile_scenario, load_named

from harness import emit_report

WORK_NS = 236_600_000
ITERATIONS = 600


def run_figure():
    # Baseline: no checkpoints.
    base = compile_scenario(load_named("fig5_cpuburn", {
        "scenario.seed": 51, "nodes[0].memory_mb": 256,
        "workloads[0].iterations": 60, "checkpoints.mode": "none"})).run()
    # Checkpointed run.
    ckpted = compile_scenario(load_named("fig5_cpuburn", {
        "nodes[0].memory_mb": 256, "workloads[0].iterations": ITERATIONS,
        "checkpoints.period_ms": 5000, "checkpoints.count": 27,
        "checkpoints.start_ms": 2000})).run()
    (_kind, base_bench), = base.workloads
    (_kind, bench), = ckpted.workloads
    return base_bench.result, bench.result, ckpted.checkpoints


def test_fig5_cpu_transparency(benchmark):
    base, ckpted, checkpoints = benchmark.pedantic(run_figure, rounds=1,
                                                   iterations=1)
    assert len(ckpted.iteration_ns) == ITERATIONS
    assert len(checkpoints) == 27

    baseline = base.baseline_ns()
    worst_excess = ckpted.max_excess_ns()
    frac_9ms = fraction_within(ckpted.iteration_ns, baseline, 9 * MS)

    report = ExperimentReport("Figure 5 — CPU-intensive loop under "
                              "checkpoints every 5 s")
    report.add("baseline iteration", "236.6 ms", fmt_ms(baseline))
    report.add("worst-case excess at checkpoints", "<= 27 ms",
               fmt_ms(worst_excess))
    report.add("iterations within 9 ms of baseline", "~90%",
               f"{frac_9ms * 100:.1f}%")
    report.add("concealed downtime per checkpoint", "(hidden)",
               fmt_ms(checkpoints[0].downtime_ns))
    emit_report(report, "fig5.txt")

    # Shape assertions:
    # 1. The uncheckpointed loop runs at the nominal work time.
    assert baseline == pytest.approx(WORK_NS, rel=0.01)
    # 2. Checkpoints perturb some iterations (dom0 pre-copy contention)...
    assert worst_excess > 5 * MS
    # 3. ...but within the paper's bound, and far below the downtime that
    #    a non-transparent suspend would leak.
    assert worst_excess <= 35 * MS
    # 4. Most iterations are unperturbed.
    assert frac_9ms >= 0.80
