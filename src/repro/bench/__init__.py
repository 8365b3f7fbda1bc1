"""Performance benchmarks for the event-core hot path.

``repro bench`` times two synthetic kernel microbenchmarks, a saturated
Dummynet pipe, the paper-figure rigs, and the checkpoint, tracing and
snapshot scenarios, and records the results in ``BENCH_sim_core.json`` at
the repository root.  The same scenario builders back the golden-digest
tests (``tests/test_golden_digests.py``), which pin each rig's experiment
digest to the stored goldens.
"""

from repro.bench.scenarios import (build_fig6_rig, build_fig7_rig,
                                   run_event_churn, run_fig6, run_fig7,
                                   run_timer_storm)
from repro.bench.runner import run_bench, run_profile

__all__ = [
    "build_fig6_rig", "build_fig7_rig", "run_event_churn", "run_fig6",
    "run_fig7", "run_timer_storm", "run_bench", "run_profile",
]
