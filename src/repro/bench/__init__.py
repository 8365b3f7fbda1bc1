"""Performance benchmarks for the event-core hot path.

``repro bench`` times two synthetic kernel microbenchmarks, a saturated
Dummynet pipe, the paper-figure scenarios, and the checkpoint, tracing and
snapshot scenarios, and records the results in ``BENCH_sim_core.json`` at
the repository root.  The figure scenarios are the named scenario files
of :data:`repro.testbed.compile.NAMED_SCENARIOS`; the same table backs
the golden-digest test (``tests/test_pipeline_equivalence.py``).
"""

from repro.bench.scenarios import run_event_churn, run_timer_storm
from repro.bench.runner import run_bench, run_profile

__all__ = ["run_event_churn", "run_timer_storm", "run_bench", "run_profile"]
