"""Satellite acceptance: full tracing under the fault storm.

The ckpt10 fault storm (``examples/scenarios/ckpt10_faultstorm.toml``,
shortened to 20 s) runs with tracing fully enabled into a bounded ring
sink.  The timeline must stay well-formed (spans nest per track,
fault windows and retransmit bursts open *and* close), and attaching the
sink must not move the run's deterministic digests by a single bit.
"""

from repro.analysis.digest import trace_digest
from repro.obs import RingSink, SpanRecord, Tracer, verify_span_nesting
from repro.sim import Simulator
from repro.testbed.compile import compile_scenario, load_named


def run_storm(sink=None):
    """The fault storm over 20 s, traced into ``sink`` (default: list)."""
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, sink=sink)
    return compile_scenario(load_named(
        "ckpt10_faultstorm", {"run.seconds": 20})).run(sim=sim,
                                                       tracer=tracer)


def test_faultstorm_traced_timeline_is_well_formed_and_deterministic():
    sink = RingSink(capacity=100_000)
    first = run_storm(sink)
    assert first.details["completed"]

    records = list(sink.records)
    assert sink.evicted == 0 and records
    # Span nesting must be well-formed on every track.
    assert verify_span_nesting(records) == []

    spans = [r for r in records if isinstance(r, SpanRecord)]
    by_cat = {}
    for s in spans:
        by_cat.setdefault(s.category, []).append(s)
    # The aborted round, the abort walk, and the retried rounds all
    # appear as durations on the coordinator track.
    assert "checkpoint.session" in by_cat and "checkpoint.round" in by_cat
    round_names = {s.name for s in by_cat["checkpoint.round"]}
    assert "abort" in round_names
    # node3's crash->reboot outage is one closed async window.
    windows = by_cat["fault.window"]
    assert [w.agent for w in windows] == ["node3"]
    assert windows[0].kind == "async"
    assert windows[0].fields["outcome"] == "rebooted"
    assert windows[0].duration_ns > 0
    # The lossy bus produced closed retransmit bursts with attempt counts.
    bursts = by_cat["bus.retransmit.burst"]
    assert bursts and all(b.fields["attempts"] >= 1 for b in bursts)
    assert all(b.fields["outcome"] in ("acked", "dead") for b in bursts)

    # Identical storm, identical sink: bit-identical trace + state.
    second_sink = RingSink(capacity=100_000)
    second = run_storm(second_sink)
    assert first.digest == second.digest
    assert trace_digest(sink.records) == trace_digest(second_sink.records)


def test_ring_sink_does_not_perturb_the_run_itself():
    # Same storm, different sinks: everything except the trace retention
    # (experiment digest, attempts, injected faults) must be identical —
    # the sink choice can never feed back into the simulation.
    bounded = run_storm(RingSink(capacity=64)).details
    unbounded = run_storm().details
    for key in ("experiment_digest", "supervisor_attempts", "injected",
                "metrics"):
        assert bounded[key] == unbounded[key], key


def test_span_stage_records_preserve_analysis_summary():
    from repro.analysis.metrics import stage_timing_summary
    from repro.obs import ListSink

    sink = ListSink()
    report = run_storm(sink)
    assert report.details["completed"]
    stage_records = [r for r in sink.records
                     if r.category == "checkpoint.stage"]
    summary = stage_timing_summary(stage_records)
    assert summary["save"]["count"] > 0  # stages aggregated from spans
