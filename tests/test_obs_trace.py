"""Unit tests: repro.obs tracer core — spans, sinks, gating, nesting."""

import io
import json

import pytest

from repro.obs import (NULL_SPAN, JsonlSink, ListSink, LoopProfiler,
                       RingSink, SpanRecord, TeeSink, TraceRecord, Tracer,
                       callable_key, maybe_record, record_to_json_dict,
                       verify_span_nesting)


class FakeClock:
    """A settable integer clock standing in for ``sim.now``."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# ---------------------------------------------------------------------------
# point records + legacy list API
# ---------------------------------------------------------------------------

def test_point_records_keep_the_legacy_list_api():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.record("a.one", x=1)
    clock.now = 5
    tracer.record("a.two", y=2)
    assert [r.category for r in tracer.records] == ["a.one", "a.two"]
    assert tracer.count("a.one") == 1
    assert list(tracer.select("a.two"))[0].y == 2
    assert tracer.records[1].time == 5
    tracer.clear()
    assert tracer.records == [] and tracer.category_counts == {}


def test_category_filter_is_cached_and_resets_on_assignment():
    tracer = Tracer(clock=lambda: 0, categories={"keep"})
    assert tracer.enabled_for("keep") and not tracer.enabled_for("drop")
    tracer.record("drop", x=1)
    assert tracer.records == []
    # Assigning a new filter must clear the cached verdicts.
    tracer.categories = {"drop"}
    assert tracer.enabled_for("drop") and not tracer.enabled_for("keep")


def test_maybe_record_tolerates_none():
    maybe_record(None, "whatever", a=1)
    tracer = Tracer(clock=lambda: 3)
    maybe_record(tracer, "hit", a=1)
    assert tracer.count("hit") == 1


# ---------------------------------------------------------------------------
# sync spans
# ---------------------------------------------------------------------------

def test_sync_span_records_duration_and_fields():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("ckpt.stage", track="node0", name="save",
                     provider="domain.node0") as span:
        clock.now = 12
        span.annotate(pages=34)
    rec = tracer.records[0]
    assert isinstance(rec, SpanRecord)
    assert (rec.time, rec.end_time, rec.duration_ns) == (0, 12, 12)
    assert (rec.track, rec.name, rec.kind) == ("node0", "save", "sync")
    assert rec.provider == "domain.node0" and rec.pages == 34


def test_spans_nest_per_track_and_emit_at_end_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.span("outer", track="n0")
    clock.now = 1
    inner = tracer.span("inner", track="n0")
    other = tracer.span("other", track="n1")     # separate track, no nesting
    clock.now = 4
    inner.end()
    other.end()
    clock.now = 9
    outer.end()
    # Emission order is end order — streaming-sink friendly.
    assert [r.category for r in tracer.records] == ["inner", "other", "outer"]
    assert verify_span_nesting(tracer.records) == []
    assert tracer.nesting_violations == []


def test_exception_inside_span_annotates_error_and_closes():
    tracer = Tracer(clock=lambda: 0)
    with pytest.raises(ValueError):
        with tracer.span("stage", track="n0"):
            raise ValueError("boom")
    rec = tracer.records[0]
    assert rec.fields["error"] == "boom"
    assert tracer.open_spans() == []


def test_double_end_is_idempotent():
    tracer = Tracer(clock=lambda: 0)
    span = tracer.span("s", track="n0")
    assert span.end() is not None
    assert span.end() is None
    assert len(tracer.records) == 1


def test_filtered_span_is_the_shared_null_span():
    tracer = Tracer(clock=lambda: 0, categories=set())
    span = tracer.span("anything", track="n0", big_field=object())
    assert span is NULL_SPAN
    assert span.annotate(x=1) is NULL_SPAN
    with tracer.async_span("also.filtered"):
        pass
    assert tracer.records == []


def test_mis_nested_end_is_recorded_not_raised():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.span("outer", track="n0")
    inner = tracer.span("inner", track="n0")
    outer.end()                         # wrong order: inner still open
    inner.end()
    assert tracer.nesting_violations == [("n0", "inner", "outer")]
    assert len(tracer.records) == 2


# ---------------------------------------------------------------------------
# async spans
# ---------------------------------------------------------------------------

def test_async_spans_may_overlap_on_one_track():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    a = tracer.async_span("burst", track="bus/node1", name="a")
    clock.now = 2
    b = tracer.async_span("burst", track="bus/node1", name="b")
    clock.now = 5
    a.end(outcome="acked")              # ends while b is still open
    clock.now = 8
    b.end(outcome="acked")
    recs = list(tracer.records)
    assert [(r.name, r.time, r.end_time) for r in recs] == [
        ("a", 0, 5), ("b", 2, 8)]
    assert all(r.kind == "async" for r in recs)
    # Overlapping async episodes are not nesting violations.
    assert verify_span_nesting(recs) == []


def test_verify_span_nesting_flags_partial_overlap():
    records = [
        SpanRecord(time=0, category="c", fields={}, end_time=10,
                   track="t", name="first", span_id=1),
        SpanRecord(time=5, category="c", fields={}, end_time=15,
                   track="t", name="second", span_id=2),
    ]
    violations = verify_span_nesting(records)
    assert len(violations) == 1 and "overlaps" in violations[0]


def test_open_spans_lists_unfinished_work():
    tracer = Tracer(clock=lambda: 0)
    tracer.span("sync.open", track="n0")
    tracer.async_span("async.open", track="bus/n0")
    names = [s.category for s in tracer.open_spans()]
    assert names == ["sync.open", "async.open"]


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

def test_ring_sink_bounds_memory_and_counts_evictions():
    tracer = Tracer(clock=lambda: 0, sink=RingSink(capacity=3))
    for i in range(5):
        tracer.record("tick", i=i)
    assert [r.i for r in tracer.records] == [2, 3, 4]
    assert tracer.sink.evicted == 2
    with pytest.raises(ValueError):
        RingSink(capacity=0)


def test_jsonl_sink_streams_canonical_lines():
    buf = io.StringIO()
    clock = FakeClock()
    tracer = Tracer(clock=clock, sink=JsonlSink(buf))
    tracer.record("bus.drop", topic="ckpt/save")
    with tracer.span("stage", track="n0", name="save"):
        clock.now = 7
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[0] == {"t": 0, "cat": "bus.drop", "topic": "ckpt/save"}
    assert lines[1]["end"] == 7 and lines[1]["track"] == "n0"
    assert tracer.sink.emitted == 2
    # Write-only sink: the legacy list API degrades to empty, not a crash.
    assert tracer.records == []


def test_tee_sink_fans_out_and_keeps_list_api():
    ring = RingSink(capacity=2)
    lst = ListSink()
    tracer = Tracer(clock=lambda: 0, sink=TeeSink([lst, ring]))
    for i in range(3):
        tracer.record("tick", i=i)
    assert len(tracer.records) == 3          # first child retains records
    assert len(ring.records) == 2


def test_record_to_json_dict_sorts_fields():
    rec = TraceRecord(time=1, category="c", fields={"b": 2, "a": 1})
    assert list(record_to_json_dict(rec)) == ["t", "cat", "a", "b"]


# ---------------------------------------------------------------------------
# profiler plumbing (host-side; asserts structure only, never timing)
# ---------------------------------------------------------------------------

def test_loop_profiler_attributes_by_qualified_name():
    prof = LoopProfiler()
    t0 = prof.begin()
    prof.end(t0, callable_key)
    assert prof.dispatches == 1
    key = "repro.obs.profile.callable_key"
    assert prof.counts[key] == 1
    rows = prof.report(top=5)
    assert rows[0]["key"] == key and rows[0]["count"] == 1
    assert "callable_key" in prof.format_report()


def test_simulator_profiler_hook_measures_dispatches():
    from repro.sim import Simulator

    sim = Simulator()
    prof = sim.enable_profiling()
    fired = []
    sim.call_in(10, lambda: fired.append(1))
    ev = sim.timeout(20)
    ev.callbacks.append(lambda _e: fired.append(2))
    sim.run()
    assert fired == [1, 2]
    assert prof.dispatches == 2
