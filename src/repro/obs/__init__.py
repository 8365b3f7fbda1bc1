"""repro.obs — the observability layer: tracing, spans, sinks, metrics.

Point trace records plus duration spans, pluggable sinks, a
Chrome/Perfetto timeline exporter, a labelled metrics registry, and an
event-loop profiler.  See ``docs/observability.md`` for the guided tour.
"""

from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               DEFAULT_BUCKETS)
from repro.obs.profile import LoopProfiler, callable_key
from repro.obs.sinks import (JsonlSink, ListSink, RingSink, Sink, TeeSink,
                             record_to_json_dict)
from repro.obs.trace import (NULL_SPAN, Span, SpanRecord, TraceRecord, Tracer,
                             maybe_record, verify_span_nesting)

__all__ = [
    "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "JsonlSink",
    "ListSink", "LoopProfiler", "MetricsRegistry", "NULL_SPAN", "RingSink",
    "Sink", "Span", "SpanRecord", "TeeSink", "TraceRecord", "Tracer",
    "callable_key", "chrome_trace_events", "maybe_record",
    "record_to_json_dict", "verify_span_nesting", "write_chrome_trace",
]
