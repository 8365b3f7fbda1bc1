"""Structured tracing: point records and duration spans over sinks.

This module is the core of :mod:`repro.obs`, the observability layer.
Two record shapes flow through one :class:`Tracer`:

* :class:`TraceRecord` — a point occurrence (``tracer.record``);
* :class:`SpanRecord` — a *duration* with a start, an end, and a track
  (``tracer.span`` / ``tracer.async_span``), which is what turns a
  checkpoint pipeline stage, a bus retransmit burst, or a fault window
  into something a timeline viewer can draw.

Records are pushed into a pluggable :class:`~repro.obs.sinks.Sink`
(list, bounded ring, streaming JSONL — see :mod:`repro.obs.sinks`), and
:mod:`repro.obs.export` renders any record sequence as a Chrome/Perfetto
``trace_event`` timeline.

Determinism contract: tracing never consumes a random draw and never
schedules a simulator event, so attaching (or detaching) a tracer leaves
every golden experiment digest bit-identical.  A ``None`` tracer is
accepted everywhere via :func:`maybe_record`, and hot-path callers guard
with :meth:`Tracer.enabled_for` so a category-filtered tracer costs them
neither a kwargs dict nor a record allocation.

Example — spans nest per track and land in the sink at end time:

    >>> t = 0
    >>> tracer = Tracer(clock=lambda: t)
    >>> with tracer.span("ckpt.stage", track="node0", stage="save"):
    ...     t = 7
    >>> rec = tracer.records[0]
    >>> (rec.time, rec.end_time, rec.duration_ns, rec.stage)
    (0, 7, 7, 'save')
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.sinks import ListSink, Sink


@dataclass(frozen=True)
class TraceRecord:
    """One traced point occurrence.

    Fields are reachable both through the ``fields`` dict and as
    attributes:

        >>> r = TraceRecord(time=5, category="bus.drop", fields={"topic": "a"})
        >>> (r.time, r.topic)
        (5, 'a')
    """

    time: int
    category: str
    fields: dict

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass(frozen=True)
class SpanRecord:
    """One completed duration: ``time`` .. ``end_time`` on ``track``.

    ``kind`` is ``"sync"`` for stack-nested spans (a track behaves like a
    call stack) and ``"async"`` for free-floating episodes that may
    overlap on their track (bus retransmit bursts, fault windows).

        >>> s = SpanRecord(time=10, category="checkpoint.stage",
        ...                fields={"stage": "save"}, end_time=25,
        ...                track="node0", name="save")
        >>> (s.duration_ns, s.stage, s.kind)
        (15, 'save', 'sync')
    """

    time: int
    category: str
    fields: dict
    end_time: int
    track: str
    name: str
    kind: str = "sync"
    span_id: int = 0

    @property
    def duration_ns(self) -> int:
        """Simulated nanoseconds between span start and end."""
        return self.end_time - self.time

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


class Span:
    """An open span; ends via :meth:`end` or as a context manager.

    Created by :meth:`Tracer.span` (sync, stack-nested per track) or
    :meth:`Tracer.async_span` (overlapping episodes).  ``annotate`` adds
    fields to the eventual :class:`SpanRecord` without closing it.
    """

    __slots__ = ("tracer", "category", "name", "track", "kind", "fields",
                 "start_ns", "span_id", "closed")

    def __init__(self, tracer: "Tracer", category: str, name: str,
                 track: str, kind: str, fields: dict, span_id: int) -> None:
        self.tracer = tracer
        self.category = category
        self.name = name
        self.track = track
        self.kind = kind
        self.fields = fields
        self.start_ns = tracer.clock()
        self.span_id = span_id
        self.closed = False

    def annotate(self, **fields: Any) -> "Span":
        """Attach extra fields to the span; returns the span."""
        self.fields.update(fields)
        return self

    def end(self, **fields: Any) -> Optional[SpanRecord]:
        """Close the span, emit its :class:`SpanRecord`, and return it."""
        if self.closed:
            return None
        self.closed = True
        if fields:
            self.fields.update(fields)
        return self.tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.fields.setdefault("error", str(exc))
        self.end()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"<Span {self.category}:{self.name} {state} "
                f"track={self.track!r} start={self.start_ns}>")


class _NullSpan:
    """Shared no-op span returned when a category is filtered out."""

    __slots__ = ()

    def annotate(self, **fields: Any) -> "_NullSpan":
        return self

    def end(self, **fields: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: the singleton no-op span (safe to share: it holds no state)
NULL_SPAN = _NullSpan()


class Tracer:
    """Routes records and spans to a sink, with cached category gating.

    ``clock`` supplies simulated time (usually ``lambda: sim.now``);
    ``categories`` is an optional allow-filter; ``sink`` defaults to an
    in-memory :class:`~repro.obs.sinks.ListSink` so the legacy
    ``tracer.records`` API keeps working unchanged.

        >>> tracer = Tracer(clock=lambda: 42, categories={"keep"})
        >>> tracer.record("keep", a=1); tracer.record("drop", b=2)
        >>> (tracer.count("keep"), tracer.count("drop"))
        (1, 0)
        >>> tracer.enabled_for("drop")
        False
    """

    def __init__(self, clock: Callable[[], int],
                 categories: Optional[set] = None,
                 sink: Optional[Sink] = None) -> None:
        self.clock = clock
        self._categories = categories
        self.sink: Sink = sink if sink is not None else ListSink()
        #: cached category -> bool verdicts (cleared when the filter moves)
        self._enabled: Dict[str, bool] = {}
        #: per-category record counts, spans included (profiling surface)
        self.category_counts: Dict[str, int] = {}
        #: per-track stacks of open *sync* spans
        self._open_sync: Dict[str, List[Span]] = {}
        #: open *async* spans, in start order
        self._open_async: List[Span] = []
        #: (track, expected_name, got_name) triples for mis-nested ends
        self.nesting_violations: List[tuple] = []
        self._next_span_id = 1

    # -- category gating ------------------------------------------------------

    @property
    def categories(self) -> Optional[set]:
        """The allow-filter; assigning a new one resets the cache."""
        return self._categories

    @categories.setter
    def categories(self, value: Optional[set]) -> None:
        self._categories = value
        self._enabled.clear()

    def enabled_for(self, category: str) -> bool:
        """Cached filter verdict — the hot-path pre-check.

        Callers on per-packet/per-timer paths test this *before* building
        the kwargs dict, so a filtered category costs one dict lookup.
        """
        verdict = self._enabled.get(category)
        if verdict is None:
            verdict = (self._categories is None
                       or category in self._categories)
            self._enabled[category] = verdict
        return verdict

    # -- point records --------------------------------------------------------

    def record(self, category: str, **fields: Any) -> None:
        """Emit a :class:`TraceRecord` if ``category`` passes the filter."""
        if not self.enabled_for(category):
            return
        counts = self.category_counts
        counts[category] = counts.get(category, 0) + 1
        self.sink.emit(TraceRecord(self.clock(), category, fields))

    # -- spans ----------------------------------------------------------------

    def span(self, category: str, track: str = "main",
             name: Optional[str] = None, **fields: Any):
        """Open a sync (stack-nested) span on ``track``.

        Returns :data:`NULL_SPAN` when the category is filtered, so call
        sites never branch:

            >>> t = Tracer(clock=lambda: 0, categories=set())
            >>> t.span("anything") is NULL_SPAN
            True
        """
        if not self.enabled_for(category):
            return NULL_SPAN
        span = self._make_span(category, track, name, "sync", fields)
        self._open_sync.setdefault(track, []).append(span)
        return span

    def async_span(self, category: str, track: str = "main",
                   name: Optional[str] = None, **fields: Any):
        """Open an async span: episodes on one track may overlap freely."""
        if not self.enabled_for(category):
            return NULL_SPAN
        span = self._make_span(category, track, name, "async", fields)
        self._open_async.append(span)
        return span

    def _make_span(self, category, track, name, kind, fields) -> Span:
        span_id = self._next_span_id
        self._next_span_id += 1
        return Span(self, category, name if name is not None else category,
                    track, kind, fields, span_id)

    def _end_span(self, span: Span) -> SpanRecord:
        if span.kind == "sync":
            stack = self._open_sync.get(span.track, [])
            if stack and stack[-1] is span:
                stack.pop()
            else:
                # Mis-nested end: record the violation, then remove the
                # span wherever it is — tracing must never raise.
                expected = stack[-1].name if stack else None
                self.nesting_violations.append(
                    (span.track, expected, span.name))
                if span in stack:
                    stack.remove(span)
        else:
            if span in self._open_async:
                self._open_async.remove(span)
        record = SpanRecord(
            time=span.start_ns, category=span.category, fields=span.fields,
            end_time=self.clock(), track=span.track, name=span.name,
            kind=span.kind, span_id=span.span_id)
        counts = self.category_counts
        counts[span.category] = counts.get(span.category, 0) + 1
        self.sink.emit(record)
        return record

    def open_spans(self) -> List[Span]:
        """Every span currently open (sync stacks + async episodes)."""
        out: List[Span] = []
        for track in sorted(self._open_sync):
            out.extend(self._open_sync[track])
        out.extend(self._open_async)
        return out

    # -- legacy list API ------------------------------------------------------

    @property
    def records(self):
        """The sink's retained records (empty for write-only sinks)."""
        return getattr(self.sink, "records", [])

    def select(self, category: str) -> Iterator:
        """Iterate retained records of one category in emit order."""
        return (r for r in self.records if r.category == category)

    def count(self, category: str) -> int:
        """Number of retained records in ``category``."""
        return sum(1 for r in self.records if r.category == category)

    def clear(self) -> None:
        """Drop retained records and the per-category counts."""
        clear = getattr(self.sink, "clear", None)
        if clear is not None:
            clear()
        self.category_counts.clear()


def maybe_record(tracer: Optional[Tracer], category: str,
                 **fields: Any) -> None:
    """Record on ``tracer`` if it is not None.

        >>> maybe_record(None, "anything", x=1)      # accepted, ignored
        >>> tr = Tracer(clock=lambda: 0)
        >>> maybe_record(tr, "hit", x=1); tr.count("hit")
        1
    """
    if tracer is not None:
        tracer.record(category, **fields)


def verify_span_nesting(records) -> List[str]:
    """Check that spans are well-formed per track; returns violations.

    For every track, *sync* spans must nest like a call stack: sorted by
    start time (ties: longer span first), each span must either contain
    or be disjoint from the next.  Async spans may overlap and are
    skipped.  Returns a list of human-readable violation strings (empty
    means the timeline is well-formed):

        >>> t = 0
        >>> tr = Tracer(clock=lambda: t)
        >>> with tr.span("outer", track="n0"):
        ...     with tr.span("inner", track="n0"):
        ...         t = 3
        ...     t = 5
        >>> verify_span_nesting(tr.records)
        []
    """
    violations: List[str] = []
    by_track: Dict[str, List[SpanRecord]] = {}
    for r in records:
        if isinstance(r, SpanRecord) and r.kind == "sync":
            by_track.setdefault(r.track, []).append(r)
    for track in sorted(by_track):
        spans = sorted(by_track[track],
                       key=lambda s: (s.time, -s.end_time, s.span_id))
        stack: List[SpanRecord] = []
        for span in spans:
            if span.end_time < span.time:
                violations.append(
                    f"{track}: span {span.name!r} ends before it starts")
                continue
            while stack and span.time >= stack[-1].end_time:
                stack.pop()
            if stack and span.end_time > stack[-1].end_time:
                violations.append(
                    f"{track}: span {span.name!r} "
                    f"[{span.time}, {span.end_time}] overlaps enclosing "
                    f"{stack[-1].name!r} [{stack[-1].time}, "
                    f"{stack[-1].end_time}]")
                continue
            stack.append(span)
    return violations
