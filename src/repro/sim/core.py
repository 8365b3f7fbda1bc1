"""Deterministic discrete-event simulation kernel.

The kernel orders work by ``(time, priority, sequence)``: simulated time is
integer nanoseconds (see :mod:`repro.units`), and ties are broken by a
monotonically increasing sequence number, so a run is reproducible
bit-for-bit regardless of host platform.

Storage is a **two-lane event store** (profile-guided; see
docs/performance.md for the measurements that chose this layout over both
``heapq`` tuples alone and a hand-rolled sift-up/sift-down array heap):

* the **tail lane** — a plain deque of ``(when, priority, seq, item)``
  entries kept sorted by construction.  Most scheduling in a discrete-event
  simulation is *monotone*: a callback running at time ``t`` schedules its
  successor at ``t + delta``, which lands at or past everything already
  pending.  Such entries append in O(1) with two integer comparisons and
  pop from the head in O(1) — no sifting, no per-entry log(n).
* the **heap lane** — a classic binary heap (C ``heapq``) that absorbs the
  out-of-order remainder: timers armed into the far future while nearer
  work is pending, retransmission deadlines, URGENT-priority kicks.

Dispatch merges the lanes by comparing their heads; because both lanes are
min-ordered and every entry carries the full ``(when, priority, seq)``
prefix, the merged pop order is exactly the order a single heap would
produce.  The run loop itself is inlined (no per-event ``step()`` call)
whenever no race detector or profiler is attached.

Two kinds of item ride the store:

* :class:`Event` (and subclasses) — the full-featured waitable object used
  by processes, with a value, callbacks, and failure propagation; events
  are callable (dispatch invokes ``event()``) so the hot loop never needs
  an ``isinstance`` check;
* plain scheduled calls — :meth:`Simulator.schedule_call` pushes a
  single slotted :class:`ScheduledCall` handle (cancellable), and
  :meth:`Simulator.schedule_fn` pushes the bare callable itself.  Neither
  allocates an Event, a callback list, or a wrapper lambda, which is what
  makes per-packet and per-timer scheduling cheap (see docs/performance.md).

Cancellation is *lazy*: a cancelled :class:`ScheduledCall` drops its
callback reference immediately and is skipped when popped (O(1), no
per-entry handle bookkeeping); when tombstones exceed half the live store
both lanes are compacted in one O(n) pass.  Pop order is fully determined
by the ``(time, priority, sequence)`` prefix, so compaction (which only
rearranges backing storage) can never change scheduling order.

Processes (generator coroutines that ``yield`` events) are layered on top in
:mod:`repro.sim.process`.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

#: Scheduling priorities.  Lower runs first at equal timestamps.
URGENT = 0
NORMAL = 1
LOW = 2

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: it acquires a value (or an exception) and is scheduled on
    the simulator's event store.  When the simulator pops it, the event is
    *processed*: all registered callbacks run, in registration order.

    Callbacks receive the event itself as their only argument.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "processed", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.processed = False
        self._defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the event store."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -----------------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0,
                priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: int = 0,
             priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event re-raises its exception inside every process waiting
        on it.  If nothing waits, the simulator raises at processing time so
        failures never pass silently; call :meth:`defuse` to suppress that.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay, priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if no process waits on it."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback fires immediately.
        """
        if self.processed:
            fn(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Remove a previously registered callback (no-op if absent).

        On a processed event the callback list is gone and there is nothing
        to remove; that case returns immediately instead of scanning.  The
        same applies *during* dispatch of this event: ``_process`` detaches
        the list before running it, so removal from inside one of the
        event's own callbacks is a no-op — the remaining callbacks still
        fire (see tests/test_sim_heap_edges.py, which pins this contract).
        """
        cbs = self.callbacks
        if cbs is None:
            return                          # already processed
        try:
            cbs.remove(fn)                  # single O(n) pass, not two
        except ValueError:
            pass

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self.processed = True
        for fn in callbacks or ():
            fn(self)
        if self._ok is False and not self._defused:
            raise self._value

    def __call__(self) -> None:
        # Events are callable so the dispatch loop can invoke any non-handle
        # item uniformly, without an isinstance check on the hot path.
        # Defined as a real method (not an alias) so subclasses overriding
        # _process stay correct.
        self._process()

    def __repr__(self) -> str:
        state = ("processed" if self.processed
                 else "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._enqueue(self, delay, NORMAL)


class ScheduledCall:
    """A cancellable handle for one scheduled callback.

    The handle *is* the stored item: cancelling sets ``fn`` to ``None``
    (releasing the callback and anything it closes over immediately) and the
    simulator skips the tombstone when it reaches the head of its lane.
    """

    __slots__ = ("sim", "fn")

    def __init__(self, sim: "Simulator", fn: Callable[[], None]) -> None:
        self.sim = sim
        self.fn: Optional[Callable[[], None]] = fn

    @property
    def active(self) -> bool:
        """True while the callback is still pending (not fired, not
        cancelled)."""
        return self.fn is not None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if fired/cancelled)."""
        if self.fn is None:
            return
        self.fn = None
        sim = self.sim
        sim._dead += 1
        if (sim._dead >= sim.COMPACT_MIN and
                sim._dead * 2 > len(sim._heap) + len(sim._tail)):
            sim._compact()

    def __repr__(self) -> str:
        state = "pending" if self.fn is not None else "done"
        return f"<ScheduledCall {state} at {hex(id(self))}>"


class Simulator:
    """The event loop: a clock plus the two-lane store of scheduled events."""

    #: lazy-deletion compaction knobs: compact when at least COMPACT_MIN
    #: tombstones exist *and* they outnumber live entries
    COMPACT_MIN = 64

    __slots__ = ("now", "_heap", "_tail", "_seq", "_dead", "_running",
                 "race_detector", "profiler")

    def __init__(self) -> None:
        self.now: int = 0
        #: heap lane: out-of-order entries, C-heapq ordered
        self._heap: list[tuple[int, int, int, Any]] = []
        #: tail lane: monotone entries, sorted by construction
        self._tail: deque = deque()
        self._seq = 0
        self._dead = 0                      # cancelled ScheduledCall tombstones
        self._running = False
        #: opt-in runtime determinism checker (see repro.lint.runtime);
        #: None means zero-overhead normal operation.  Attach *before*
        #: calling run(): the run loop is specialized per run() call.
        self.race_detector = None
        #: opt-in event-loop hot-spot profiler (see repro.obs.profile);
        #: None means zero-overhead normal operation.  Attach before run().
        self.profiler = None

    # -- event construction ---------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ns."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a new process running ``generator`` (see sim.process)."""
        from repro.sim.process import Process

        return Process(self, generator)

    def call_at(self, when: int, fn: Callable[[], None],
                priority: int = NORMAL) -> ScheduledCall:
        """Invoke ``fn()`` at absolute simulated time ``when``."""
        return self.schedule_call(when, fn, priority)

    def call_in(self, delay: int, fn: Callable[[], None],
                priority: int = NORMAL) -> ScheduledCall:
        """Invoke ``fn()`` after ``delay`` nanoseconds."""
        return self.schedule_call(self.now + delay, fn, priority)

    # -- scheduled calls ------------------------------------------------------

    def schedule_call(self, when: int, fn: Callable[[], None],
                      priority: int = NORMAL) -> ScheduledCall:
        """Schedule ``fn()`` at absolute time ``when``; returns a handle.

        Pushes one slotted :class:`ScheduledCall` — no Event,
        no callback list, no wrapper lambda.  ``handle.cancel()`` removes
        the entry lazily (skipped at pop, compacted past the threshold).
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}")
        self._seq = seq = self._seq + 1
        handle = ScheduledCall(self, fn)
        tail = self._tail
        if tail:
            last = tail[-1]
            lw = last[0]
            if when > lw or (when == lw and priority >= last[1]):
                tail.append((when, priority, seq, handle))
            else:
                heappush(self._heap, (when, priority, seq, handle))
        else:
            tail.append((when, priority, seq, handle))
        return handle

    def schedule_tracked(self, when: int, fn: Callable[[], None],
                         priority: int = NORMAL
                         ) -> "tuple[ScheduledCall, int]":
        """Schedule ``fn()`` and also return the entry's sequence number.

        The ``(when, priority, seq)`` triple fully determines this
        entry's position in the pop order, so a snapshot layer that
        records the triple can re-insert the pending call *verbatim* in a
        restored world (:meth:`restore_call`) — tie-breaking then matches
        a from-origin replay bit for bit.
        """
        handle = self.schedule_call(when, fn, priority)
        return handle, self._seq

    def reserve_seq(self) -> int:
        """Consume the next sequence number without storing an entry.

        The caller inserts the entry later with :meth:`restore_call`
        under the returned number, at a point no later than its turn in
        the pop order.  Scheduling that happens in between draws the
        same numbers it would have drawn had the entry been pushed now.
        """
        self._seq = seq = self._seq + 1
        return seq

    def schedule_fn(self, when: int, fn: Callable[[], None],
                    priority: int = NORMAL) -> None:
        """Fire-and-forget scheduling: pushes the bare callable itself.

        Zero per-call allocation beyond the stored entry; there is no
        handle, so the call cannot be cancelled.  Reuse one prebound
        callable to schedule the same work repeatedly (packet trains do).
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}")
        self._seq = seq = self._seq + 1
        tail = self._tail
        if tail:
            last = tail[-1]
            lw = last[0]
            if when > lw or (when == lw and priority >= last[1]):
                tail.append((when, priority, seq, fn))
            else:
                heappush(self._heap, (when, priority, seq, fn))
        else:
            tail.append((when, priority, seq, fn))

    def _compact(self) -> None:
        """Drop cancelled tombstones from both lanes (O(n), amortized O(1)).

        Rearranging backing storage cannot change pop order: the
        ``(time, priority, sequence)`` prefix is a total order.  Both
        sweeps mutate their containers in place — run loops hold
        references to them.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if not (entry[3].__class__ is ScheduledCall and
                           entry[3].fn is None)]
        heapq.heapify(heap)
        tail = self._tail
        live = [entry for entry in tail
                if not (entry[3].__class__ is ScheduledCall and
                        entry[3].fn is None)]
        if len(live) != len(tail):
            tail.clear()
            tail.extend(live)               # order preserved: still sorted
        self._dead = 0

    # -- scheduling internals ------------------------------------------------

    def _enqueue(self, event: Event, delay: int, priority: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        when = self.now + delay
        tail = self._tail
        if tail:
            last = tail[-1]
            lw = last[0]
            if when > lw or (when == lw and priority >= last[1]):
                tail.append((when, priority, seq, event))
            else:
                heappush(self._heap, (when, priority, seq, event))
        else:
            tail.append((when, priority, seq, event))

    @property
    def pending_count(self) -> int:
        """Entries currently stored, cancelled tombstones included."""
        return len(self._heap) + len(self._tail)

    # -- snapshot/restore of the event frontier --------------------------------

    def frontier_state(self) -> "dict[str, int]":
        """The clock and sequence counter, for snapshot manifests.

        The *entries* of the frontier are not serialized here — callables
        cannot be; each component that owns a pending call records its
        own ``(when, priority, seq)`` triple (via :meth:`schedule_tracked`)
        and re-inserts it at restore with :meth:`restore_call`.
        """
        return {"now": self.now, "seq": self._seq}

    def restore_frontier(self, now: int, seq: int) -> None:
        """Reset the store to a snapshot's clock and sequence counter.

        Clears both lanes (a freshly built world may hold constructor
        scheduling that the snapshot instant has already consumed); the
        owning components then re-insert their live entries with
        :meth:`restore_call`.  Events scheduled *after* the restore draw
        sequence numbers continuing from ``seq``, so tie-breaking of new
        work matches a replayed world exactly.
        """
        if self._running:
            raise SimulationError("cannot restore a running simulator")
        if now < 0 or seq < 0:
            raise SimulationError(
                f"invalid frontier (now={now}, seq={seq})")
        self._heap.clear()
        self._tail.clear()
        self._dead = 0
        self.now = now
        self._seq = seq

    def restore_call(self, when: int, priority: int, seq: int,
                     fn: Callable[[], None]) -> ScheduledCall:
        """Re-insert one pending call with its *original* ordering triple.

        Used by restore paths — the triple must have been recorded at
        arming time in the snapshotted world (see :meth:`schedule_tracked`),
        and :meth:`restore_frontier` must already have set the sequence
        counter at or past ``seq`` — and by deferred inserts, whose seq
        came from :meth:`reserve_seq`.  The entry goes to the heap lane —
        out-of-order inserts are exactly what that lane absorbs — and the
        counter is *not* advanced, so subsequently scheduled events keep
        their replay-identical numbering.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot restore a call at {when} before now={self.now}")
        if seq > self._seq:
            raise SimulationError(
                f"restored seq {seq} is ahead of the frontier counter "
                f"{self._seq}; restore_frontier first")
        handle = ScheduledCall(self, fn)
        heappush(self._heap, (when, priority, seq, handle))
        return handle

    # -- execution ------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Timestamp of the next *live* scheduled event, or None if idle."""
        heap = self._heap
        tail = self._tail
        while True:
            if heap:
                if tail and tail[0] < heap[0]:
                    entry, in_tail = tail[0], True
                else:
                    entry, in_tail = heap[0], False
            elif tail:
                entry, in_tail = tail[0], True
            else:
                return None
            item = entry[3]
            if item.__class__ is ScheduledCall and item.fn is None:
                if in_tail:
                    tail.popleft()
                else:
                    heappop(heap)
                self._dead -= 1
                continue
            return entry[0]

    def _pop_next(self):
        """Pop the globally earliest entry, or None if the store is empty."""
        heap = self._heap
        tail = self._tail
        if heap:
            if tail and tail[0] < heap[0]:
                return tail.popleft()
            return heappop(heap)
        if tail:
            return tail.popleft()
        return None

    def step(self) -> None:
        """Process the next live event (skipping cancelled tombstones).

        This is the generic, instrumented dispatch: the race detector and
        profiler hooks live here.  Uninstrumented ``run()`` calls use the
        inlined loops below instead.
        """
        while True:
            entry = self._pop_next()
            if entry is None:
                return
            when, prio, seq, item = entry
            if item.__class__ is ScheduledCall:
                fn = item.fn
                if fn is None:
                    self._dead -= 1
                    continue                # tombstone: skip, keep popping
                item.fn = None              # mark fired, release the closure
                if when < self.now:
                    raise SimulationError(
                        "event heap corrupted: time went backwards")
                self.now = when
                if self.race_detector is not None:
                    self.race_detector.observe(when, prio, seq, fn)
                if self.profiler is not None:
                    t0 = self.profiler.begin()
                    fn()
                    self.profiler.end(t0, fn)
                    return
                fn()
                return
            if when < self.now:
                raise SimulationError(
                    "event heap corrupted: time went backwards")
            self.now = when
            if self.race_detector is not None:
                self.race_detector.observe(when, prio, seq, item)
            if self.profiler is not None:
                t0 = self.profiler.begin()
                item()
                self.profiler.end(t0, item)
                return
            item()                          # Event or bare schedule_fn callable
            return

    def enable_race_detection(self):
        """Attach an event-race detector; returns it for later inspection.

        Opt-in: detection watches every popped event for same-timestamp
        ties whose callbacks touch a shared component (a latent ordering
        hazard).  Attach before calling :meth:`run` — the run loop checks
        for instrumentation once per run() call, not per event.
        See :class:`repro.lint.runtime.EventRaceDetector`.
        """
        from repro.lint.runtime import EventRaceDetector

        self.race_detector = EventRaceDetector(sim=self)
        return self.race_detector

    def enable_profiling(self):
        """Attach an event-loop profiler; returns it for later inspection.

        Opt-in: the profiler brackets every dispatched callback with host
        wall-clock reads to attribute real time to callables by module
        and qualified name.  It observes host time only — it never reads
        or advances simulated time — so traces and digests are unchanged.
        Attach before calling :meth:`run` (same contract as the race
        detector).  See :class:`repro.obs.profile.LoopProfiler`.
        """
        from repro.obs.profile import LoopProfiler

        self.profiler = LoopProfiler()
        return self.profiler

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the store drains), an integer
        absolute time in nanoseconds (run up to and including that instant),
        or an :class:`Event` (run until it is processed; its value is
        returned).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            if self.race_detector is not None or self.profiler is not None:
                return self._run_instrumented(until)

            # The three loops below are the hottest code in the tree; they
            # are specialized per `until` kind and deliberately duplicate
            # the dispatch snippet instead of calling step() per event.
            heap = self._heap
            tail = self._tail
            pop_tail = tail.popleft
            SC = ScheduledCall

            if isinstance(until, Event):
                stop = until
                if stop.processed:
                    return stop.value if stop.ok else None
                done: list = []
                stop.add_callback(done.append)
                while not done:
                    if heap:
                        if tail and tail[0] < heap[0]:
                            entry = pop_tail()
                        else:
                            entry = heappop(heap)
                    elif tail:
                        entry = pop_tail()
                    else:
                        raise SimulationError(
                            "simulation ran out of events before target "
                            "event")
                    item = entry[3]
                    if item.__class__ is SC:
                        fn = item.fn
                        if fn is None:
                            self._dead -= 1
                            continue
                        item.fn = None
                        self.now = entry[0]
                        fn()
                    else:
                        self.now = entry[0]
                        item()
                if not stop.ok:
                    if not stop._defused:
                        raise stop.value
                    return None
                return stop.value

            if until is None:
                while True:
                    if heap:
                        if tail and tail[0] < heap[0]:
                            entry = pop_tail()
                        else:
                            entry = heappop(heap)
                    elif tail:
                        entry = pop_tail()
                    else:
                        return None
                    item = entry[3]
                    if item.__class__ is SC:
                        fn = item.fn
                        if fn is None:
                            self._dead -= 1
                            continue
                        item.fn = None
                        self.now = entry[0]
                        fn()
                    else:
                        self.now = entry[0]
                        item()

            horizon = int(until)
            if horizon < self.now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self.now})")
            # Tombstones below the horizon are skipped without advancing
            # the clock, so a cancelled entry can never drag the loop into
            # a live event beyond the horizon.  The one entry popped past
            # the horizon is pushed back (at most once per run() call).
            while True:
                if heap:
                    if tail and tail[0] < heap[0]:
                        entry = pop_tail()
                        from_tail = True
                    else:
                        entry = heappop(heap)
                        from_tail = False
                elif tail:
                    entry = pop_tail()
                    from_tail = True
                else:
                    break
                if entry[0] > horizon:
                    if from_tail:
                        tail.appendleft(entry)  # head restored: still sorted
                    else:
                        heappush(heap, entry)
                    break
                item = entry[3]
                if item.__class__ is SC:
                    fn = item.fn
                    if fn is None:
                        self._dead -= 1
                        continue
                    item.fn = None
                    self.now = entry[0]
                    fn()
                else:
                    self.now = entry[0]
                    item()
            self.now = horizon
            return None
        finally:
            self._running = False

    def _run_instrumented(self, until: Optional[Any]) -> Any:
        """The generic step()-per-event loop, used when a race detector or
        profiler is attached so every dispatch passes their hooks."""
        if isinstance(until, Event):
            stop = until
            if stop.processed:
                return stop.value if stop.ok else None
            done: list = []
            stop.add_callback(done.append)
            while (self._heap or self._tail) and not done:
                self.step()
            if not done:
                raise SimulationError(
                    "simulation ran out of events before target event")
            if not stop.ok:
                if not stop._defused:
                    raise stop.value
                return None
            return stop.value
        if until is None:
            while self._heap or self._tail:
                self.step()
            return None
        horizon = int(until)
        if horizon < self.now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self.now})")
        while True:
            nxt = self.peek()               # purges tombstones at the heads
            if nxt is None or nxt > horizon:
                break
            self.step()
        self.now = horizon
        return None

    # -- conveniences ----------------------------------------------------------

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.primitives import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.primitives import AllOf

        return AllOf(self, list(events))
