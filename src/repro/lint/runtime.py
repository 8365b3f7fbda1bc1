"""Runtime determinism checkers: event-race detection and shadow runs.

Static lint cannot see every ordering dependence, so two dynamic checks
back it up:

* :class:`EventRaceDetector` — opt-in on :class:`~repro.sim.core.Simulator`
  (via :meth:`Simulator.enable_race_detection`).  When two events that were
  scheduled *independently* pop at an identical ``(time, priority)`` and
  their callbacks touch the same component, their relative order is decided
  only by the heap's sequence-number tiebreak — i.e. by incidental program
  order.  That is a latent replay hazard and gets recorded as an
  :class:`EventRace`.  Events enqueued *while* the tied timestamp is being
  processed are causal descendants of an earlier event in the tie and are
  exempt: their order is forced, not incidental.

* :func:`shadow_run` — executes a scenario twice with equivalent but
  perturbed :class:`~repro.sim.random.RandomStreams` (the second run
  pre-creates every substream the first run requested, in reverse order)
  and compares caller-supplied digests.  Any dependence on stream creation
  order, ambient ``random`` state, or object identity (``id()``-keyed sets
  and dicts change between runs) shows up as a digest divergence.
"""

from __future__ import annotations

import hashlib
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.random import RandomStreams


# ---------------------------------------------------------------------------
# event-race detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventRace:
    """Two independently scheduled events tied on (time, priority) whose
    callbacks touch the same component."""

    time: int
    priority: int
    component: str
    events: Tuple[str, str]

    def format(self) -> str:
        return (f"t={self.time} prio={self.priority}: {self.events[0]} and "
                f"{self.events[1]} both touch {self.component}; their order "
                f"is decided only by scheduling sequence")


def _describe_callback(fn: Callable) -> str:
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{name.rsplit('.', 1)[-1]}"
    return name


def _describe_event(event) -> str:
    callbacks = getattr(event, "callbacks", None)
    if callbacks is None and callable(event):
        # Fast-path heap item: the simulator hands us the callback itself.
        return f"call({_describe_callback(event)})"
    names = ", ".join(_describe_callback(cb) for cb in callbacks or ()) \
        or "no-op"
    return f"{type(event).__name__}({names})"


def _component_label(obj: Any) -> str:
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        return f"{type(obj).__name__}({name})"
    return type(obj).__name__


def _touched_components(event, _depth: int = 0) -> Dict[int, str]:
    """Objects an event's callbacks will read or mutate, keyed by identity.

    A *component* is any object reachable from a callback — as a bound
    method receiver or through closure cells — that carries a ``sim``
    attribute (every simulation component in this codebase does).  The
    :class:`~repro.sim.core.Simulator` itself is excluded: everything
    touches it.

    ``event`` is either an :class:`~repro.sim.core.Event` (inspect its
    callbacks) or a scheduled callable (inspect it directly).
    """
    touched: Dict[int, str] = {}
    callbacks = getattr(event, "callbacks", None)
    if callbacks is None and callable(event):
        _collect_from_callable(event, touched, depth=0)
        return touched
    for cb in (callbacks or ()):
        _collect_from_callable(cb, touched, depth=0)
    return touched


def _collect_from_callable(fn: Callable, touched: Dict[int, str],
                           depth: int) -> None:
    if depth > 3:
        return
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        _maybe_add(owner, touched)
        fn = getattr(fn, "__func__", fn)
    closure = getattr(fn, "__closure__", None)
    for cell in closure or ():
        try:
            content = cell.cell_contents
        except ValueError:
            continue
        if isinstance(content, (types.FunctionType, types.MethodType)):
            _collect_from_callable(content, touched, depth + 1)
        else:
            _maybe_add(content, touched)


def _maybe_add(obj: Any, touched: Dict[int, str]) -> None:
    from repro.sim.core import Simulator

    if isinstance(obj, Simulator):
        return
    if hasattr(obj, "sim") and not isinstance(obj, type):
        touched[id(obj)] = _component_label(obj)


class EventRaceDetector:
    """Observes every popped event; records same-timestamp component races.

    Enable with ``sim.enable_race_detection()`` *before* running; inspect
    ``detector.races`` afterwards.  The detector never changes scheduling —
    it only watches.
    """

    def __init__(self, sim=None) -> None:
        self.races: List[EventRace] = []
        self.events_observed = 0
        self.sim = sim
        self._key: Optional[Tuple[int, int]] = None
        self._watermark = 0
        self._independent: List[Tuple[str, Dict[int, str]]] = []
        self._reported: set = set()

    def observe(self, when: int, priority: int, seq: int, event) -> None:
        """Called by the simulator just before an event is processed.

        ``event`` is the popped store item: an Event, or the scheduled
        callable itself.
        """
        self.events_observed += 1
        key = (when, priority)
        if key != self._key:
            self._key = key
            self._independent = []
            # Anything enqueued after this point (seq above the watermark)
            # is a causal descendant of an event inside this tie.
            sim = self.sim if self.sim is not None else event.sim
            self._watermark = sim._seq
        elif seq > self._watermark:
            return
        desc = _describe_event(event)
        touched = _touched_components(event)
        for other_desc, other_touched in self._independent:
            overlap = touched.keys() & other_touched.keys()
            for comp_id in overlap:
                mark = (when, priority, comp_id)
                if mark in self._reported:
                    continue
                self._reported.add(mark)
                self.races.append(EventRace(
                    when, priority, touched[comp_id], (other_desc, desc)))
        self._independent.append((desc, touched))

    @property
    def race_count(self) -> int:
        return len(self.races)

    def report(self) -> str:
        if not self.races:
            return (f"no event races in {self.events_observed} events")
        lines = [r.format() for r in self.races]
        lines.append(f"{len(self.races)} races in "
                     f"{self.events_observed} events")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shadow-run divergence checking
# ---------------------------------------------------------------------------

class RecordingStreams(RandomStreams):
    """A :class:`RandomStreams` that remembers the order of stream requests."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.requested: List[str] = []

    def stream(self, name: str):
        if name not in self._streams:
            self.requested.append(name)
        return super().stream(name)


class PerturbedStreams(RandomStreams):
    """Equivalent streams, created in a deliberately different order.

    Substream seeds are pure functions of ``(master_seed, name)``, so
    pre-creating every stream a previous run requested — in reverse order —
    must not change any draw sequence.  A scenario whose behaviour shifts
    under this perturbation depends on stream *creation order* (or on some
    channel outside ``RandomStreams`` entirely), which is exactly the bug
    the shadow run exists to catch.
    """

    def __init__(self, seed: int = 0,
                 warm_names: Optional[List[str]] = None) -> None:
        super().__init__(seed)
        for name in reversed(warm_names or []):
            super().stream(name)


@dataclass
class ShadowRunReport:
    """The outcome of one :func:`shadow_run` comparison."""

    digest_a: Any
    digest_b: Any
    streams_requested: List[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.digest_a != self.digest_b

    def format(self) -> str:
        if not self.diverged:
            return (f"shadow run converged over "
                    f"{len(self.streams_requested)} substreams")
        return (f"shadow run DIVERGED: {self.digest_a!r} != "
                f"{self.digest_b!r} — the scenario depends on stream "
                f"creation order, ambient randomness, or object identity")


def shadow_run(scenario: Callable[[RandomStreams], Any],
               seed: int = 0) -> ShadowRunReport:
    """Run ``scenario`` twice with equivalent-but-perturbed streams.

    ``scenario`` builds a fresh simulation from the given streams, runs it,
    and returns a comparable digest (e.g. ``experiment_digest(...)`` or
    :func:`trace_digest`).  A deterministic scenario yields identical
    digests; any divergence means hidden ordering dependence.
    """
    recording = RecordingStreams(seed)
    digest_a = scenario(recording)
    perturbed = PerturbedStreams(seed, warm_names=recording.requested)
    digest_b = scenario(perturbed)
    return ShadowRunReport(digest_a, digest_b,
                           streams_requested=list(recording.requested))


def trace_digest(tracer) -> str:
    """Stable hex digest of a :class:`~repro.obs.trace.Tracer`'s records."""
    h = hashlib.sha256()
    for record in tracer.records:
        h.update(repr((record.time, record.category,
                       sorted(record.fields.items()))).encode("utf-8"))
    return h.hexdigest()
