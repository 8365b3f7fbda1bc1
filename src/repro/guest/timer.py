"""The guest kernel's virtual timer wheel.

All guest timers — POSIX timers, TCP retransmit timers, application sleeps —
are armed against the guest's :class:`~repro.guest.vclock.VirtualClock`.
When the temporal firewall freezes the wheel, pending timers keep their
*virtual* deadlines; after thaw they are re-armed relative to the resumed
clock.  A frozen timer can never fire — that is how checkpoint downtime
stays invisible to timeout-driven code.

The wheel also models dispatch slack: a small per-timer latency between the
nominal deadline and handler execution, standing in for timer-interrupt
granularity and softirq scheduling.  This slack is what bounds Figure 4's
baseline timer accuracy (97% of iterations within 28 µs).

Scheduling goes through the simulator's scheduled calls: one
:class:`~repro.sim.core.ScheduledCall` per distinct fire instant (all
timers expiring at that instant share it, firing in arming order).  A
cancelled :class:`~repro.sim.timers.TimerHandle` is unhooked from its batch
immediately — and when the last timer of a batch is cancelled, or the wheel
freezes, the batch's heap entry is cancelled too, so cancel/rearm-heavy
workloads (TCP RTO storms) no longer grow the event heap until original
deadlines pass.

Timers may carry a **tag** — a stable string naming the callback for the
snapshot layer.  Callbacks are live closures and cannot be serialized;
:meth:`VirtualTimerWheel.serialize_state` records each pending timer's tag,
deadline, slack, and its batch's exact ``(when, priority, seq)`` event
triple, and :meth:`VirtualTimerWheel.restore_state` re-creates the timers
from a resolver mapping tags back to callbacks, re-inserting the batch
events verbatim (:meth:`~repro.sim.core.Simulator.restore_call`) so a
restored world's dispatch order is bit-identical to a replayed one.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.errors import CheckpointError, ClockError, SimulationError
from repro.guest.vclock import VirtualClock
from repro.sim.core import NORMAL, ScheduledCall, Simulator
from repro.sim.random import derived_rng
from repro.sim.timers import TimerHandle
from repro.units import US


class _TimerEntry:
    __slots__ = ("wheel", "vdeadline", "handle", "slack", "frozen_remaining",
                 "fire_at", "tag")

    def __init__(self, wheel: "VirtualTimerWheel", vdeadline: int,
                 handle: TimerHandle, slack: int,
                 tag: Optional[str] = None) -> None:
        self.wheel = wheel
        self.vdeadline = vdeadline
        self.handle = handle
        self.slack = slack
        self.frozen_remaining = -1
        self.fire_at = -1                   # armed instant; -1 when unarmed
        self.tag = tag

    def cancel(self) -> None:
        # Installed as the TimerHandle's underlying cancellable.
        self.wheel._cancel_entry(self)


class VirtualTimerWheel:
    """Freezable timers in guest virtual time (a TimerService)."""

    def __init__(self, sim: Simulator, vclock: VirtualClock,
                 rng: Optional[random.Random] = None,
                 max_slack_ns: int = 25 * US, name: str = "timers") -> None:
        self.sim = sim
        self.vclock = vclock
        self.rng = rng or derived_rng(f"timers.{name}")
        self.max_slack_ns = max_slack_ns
        self.name = name
        #: armed/held entries in arming order (dict-as-ordered-set: O(1)
        #: removal when a timer is cancelled or fires)
        self._pending: Dict[_TimerEntry, None] = {}
        #: entries grouped by absolute fire instant: all timers expiring at
        #: one simulation instant fire from a single scheduled event, in
        #: arming order — never from heap-tiebreak order between separate
        #: events (the event-race detector flags that as a hazard)
        self._due: Dict[int, List[_TimerEntry]] = {}
        #: the one ScheduledCall backing each fire instant's batch
        self._due_calls: Dict[int, ScheduledCall] = {}
        #: event-store sequence number of each batch's entry, recorded so
        #: a snapshot can re-insert the batch with its original triple
        self._due_seqs: Dict[int, int] = {}
        self._frozen = False
        self._version = 0

    # -- TimerService interface --------------------------------------------------

    def now(self) -> int:
        """Current guest virtual time."""
        return self.vclock.now()

    def call_in(self, delay_ns: int, fn: Callable[[], None],
                tag: Optional[str] = None) -> TimerHandle:
        """Arm a timer ``delay_ns`` of *virtual* time from now.

        ``tag`` (optional) names the callback for the snapshot layer: a
        wheel can only be serialized while every pending timer carries
        one, and a restore resolves tags back to callbacks.
        """
        if delay_ns < 0:
            raise SimulationError(f"negative timer delay {delay_ns}")
        handle = TimerHandle(fn)
        slack = self.rng.randint(0, self.max_slack_ns) \
            if self.max_slack_ns > 0 else 0
        entry = _TimerEntry(self, self.now() + delay_ns, handle, slack, tag)
        handle._call = entry
        self._pending[entry] = None
        if not self._frozen:
            self._arm(entry)
        return handle

    # -- internals ------------------------------------------------------------------

    def _make_fire_batch(self, fire_at: int) -> Callable[[], None]:
        version = self._version

        def fire_batch() -> None:
            if version != self._version:
                return                      # wheel was frozen since arming
            self._due_calls.pop(fire_at, None)
            self._due_seqs.pop(fire_at, None)
            for due in self._due.pop(fire_at, ()):
                if version != self._version:
                    return                  # froze mid-batch; rest re-arm at thaw
                if due not in self._pending:
                    continue                # cancelled or already fired
                del self._pending[due]
                due.fire_at = -1
                due.handle._fire()

        return fire_batch

    def _arm(self, entry: _TimerEntry) -> None:
        remaining = max(0, entry.vdeadline - self.vclock.now())
        fire_at = self.sim.now + remaining + entry.slack
        entry.fire_at = fire_at
        batch = self._due.get(fire_at)
        if batch is not None:
            batch.append(entry)             # an event for this instant exists
            return
        self._due[fire_at] = [entry]
        call, seq = self.sim.schedule_tracked(fire_at,
                                              self._make_fire_batch(fire_at))
        self._due_calls[fire_at] = call
        self._due_seqs[fire_at] = seq

    def _cancel_entry(self, entry: _TimerEntry) -> None:
        """Unhook a cancelled timer; reclaim its batch if it was the last."""
        self._pending.pop(entry, None)
        fire_at, entry.fire_at = entry.fire_at, -1
        if fire_at < 0:
            return                          # frozen or never armed
        batch = self._due.get(fire_at)
        if batch is None:
            return                          # batch is firing right now
        try:
            batch.remove(entry)
        except ValueError:
            return
        if not batch:
            del self._due[fire_at]
            self._due_seqs.pop(fire_at, None)
            call = self._due_calls.pop(fire_at, None)
            if call is not None:
                call.cancel()               # lazy-delete the heap entry

    # -- freeze protocol ----------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def pending_count(self) -> int:
        """Timers currently armed or held frozen."""
        for entry in [e for e in self._pending
                      if e.handle.cancelled or e.handle.fired]:
            del self._pending[entry]
        return len(self._pending)

    def freeze(self) -> None:
        """Hold all pending timers; nothing fires until :meth:`thaw`.

        Each timer's *remaining* delay is captured now — at resume the
        hardware timers are re-programmed with these remainders, so any
        error in re-basing the virtual clock shows up as timer skew, just
        like on the real system.
        """
        if self._frozen:
            raise ClockError(f"timer wheel {self.name} already frozen")
        self._frozen = True
        self._version += 1                  # disarm any batch mid-flight
        for call in self._due_calls.values():
            call.cancel()                   # reclaim the scheduled batches
        self._due.clear()
        self._due_calls.clear()
        self._due_seqs.clear()
        now = self.vclock.now()
        for entry in self._pending:
            entry.fire_at = -1
            entry.frozen_remaining = max(0, entry.vdeadline - now)

    def thaw(self) -> None:
        """Re-arm pending timers with their captured remaining delays.

        The virtual clock must already be thawed, otherwise the re-armed
        deadlines would not correspond to any readable time.
        """
        if not self._frozen:
            raise ClockError(f"timer wheel {self.name} is not frozen")
        if self.vclock.frozen:
            raise ClockError("thaw the virtual clock before the timer wheel")
        self._frozen = False
        now = self.vclock.now()
        live = [e for e in self._pending
                if not e.handle.cancelled and not e.handle.fired]
        self._pending = dict.fromkeys(live)
        for entry in live:
            if entry.frozen_remaining >= 0:
                # Re-express the deadline against the re-based clock: the
                # stored remainder is authoritative (hardware semantics).
                entry.vdeadline = now + entry.frozen_remaining
                entry.frozen_remaining = -1
            self._arm(entry)

    # -- snapshot/restore ----------------------------------------------------------

    def serialize_state(self) -> dict:
        """All pending timers plus the wheel's RNG position, JSON-safe.

        Every live pending timer must carry a tag — a callback without
        one cannot survive the serialize/restore boundary, and dropping
        it silently would violate the checkpoint-coverage contract, so
        that raises instead.  Armed batches record their exact event
        triple (``fire_at``, seq at NORMAL priority) for verbatim
        re-insertion.
        """
        from repro.sim.random import rng_state_to_json

        self.pending_count                  # prune cancelled/fired entries
        timers = []
        for entry in self._pending:
            if entry.tag is None:
                raise CheckpointError(
                    f"timer wheel {self.name}: pending timer without a "
                    f"tag cannot be serialized; arm it with "
                    f"call_in(..., tag=...)")
            timers.append({"tag": entry.tag, "vdeadline": entry.vdeadline,
                           "slack": entry.slack, "fire_at": entry.fire_at,
                           "frozen_remaining": entry.frozen_remaining})
        return {"name": self.name, "frozen": self._frozen,
                "max_slack_ns": self.max_slack_ns,
                "timers": timers,
                "batch_seqs": {str(fire_at): seq for fire_at, seq
                               in sorted(self._due_seqs.items())},
                "rng": rng_state_to_json(self.rng.getstate())}

    def restore_state(self, state: dict,
                      resolver: Callable[[str], Callable[[], None]]
                      ) -> Dict[str, TimerHandle]:
        """Rebuild pending timers from a :meth:`serialize_state` payload.

        The wheel must be empty (a freshly built world); ``resolver``
        maps each stored tag back to its callback.  Slack values are
        restored, never redrawn — the wheel's RNG position is restored
        too, so subsequent arms draw exactly what the snapshotted world
        would have drawn.  Returns the new handles by tag.
        """
        from repro.sim.random import rng_state_from_json

        expected = ("name", "frozen", "max_slack_ns", "timers",
                    "batch_seqs", "rng")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise CheckpointError(
                f"timer wheel {self.name}: malformed payload")
        if state["name"] != self.name:
            raise CheckpointError(
                f"timer wheel {self.name}: payload belongs to "
                f"{state['name']!r}")
        if self.pending_count:
            raise CheckpointError(
                f"timer wheel {self.name}: restore requires an empty "
                f"wheel ({self.pending_count} timers pending)")
        self._frozen = bool(state["frozen"])
        self._version += 1
        self.rng.setstate(rng_state_from_json(state["rng"]))
        handles: Dict[str, TimerHandle] = {}
        for spec in state["timers"]:
            entry = _TimerEntry(self, spec["vdeadline"],
                                TimerHandle(resolver(spec["tag"])),
                                spec["slack"], spec["tag"])
            entry.handle._call = entry
            entry.frozen_remaining = spec["frozen_remaining"]
            entry.fire_at = spec["fire_at"] if not self._frozen else -1
            self._pending[entry] = None
            handles[spec["tag"]] = entry.handle
            if not self._frozen:
                self._due.setdefault(entry.fire_at, []).append(entry)
        for fire_at_str, seq in state["batch_seqs"].items():
            fire_at = int(fire_at_str)
            if fire_at not in self._due:
                raise CheckpointError(
                    f"timer wheel {self.name}: batch at {fire_at} has no "
                    f"timers in the payload")
            self._due_calls[fire_at] = self.sim.restore_call(
                fire_at, NORMAL, seq, self._make_fire_batch(fire_at))
            self._due_seqs[fire_at] = seq
        if not self._frozen and set(self._due) != \
                {int(k) for k in state["batch_seqs"]}:
            raise CheckpointError(
                f"timer wheel {self.name}: armed timers without a "
                f"recorded batch event")
        return handles
