"""Timer services: a clock + cancellable callbacks.

Protocol stacks and applications never touch the simulator directly; they
schedule through a :class:`TimerService`.  On a plain host that is
:class:`SimTimerService` (true time).  Inside a guest it is the kernel's
virtual timer wheel (:mod:`repro.guest.timer`), which freezes with the
temporal firewall — that is how a checkpoint hides from TCP retransmit
timers and application sleeps.

Cancellation is propagated downward: a :class:`TimerHandle` owns an
underlying cancellable (a :class:`~repro.sim.core.ScheduledCall` for
:class:`SimTimerService`, a wheel entry for the guest timer wheel), so a
cancelled timer's store entry is reclaimed lazily instead of being
dispatched at its original deadline.

``rearm(handle, delay_ns)`` moves a pending timer: observably a cancel
followed by ``call_in`` with the same callback.  :class:`SimTimerService`
does exactly that.  The guest wheel usually keeps the timer's store entry
and inserts the moved batch when that entry fires (see
:meth:`repro.guest.timer.VirtualTimerWheel.rearm`), which is what makes
TCP's re-arm on every ACK cheap.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.errors import SimulationError
from repro.sim.core import Simulator


class TimerHandle:
    """A cancellable pending callback."""

    __slots__ = ("fired", "cancelled", "_fn", "_call")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fired = False
        self.cancelled = False
        self._fn: Optional[Callable[[], None]] = fn
        #: underlying cancellable (anything with ``.cancel()``), installed
        #: by whichever service armed this handle; cancelling the handle
        #: cancels it so the backing heap/wheel entry is reclaimed lazily
        self._call = None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self._fn = None                     # release the closure now
        call, self._call = self._call, None
        if call is not None:
            call.cancel()

    def _fire(self) -> None:
        if self.cancelled or self.fired:
            return
        self.fired = True
        self._call = None
        fn, self._fn = self._fn, None
        fn()


class TimerService(Protocol):
    """What stacks need from their environment: a clock and delayed calls."""

    def now(self) -> int:
        """Current time in nanoseconds, in this service's timebase."""
        ...

    def call_in(self, delay_ns: int, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn`` after ``delay_ns`` in this service's timebase."""
        ...

    def rearm(self, handle: TimerHandle, delay_ns: int) -> TimerHandle:
        """Run a pending timer's callback after ``delay_ns`` instead;
        returns the handle now armed (observably cancel + ``call_in``)."""
        ...


class SimTimerService:
    """Timers in true simulated time (for hosts outside any guest)."""

    __slots__ = ("sim", "_schedule")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # prebound: call_in is on TCP's RTO arm/cancel hot path
        self._schedule = sim.schedule_call

    def now(self) -> int:
        return self.sim.now

    def call_in(self, delay_ns: int, fn: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(fn)
        handle._call = self._schedule(self.sim.now + delay_ns, handle._fire)
        return handle

    def rearm(self, handle: TimerHandle, delay_ns: int) -> TimerHandle:
        fn = handle._fn
        if fn is None:
            raise SimulationError("cannot re-arm a fired or cancelled timer")
        handle.cancel()
        return self.call_in(delay_ns, fn)
