"""The temporal firewall (§4.1–4.2) — the paper's primary mechanism.

The firewall is a control layer inside the guest kernel that isolates time
and execution of the checkpoint code from the rest of the system.  Raising
it stops, in order:

1. user threads (via the scheduler),
2. kernel threads and workqueues,
3. IRQ / softirq / timer dispatch (the gates),
4. the virtual timer wheel,
5. the virtual clock and guest TSC (time itself).

Only outside-firewall activities — the suspend thread, XenBus handlers,
block-IRQ drain — keep running.  Each step costs a few microseconds of true
time (scheduler walks, IPIs, hypercalls); the window between the first stop
and the clock freeze is the *residual non-atomicity* of the checkpoint, and
is exactly what bounds the in-guest time error the paper measures in
Figure 4 (~80 µs at a checkpoint vs. ~28 µs baseline timer accuracy).

Lowering reverses the order, so execution can never observe a running
clock while threads were stopped longer than that same small window.
"""

from __future__ import annotations

import enum
import random
from typing import Generator, Optional, TYPE_CHECKING

from repro.errors import FirewallViolation
from repro.guest.activities import INSIDE_FIREWALL
from repro.sim.random import derived_rng
from repro.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.kernel import GuestKernel


class FirewallState(enum.Enum):
    DOWN = "down"
    RAISING = "raising"
    UP = "up"
    LOWERING = "lowering"


class TemporalFirewall:
    """Freezes guest time and execution atomically (to the guest)."""

    def __init__(self, kernel: "GuestKernel",
                 min_step_cost_ns: int = 3 * US,
                 max_step_cost_ns: int = 12 * US,
                 rng: Optional[random.Random] = None) -> None:
        self.kernel = kernel
        self.min_step_cost_ns = min_step_cost_ns
        self.max_step_cost_ns = max_step_cost_ns
        self.rng = rng or derived_rng(f"firewall.{kernel.name}")
        self.state = FirewallState.DOWN
        self.raises = 0
        self.last_freeze_window_ns = 0
        self.last_thaw_window_ns = 0
        self.last_clock_frozen_at_ns = 0
        self.last_clock_thawed_at_ns = 0

    def _step_cost(self) -> int:
        return self.rng.randint(self.min_step_cost_ns, self.max_step_cost_ns)

    @property
    def up(self) -> bool:
        return self.state == FirewallState.UP

    # -- raise ---------------------------------------------------------------------

    def raise_sequence(self) -> Generator:
        """Stop guest execution and time.  Run from the suspend thread.

        This is a generator: the caller (outside-firewall checkpoint code)
        drives it inside a sim process, so each step consumes true time
        while the guest is progressively stopped.
        """
        if self.state != FirewallState.DOWN:
            raise FirewallViolation(
                f"cannot raise firewall in state {self.state.value}")
        kernel = self.kernel
        self.state = FirewallState.RAISING
        start = kernel.sim.now
        # 1. Stop user threads via the scheduler.
        yield kernel.sim.timeout(self._step_cost())
        kernel.stop_user_execution()
        # 2. Stop kernel threads and workqueue workers.
        yield kernel.sim.timeout(self._step_cost())
        kernel.stop_kernel_execution()
        # 3. Close dispatch gates for IRQs, softirqs, and timer jobs.
        yield kernel.sim.timeout(self._step_cost())
        kernel.gates.close(INSIDE_FIREWALL)
        # 4. Freeze the timer wheel (no jobs can be dispatched anyway, but
        #    pending deadlines must survive the downtime unchanged).
        yield kernel.sim.timeout(self._step_cost())
        kernel.timers.freeze()
        # 5. Stop time itself: shared-info page updates, TSC, xtime/jiffies.
        yield kernel.sim.timeout(self._step_cost())
        kernel.vclock.freeze()
        kernel.on_time_frozen()
        self.last_clock_frozen_at_ns = kernel.sim.now
        self.state = FirewallState.UP
        self.raises += 1
        self.last_freeze_window_ns = kernel.sim.now - start

    # -- lower ---------------------------------------------------------------------

    def lower_sequence(self) -> Generator:
        """Resume time and execution in reverse order."""
        if self.state != FirewallState.UP:
            raise FirewallViolation(
                f"cannot lower firewall in state {self.state.value}")
        kernel = self.kernel
        self.state = FirewallState.LOWERING
        start = kernel.sim.now
        # 5'. Restart time first so nothing executes under a frozen clock.
        kernel.on_time_thawed()
        kernel.vclock.thaw()
        self.last_clock_thawed_at_ns = kernel.sim.now
        yield kernel.sim.timeout(self._step_cost())
        # 3'. Re-open the dispatch gates *before* re-arming timers: a
        # deadline may already have expired (the clock re-base leaks a few
        # microseconds of downtime) and must be dispatchable immediately.
        # Timers that expired between gate-close and wheel-freeze on the
        # way up were held; they run first, in expiry order.
        kernel.gates.open(INSIDE_FIREWALL)
        kernel.dispatch_held_timers()
        yield kernel.sim.timeout(self._step_cost())
        # 4'. Re-arm the timer wheel against the resumed clock.
        kernel.timers.thaw()
        yield kernel.sim.timeout(self._step_cost())
        # 2'./1'. Restart kernel then user execution.
        kernel.resume_kernel_execution()
        yield kernel.sim.timeout(self._step_cost())
        kernel.resume_user_execution()
        self.state = FirewallState.DOWN
        self.last_thaw_window_ns = kernel.sim.now - start
