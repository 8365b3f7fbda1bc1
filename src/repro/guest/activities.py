"""Classes of guest-kernel activity and the firewall's dispatch gates.

The paper identifies the execution vehicles inside a Linux kernel — user
threads, kernel threads, interrupt handlers, deferrable functions (softirqs,
tasklets, workqueues), and timer jobs — and modifies the kernel's dispatch
points so each class can be selectively stopped.  We model the same set as
an enum plus a gate table; every dispatch funnels through
:meth:`GateTable.check`, which raises :class:`FirewallViolation` if a gated
class tries to run.  Guest timers are the one source that can still
expire inside the firewall — in the few microseconds between closing the
gates and freezing the timer wheel — so the kernel checks the TIMER gate
with :meth:`GateTable.is_closed` instead and holds such a timer, like a
pending timer softirq, until the firewall reopens the gates.
"""

from __future__ import annotations

import enum

from repro.errors import FirewallViolation


class Activity(enum.Enum):
    """One class of guest execution."""

    USER_THREAD = "user-thread"
    KERNEL_THREAD = "kernel-thread"
    IRQ = "irq"
    BLOCK_IRQ = "block-irq"          # outside the firewall: drains in-flight I/O
    SOFTIRQ = "softirq"
    WORKQUEUE = "workqueue"
    TIMER = "timer"
    XENBUS = "xenbus"                # outside the firewall: checkpoint control
    EXCEPTION = "exception"          # page faults run outside the firewall


#: Activities the temporal firewall stops.  BLOCK_IRQ, XENBUS, and
#: EXCEPTION stay runnable — they are the checkpoint's own machinery (§4.1).
INSIDE_FIREWALL = frozenset({
    Activity.USER_THREAD, Activity.KERNEL_THREAD, Activity.IRQ,
    Activity.SOFTIRQ, Activity.WORKQUEUE, Activity.TIMER,
})


class GateTable:
    """Which activity classes are currently allowed to execute."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._closed: set[Activity] = set()
        self.violations = 0

    def close(self, activities: frozenset) -> None:
        """Gate the given classes (idempotent)."""
        self._closed |= set(activities)

    def open(self, activities: frozenset) -> None:
        """Re-open the given classes."""
        self._closed -= set(activities)

    def is_closed(self, activity: Activity) -> bool:
        return activity in self._closed

    def check(self, activity: Activity) -> None:
        """Assert that ``activity`` may run right now."""
        if activity in self._closed:
            self.violations += 1
            raise FirewallViolation(
                f"{activity.value} dispatched inside the temporal firewall "
                f"on {self.name}")
