"""The paravirtualized guest kernel.

:class:`GuestKernel` assembles the guest-side world: virtual clock, virtual
timer wheel, dispatch gates, temporal firewall, a network stack whose
timers live in virtual time, and thread management.  Workloads only ever
talk to this API (``sleep``, ``cpu``, ``gettimeofday``, sockets), so a
transparent checkpoint is invisible to them by construction *if and only
if* the firewall machinery works — which the tests and benchmarks verify.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, Optional

from repro.errors import FirewallViolation
from repro.guest.activities import Activity, GateTable
from repro.guest.firewall import TemporalFirewall
from repro.guest.threads import GuestThread, ThreadKind
from repro.guest.timer import VirtualTimerWheel
from repro.guest.vclock import VirtualClock
from repro.hw.machine import Machine
from repro.net.host import Host
from repro.net.tcp import TCPStack
from repro.net.udp import UDPStack
from repro.sim.core import Event, Simulator
from repro.sim.random import derived_rng
from repro.obs.trace import Tracer, maybe_record
from repro.units import US


class GuestKernel:
    """A guest operating system instance on a machine."""

    def __init__(self, sim: Simulator, machine: Machine, name: str,
                 rng: Optional[random.Random] = None,
                 tracer: Optional[Tracer] = None,
                 epoch_wall_ns: int = 0) -> None:
        self.sim = sim
        self.machine = machine
        self.name = name
        self.rng = rng or derived_rng(f"guest.{name}")
        self.tracer = tracer
        self.vclock = VirtualClock(sim, epoch_wall_ns, rng=self.rng,
                                   rebase_jitter_ns=45_000)
        self.timers = VirtualTimerWheel(sim, self.vclock, self.rng,
                                        name=f"{name}.timers")
        self.gates = GateTable(name)
        self.firewall = TemporalFirewall(self, rng=self.rng)
        self.host = Host(sim, name, timers=self.timers, tracer=tracer)
        self.tcp = TCPStack(self.host)
        self.udp = UDPStack(self.host)
        self.threads: list[GuestThread] = []
        #: hooks the hypervisor installs (restrict TSC, stop page updates)
        self.on_time_frozen: Callable[[], None] = lambda: None
        self.on_time_thawed: Callable[[], None] = lambda: None
        self._user_tag = f"{name}/u/"
        self._kernel_tag = f"{name}/k/"
        self._outside_tag = f"{name}/ckpt/"
        #: timers that expired while the TIMER gate was closed, held like
        #: a pending timer softirq until the firewall reopens the gates
        self._held_timers: list[Event] = []
        #: how many timers were ever held that way (visible, not silent)
        self.timers_held = 0

    # ------------------------------------------------------------------ time API

    def now(self) -> int:
        """Guest monotonic time (virtual ns since boot)."""
        return self.vclock.now()

    def gettimeofday(self) -> int:
        """Guest wall-clock time (virtual)."""
        return self.vclock.wall_time()

    # ------------------------------------------------------------------ thread API

    def spawn(self, body: Callable[["GuestKernel"], Generator],
              name: str = "thread", kind: ThreadKind = ThreadKind.USER,
              outside_firewall: bool = False) -> GuestThread:
        """Start a guest thread running ``body(kernel)``."""
        thread = GuestThread(self, name, body, kind, outside_firewall)
        self.threads.append(thread)
        return thread

    #: guest timer-interrupt period (HZ=100, the paper-era Linux default)
    TICK_NS = 10_000_000

    def sleep(self, delay_ns: int, posix: bool = False) -> Event:
        """An event that fires after ``delay_ns`` of *virtual* time.

        With ``posix=True`` the delay is rounded the way ``nanosleep`` on a
        tick-driven kernel rounds it — up to the next timer tick plus one
        guard tick — which is why the paper's ``usleep(10 ms)`` loop
        iterates every 20 ms (Figure 4).
        """
        if posix:
            delay_ns = (delay_ns // self.TICK_NS + 1) * self.TICK_NS
        ev = Event(self.sim)
        self.timers.call_in(delay_ns, lambda: self._fire_timer(ev))
        return ev

    def _fire_timer(self, ev: Event) -> None:
        # The firewall closes the gates a few microseconds before it
        # freezes the wheel; a timer expiring in that window is held.
        if self.gates.is_closed(Activity.TIMER):
            self._held_timers.append(ev)
            self.timers_held += 1
            return
        ev.succeed()

    def dispatch_held_timers(self) -> None:
        """Fire, in expiry order, the timers held while gates were closed."""
        held, self._held_timers = self._held_timers, []
        for ev in held:
            ev.succeed()

    def cpu(self, work_ns: int, weight: float = 1.0,
            kind: ThreadKind = ThreadKind.USER) -> Event:
        """Consume guest CPU time (stops under the firewall)."""
        tag = self._user_tag if kind == ThreadKind.USER else self._kernel_tag
        if self.gates.is_closed(Activity.USER_THREAD) and \
                kind == ThreadKind.USER:
            raise FirewallViolation(
                f"user CPU work submitted inside the firewall on {self.name}")
        return self.machine.cpu.execute(work_ns, weight, tag)

    def cpu_outside(self, work_ns: int, weight: float = 1.0) -> Event:
        """CPU work for checkpoint code (never frozen)."""
        return self.machine.cpu.execute(work_ns, weight, self._outside_tag)

    # ------------------------------------------------------------------ firewall hooks

    def stop_user_execution(self) -> None:
        """Scheduler stops selecting user threads."""
        self.machine.cpu.freeze(self._user_tag)

    def stop_kernel_execution(self) -> None:
        """Scheduler stops kernel threads / workqueue workers."""
        self.machine.cpu.freeze(self._kernel_tag)

    def resume_kernel_execution(self) -> None:
        self.machine.cpu.thaw(self._kernel_tag)

    def resume_user_execution(self) -> None:
        self.machine.cpu.thaw(self._user_tag)

    # ------------------------------------------------------------------ introspection

    @property
    def frozen(self) -> bool:
        """True while the temporal firewall is up."""
        return self.firewall.up

    def trace(self, category: str, **fields) -> None:
        """Record a trace event stamped with *virtual* time."""
        maybe_record(self.tracer, category, vtime=self.now(),
                     true_time=self.sim.now, kernel=self.name, **fields)

    def __repr__(self) -> str:
        return f"<GuestKernel {self.name} vtime={self.now()}>"
