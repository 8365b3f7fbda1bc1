"""The hypervisor: domains, paravirtual time, run-state accounting.

Xen exposes time to guests through a shared-info page (wall clock + system
time + a TSC snapshot) that it updates periodically; guests interpolate
with RDTSC between updates (§4.2).  During a checkpoint the hypervisor
stops page updates, restricts the guest TSC, and suspends run-state
accounting — those are the hooks :class:`Domain` wires into the guest
kernel's ``on_time_frozen`` / ``on_time_thawed`` callbacks.

The periodic updates cost no events: :class:`SharedInfoPage` computes its
fields when read, as of the last update tick, and is written out when it
is frozen.  When ``DomainProvider`` learns to serialize a domain, it must
carry the page's fields, its ``updates`` count and the instant the page
was last brought up to date (its anchor, ``_synced_ns``).
"""

from __future__ import annotations

import enum
import random
from typing import Dict, Optional

from repro.errors import CheckpointError
from repro.guest.kernel import GuestKernel
from repro.hw.machine import Machine
from repro.hw.tsc import GuestTSC
from repro.net.interface import Interface
from repro.sim.core import Simulator
from repro.sim.random import derived_rng
from repro.obs.trace import Tracer
from repro.units import MB, MS
from repro.xen.devices import VirtualBlockDevice, VirtualNIC
from repro.xen.xenbus import XenBus


class RunState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    OFFLINE = "offline"


def _page_field(name: str) -> property:
    def read(page: "SharedInfoPage") -> int:
        page._catch_up()
        return getattr(page, name)
    return property(read)


class SharedInfoPage:
    """The guest-visible time page.

    ``system_time_ns`` is the guest's virtual system time at the moment of
    the last update, paired with the TSC value then; the guest interpolates
    between updates by scaling TSC deltas.

    Xen rewrites the page every ``Hypervisor.PAGE_UPDATE_PERIOD_NS`` on a
    grid that starts when the hypervisor's first domain is created.  The
    model does no work per tick: a read brings the fields up to the last
    grid tick at or before now, and ``updates`` counts the ticks at which
    the page was unfrozen.  The values at a past tick are exact, because
    nothing moves the guest's clock offsets while the page is unfrozen.
    Setting ``frozen`` brings the page up to date first, so a frozen page
    holds its last pre-freeze values.  A tick at the freeze instant counts;
    a tick at the thaw instant does not (Xen found the page frozen then).
    """

    system_time_ns = _page_field("_system_time_ns")
    wall_time_ns = _page_field("_wall_time_ns")
    tsc_at_update = _page_field("_tsc_at_update")
    updates = _page_field("_updates")

    def __init__(self, domain: "Domain") -> None:
        self._domain = domain
        self._frozen = False
        self._updates = 0
        self._synced_ns = domain.sim.now
        self.update()
        if domain.sim.now == domain.hypervisor.grid_origin_ns:
            self._updates += 1        # the grid's first tick

    @property
    def frozen(self) -> bool:
        return self._frozen

    @frozen.setter
    def frozen(self, value: bool) -> None:
        if not value and self._domain.guest_tsc.restricted:
            # Catching up later would compute the frozen stretch's ticks
            # from the live offsets, which only holds for unfrozen clocks.
            raise CheckpointError(
                f"{self._domain.name}: page thawed while the TSC is restricted")
        self._catch_up()
        self._frozen = value

    def update(self) -> None:
        """Rewrite the page from the live clocks (at creation and thaw).

        The page must already be up to date, as it is at creation and right
        after ``frozen`` is set.
        """
        if self._frozen:
            return
        vclock = self._domain.kernel.vclock
        self._system_time_ns = vclock.now()
        self._wall_time_ns = vclock.wall_time()
        self._tsc_at_update = self._domain.guest_tsc.read()
        self._updates += 1
        self._synced_ns = self._domain.sim.now

    def _catch_up(self) -> None:
        """Apply the grid ticks since the page was last brought up to date."""
        domain = self._domain
        origin = domain.hypervisor.grid_origin_ns
        period = domain.hypervisor.PAGE_UPDATE_PERIOD_NS
        now = domain.sim.now
        tick = now - (now - origin) % period
        if tick <= self._synced_ns:
            return
        if not self._frozen:
            vclock = domain.kernel.vclock
            self._updates += ((tick - origin) // period
                              - (self._synced_ns - origin) // period)
            self._system_time_ns = vclock.at(tick)
            self._wall_time_ns = vclock.epoch_wall_ns + vclock.at(tick)
            self._tsc_at_update = domain.guest_tsc.read_at(tick)
        self._synced_ns = tick


class ParavirtTimeSource:
    """How a guest actually computes time: page + TSC interpolation.

    Provided alongside the kernel's logical virtual clock to demonstrate
    that the paravirtual ABI and the model agree (tests assert they track
    each other within an update period, and that both freeze together).
    """

    def __init__(self, page: SharedInfoPage, tsc: GuestTSC,
                 tsc_hz: int) -> None:
        self.page = page
        self.tsc = tsc
        self.tsc_hz = tsc_hz

    def system_time(self) -> int:
        delta_ticks = self.tsc.read() - self.page.tsc_at_update
        return self.page.system_time_ns + int(delta_ticks * 1e9 / self.tsc_hz)

    def wall_time(self) -> int:
        delta_ticks = self.tsc.read() - self.page.tsc_at_update
        return self.page.wall_time_ns + int(delta_ticks * 1e9 / self.tsc_hz)


class Domain:
    """One guest VM.

    ``page`` is the domain's shared-info page, computed when read.  After
    one virtual second it has seen 22 updates: creation, the grid's first
    tick, and one tick every 50 ms.  While frozen it holds still:

    >>> import random
    >>> from repro.hw import Machine
    >>> from repro.sim import Simulator
    >>> from repro.units import SECOND
    >>> sim = Simulator()
    >>> hypervisor = Hypervisor(sim, Machine(sim, "m0", rng=random.Random(1)))
    >>> domain = hypervisor.create_domain("d0")
    >>> sim.run(until=1 * SECOND)
    >>> domain.page.updates, domain.page.system_time_ns
    (22, 1000000000)
    >>> domain.page.frozen = True
    >>> sim.run(until=2 * SECOND)
    >>> domain.page.updates, domain.page.system_time_ns
    (22, 1000000000)
    """

    def __init__(self, hypervisor: "Hypervisor", name: str,
                 memory_bytes: int, kernel: GuestKernel) -> None:
        self.hypervisor = hypervisor
        self.sim = hypervisor.sim
        self.name = name
        self.memory_bytes = memory_bytes
        self.kernel = kernel
        self.guest_tsc = GuestTSC(hypervisor.machine.oscillator)
        self.page = SharedInfoPage(self)
        self.time_source = ParavirtTimeSource(
            self.page, self.guest_tsc, hypervisor.machine.oscillator.freq_hz)
        self.xenbus = XenBus(self.sim, kernel)
        self.nics: list[VirtualNIC] = []
        self.vbds: list[VirtualBlockDevice] = []
        self.runstate = RunState.RUNNING
        self.runstate_ns: Dict[RunState, int] = {s: 0 for s in RunState}
        self._runstate_since = self.sim.now
        self._accounting_suspended = False
        kernel.on_time_frozen = self._freeze_time_sources
        kernel.on_time_thawed = self._thaw_time_sources

    # -- device management -------------------------------------------------------

    def attach_nic(self, iface: Interface) -> VirtualNIC:
        nic = VirtualNIC(self.sim, iface)
        self.nics.append(nic)
        return nic

    def attach_vbd(self, backend, name: str = "") -> VirtualBlockDevice:
        vbd = VirtualBlockDevice(self.sim, backend,
                                 name or f"{self.name}.vbd{len(self.vbds)}")
        self.vbds.append(vbd)
        return vbd

    # -- time virtualization --------------------------------------------------------

    def _freeze_time_sources(self) -> None:
        """§4.2: stop page updates, restrict TSC, suspend accounting."""
        self.page.frozen = True
        self.guest_tsc.restrict()
        self._account_runstate()
        self._accounting_suspended = True

    def _thaw_time_sources(self) -> None:
        self.guest_tsc.unrestrict()
        self.page.frozen = False
        self._accounting_suspended = False
        self._runstate_since = self.sim.now
        self.page.update()

    # -- run-state accounting ----------------------------------------------------------

    def _account_runstate(self) -> None:
        if self._accounting_suspended:
            return
        elapsed = self.sim.now - self._runstate_since
        self.runstate_ns[self.runstate] += elapsed
        self._runstate_since = self.sim.now

    def set_runstate(self, state: RunState) -> None:
        self._account_runstate()
        self.runstate = state

    def __repr__(self) -> str:
        return f"<Domain {self.name} {self.memory_bytes // MB} MB>"


class Hypervisor:
    """Xen on one machine: hosts domains and their time pages."""

    #: period of shared-info page updates.  Guests interpolate between
    #: updates with the TSC, so the period bounds how stale the page may
    #: be, not guest time precision.
    PAGE_UPDATE_PERIOD_NS = 50 * MS

    def __init__(self, sim: Simulator, machine: Machine,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.machine = machine
        self.tracer = tracer
        self.domains: Dict[str, Domain] = {}
        #: first tick of the page-update grid: the first domain's creation
        self.grid_origin_ns: Optional[int] = None

    def create_domain(self, name: str, memory_bytes: int = 256 * MB,
                      rng: Optional[random.Random] = None,
                      epoch_wall_ns: int = 0) -> Domain:
        """Boot a new paravirtualized guest.

        Without an explicit ``rng`` the domain draws from its own named
        substream, so co-hosted domains never share a draw sequence.
        """
        if name in self.domains:
            raise CheckpointError(f"domain {name} already exists")
        rng = rng or derived_rng(f"domain.{self.machine.name}.{name}")
        kernel = GuestKernel(self.sim, self.machine, name, rng=rng,
                             tracer=self.tracer, epoch_wall_ns=epoch_wall_ns)
        if self.grid_origin_ns is None:
            self.grid_origin_ns = self.sim.now
        domain = Domain(self, name, memory_bytes, kernel)
        self.domains[name] = domain
        return domain
