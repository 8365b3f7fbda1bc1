"""The lazy shared-info page equals the eager update loop it replaced.

:class:`EagerPages` is the reference model: the loop Xen's page model
used to run, one generator per hypervisor that rewrote every unfrozen
domain's page every ``PAGE_UPDATE_PERIOD_NS``, plus a rewrite at domain
creation and at thaw.  It writes shadow pages on the same simulator, and
the tests compare them with the lazy pages at random instants over seeded
random schedules of domain creation, firewall raise/lower cycles and
direct ``page.frozen`` flips.
"""

import random

import pytest

from repro.errors import CheckpointError
from repro.guest.firewall import FirewallState
from repro.hw import Machine
from repro.sim import Simulator
from repro.units import MS, SECOND
from repro.xen import Hypervisor

PERIOD = Hypervisor.PAGE_UPDATE_PERIOD_NS
FIELDS = ("system_time_ns", "wall_time_ns", "tsc_at_update", "updates")


class ShadowPage:
    def __init__(self) -> None:
        self.system_time_ns = 0
        self.wall_time_ns = 0
        self.tsc_at_update = 0
        self.updates = 0


class EagerPages:
    """The eager page model, kept here as the reference only."""

    def __init__(self, sim: Simulator, hypervisor: Hypervisor) -> None:
        self.sim = sim
        self.hypervisor = hypervisor
        self.shadows = {}
        self._updating = False

    def create_domain(self, name: str, seed: int):
        domain = self.hypervisor.create_domain(
            name, rng=random.Random(seed), epoch_wall_ns=seed * SECOND)
        self.shadows[name] = ShadowPage()
        self.update_page(domain)
        if not self._updating:
            self._updating = True
            self.sim.process(self._page_update_loop())
        thawed = domain.kernel.on_time_thawed

        def on_time_thawed():
            thawed()
            self.update_page(domain)

        domain.kernel.on_time_thawed = on_time_thawed
        return domain

    def update_page(self, domain) -> None:
        if domain.page.frozen:
            return
        shadow = self.shadows[domain.name]
        shadow.system_time_ns = domain.kernel.vclock.now()
        shadow.wall_time_ns = domain.kernel.vclock.wall_time()
        shadow.tsc_at_update = domain.guest_tsc.read()
        shadow.updates += 1

    def _page_update_loop(self):
        while True:
            for domain in self.hypervisor.domains.values():
                self.update_page(domain)
            yield self.sim.timeout(PERIOD)

    def time_source(self, domain):
        """ParavirtTimeSource's interpolation over the shadow page."""
        shadow = self.shadows[domain.name]
        tsc_hz = domain.time_source.tsc_hz
        delta = domain.guest_tsc.read() - shadow.tsc_at_update
        return (shadow.system_time_ns + int(delta * 1e9 / tsc_hz),
                shadow.wall_time_ns + int(delta * 1e9 / tsc_hz))


def assert_page_matches(eager: EagerPages, domain) -> None:
    shadow = eager.shadows[domain.name]
    lazy = {f: getattr(domain.page, f) for f in FIELDS}
    assert lazy == {f: getattr(shadow, f) for f in FIELDS}, (
        domain.name, domain.sim.now)
    assert (domain.time_source.system_time(),
            domain.time_source.wall_time()) == eager.time_source(domain)


def firewall_cycle(sim, kernel, downtime_ns):
    yield from kernel.firewall.raise_sequence()
    yield sim.timeout(downtime_ns)
    yield from kernel.firewall.lower_sequence()


def random_schedule(rng: random.Random, end_ns: int):
    """Sorted (time, action) pairs for two hypervisors.

    Domain creation lands on and off the page grid; a quarter of the reads
    land exactly on a grid tick of one of the two hypervisors.
    """
    actions = []
    for h in range(2):
        first = rng.choice([0, rng.randrange(0, 200 * MS)])
        actions.append((first, ("create", h, 2)))
        later = first + rng.randrange(1, 20) * PERIOD
        if rng.random() < 0.5:
            later += rng.randrange(1, PERIOD)
        actions.append((later, ("create", h, 1)))
        actions += [(first + rng.randrange(end_ns // PERIOD) * PERIOD,
                     ("read",)) for _ in range(5)]
    actions += [(rng.randrange(end_ns), ("read",)) for _ in range(30)]
    actions += [(rng.randrange(end_ns), ("cycle",)) for _ in range(12)]
    actions += [(rng.randrange(end_ns), ("flip",)) for _ in range(12)]
    actions.sort(key=lambda pair: pair[0])
    return actions


@pytest.mark.parametrize("seed", range(8))
def test_lazy_page_matches_eager_loop(seed):
    rng = random.Random(seed)
    sim = Simulator()
    eagers = [EagerPages(sim, Hypervisor(
        sim, Machine(sim, f"m{h}", rng=random.Random(100 * seed + h))))
        for h in range(2)]
    domains = []
    reads = frozen_reads = 0
    for when, action in random_schedule(rng, 3 * SECOND):
        sim.run(until=when)
        kind = action[0]
        if kind == "create":
            _kind, h, count = action
            eager = eagers[h]
            for _ in range(count):
                name = f"d{len(domains)}"
                domains.append((eager, eager.create_domain(
                    name, seed=1000 * seed + len(domains))))
        elif not domains:
            continue
        elif kind == "cycle":
            _eager, domain = rng.choice(domains)
            if domain.kernel.firewall.state == FirewallState.DOWN:
                sim.process(firewall_cycle(
                    sim, domain.kernel, rng.randrange(1, 300 * MS)))
        elif kind == "flip":
            _eager, domain = rng.choice(domains)
            page = domain.page
            if not page.frozen:
                page.frozen = True
            elif domain.guest_tsc.restricted:
                with pytest.raises(CheckpointError):
                    page.frozen = False
            else:
                page.frozen = False
        # Let same-instant events run (the eager loop's first pass).
        sim.run(until=sim.now)
        if kind == "read":
            for eager, domain in rng.sample(domains, rng.randint(1, len(domains))):
                assert_page_matches(eager, domain)
                reads += 1
                frozen_reads += domain.page.frozen
    for eager, domain in domains:
        assert_page_matches(eager, domain)
    assert reads > 40 and frozen_reads > 0
    assert sum(d.kernel.firewall.raises for _e, d in domains) > 0


def test_page_catches_up_across_a_long_quiet_stretch():
    sim = Simulator()
    eager = EagerPages(sim, Hypervisor(sim, Machine(
        sim, "m0", rng=random.Random(5))))
    domain = eager.create_domain("d0", seed=5)
    sim.run(until=1 * SECOND + 7)
    page = domain.page
    sim.run(until=4 * SECOND + PERIOD)
    assert page.updates == eager.shadows["d0"].updates == 2 + 81
    assert_page_matches(eager, domain)


def test_page_refuses_to_thaw_while_the_tsc_is_restricted():
    sim = Simulator()
    hypervisor = Hypervisor(sim, Machine(sim, "m0", rng=random.Random(6)))
    domain = hypervisor.create_domain("d0", rng=random.Random(7))
    domain.page.frozen = True
    domain.guest_tsc.restrict()
    with pytest.raises(CheckpointError, match="TSC is restricted"):
        domain.page.frozen = False
    assert domain.page.frozen


def test_hypervisor_with_domains_lets_the_run_drain():
    """No per-tick event keeps the heap alive: ``run()`` returns."""
    sim = Simulator()
    hypervisor = Hypervisor(sim, Machine(sim, "m0", rng=random.Random(2)))
    domain = hypervisor.create_domain("d0", rng=random.Random(3))
    hypervisor.create_domain("d1", rng=random.Random(4))
    sim.run()
    assert sim.now < PERIOD
    sim.run(until=1 * SECOND)
    assert domain.page.updates == 22
