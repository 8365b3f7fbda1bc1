"""``VirtualTimerWheel.rearm`` against its reference, cancel + ``call_in``.

Two worlds run the same seeded sequence of arms, cancels, re-arms,
freezes, thaws and serialize -> restore round trips.  One re-arms with
:meth:`VirtualTimerWheel.rearm`; the other cancels the handle and arms
its callback again with ``call_in``, which is what ``rearm`` must be
observably equal to.  A recorder on the simulator's dispatch hook (the
race detector's ``observe``) logs every dispatched ``(when, priority,
seq, callback)``, leaving out the lazy world's guard wake-ups, and the
timer callbacks log their firings into the same stream.  After every
step the streams, the frontier, the wheel's RNG state and the wheel's
serialized state must be equal.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.guest.timer import VirtualTimerWheel, _Guard
from repro.guest.vclock import VirtualClock
from repro.sim import Simulator
from repro.sim.timers import SimTimerService
from repro.units import MS, US

SLOTS = 6
MAX_SLACK_NS = 5 * US


class DispatchRecorder:
    """Logs dispatches through the race detector's ``observe`` hook."""

    def __init__(self, log: list) -> None:
        self.log = log
        self.guards = 0

    def observe(self, when, priority, seq, fn) -> None:
        if fn.__class__ is _Guard:
            self.guards += 1
            return
        self.log.append(("dispatch", when, priority, seq,
                         getattr(fn, "__qualname__", type(fn).__name__)))


class World:
    """A guest clock and timer wheel with ``SLOTS`` tagged timers."""

    def __init__(self, lazy: bool, log: list, seed: int) -> None:
        self.lazy = lazy
        self.log = log
        self.sim = Simulator()
        self.recorder = DispatchRecorder(log)
        self.sim.race_detector = self.recorder
        self.vclock = VirtualClock(self.sim)
        self.wheel = VirtualTimerWheel(self.sim, self.vclock,
                                       random.Random(seed),
                                       max_slack_ns=MAX_SLACK_NS)
        self.handles = [None] * SLOTS
        self.guards_before = 0
        self.deferred = 0                   # re-arms that kept a guard

    @property
    def guards(self) -> int:
        return self.guards_before + self.recorder.guards

    def callback(self, slot: int):
        def fire() -> None:
            self.log.append(("fire", self.sim.now, slot))
            self.handles[slot] = None
            # A timer re-armed from inside a firing batch: slot 1 may sit
            # in the batch that is being dispatched right now.
            if slot == 0 and self.handles[1] is not None:
                self.rearm(1, 0)
        return fire

    def arm(self, slot: int, delay: int) -> None:
        self.handles[slot] = self.wheel.call_in(delay, self.callback(slot),
                                                tag=f"t{slot}")

    def cancel(self, slot: int) -> None:
        self.handles[slot].cancel()
        self.handles[slot] = None

    def rearm(self, slot: int, delay: int) -> None:
        handle = self.handles[slot]
        if self.lazy:
            assert self.wheel.rearm(handle, delay) is handle
            fire_at = handle._call.fire_at
            if fire_at >= 0 and \
                    self.wheel._due_calls[fire_at].fn.__class__ is _Guard:
                self.deferred += 1
            return
        fn, tag = handle._fn, handle._call.tag
        handle.cancel()
        self.handles[slot] = self.wheel.call_in(delay, fn, tag=tag)

    def freeze(self) -> None:
        self.vclock.freeze()
        self.wheel.freeze()

    def thaw(self) -> None:
        self.vclock.thaw()
        self.wheel.thaw()

    def restored(self) -> "World":
        """A fresh world restored from this one's serialized state."""
        frontier = self.sim.frontier_state()
        clock = self.vclock.serialize_state()
        wheel = self.wheel.serialize_state()
        fresh = World(self.lazy, self.log, seed=-1)
        fresh.guards_before = self.guards
        fresh.deferred = self.deferred
        fresh.sim.restore_frontier(frontier["now"], frontier["seq"])
        fresh.vclock.restore_state(clock)
        handles = fresh.wheel.restore_state(
            wheel, lambda tag: fresh.callback(int(tag[1:])))
        fresh.handles = [handles.get(f"t{slot}") for slot in range(SLOTS)]
        return fresh


def predicted_slack(wheel: VirtualTimerWheel) -> int:
    """The slack the wheel's next arm will draw."""
    probe = random.Random()
    probe.setstate(wheel.rng.getstate())
    return probe.randint(0, wheel.max_slack_ns)


def delay_onto(world: World, rng: random.Random):
    """A delay whose fire instant is an existing batch's, or None."""
    now = world.sim.now
    slack = predicted_slack(world.wheel)
    instants = sorted(t for t in world.wheel._due if t - now - slack >= 0)
    if not instants:
        return None
    return rng.choice(instants) - now - slack


def rearm_delay(world: World, slot: int, kind: str,
                rng: random.Random) -> int:
    fire_at = world.handles[slot]._call.fire_at
    ahead = fire_at - world.sim.now if fire_at >= 0 else 10 * MS
    if kind == "later":
        return ahead + rng.randrange(0, 10 * MS)
    if kind == "earlier":
        return rng.randrange(0, max(1, ahead - MAX_SLACK_NS))
    if kind == "onto":
        delay = delay_onto(world, rng)
        if delay is not None:
            return delay
    return rng.randrange(0, 30 * MS)


def assert_same(a: World, b: World) -> None:
    assert a.log is not b.log
    assert a.log == b.log
    assert a.sim.frontier_state() == b.sim.frontier_state()
    assert a.wheel.rng.getstate() == b.wheel.rng.getstate()
    assert a.wheel.serialize_state() == b.wheel.serialize_state()


def step(worlds, rng: random.Random, tally: dict) -> None:
    lead = worlds[0]
    live = [s for s in range(SLOTS) if lead.handles[s] is not None]
    free = [s for s in range(SLOTS) if lead.handles[s] is None]
    op = rng.choice(["arm", "arm", "cancel", "rearm", "rearm", "rearm",
                     "rearm", "rearm", "advance", "advance", "advance",
                     "advance", "freeze", "snapshot"])
    if op == "arm" and free:
        slot = rng.choice(free)
        delay = delay_onto(lead, rng) if rng.random() < 0.5 else None
        if delay is None:
            delay = rng.randrange(0, 30 * MS)
        for w in worlds:
            w.arm(slot, delay)
    elif op == "cancel" and live:
        slot = rng.choice(live)
        for w in worlds:
            w.cancel(slot)
    elif op == "rearm" and live:
        in_shared = [s for s in live if len(lead.wheel._due.get(
            lead.handles[s]._call.fire_at, ())) > 1]
        slot = rng.choice(in_shared if in_shared and rng.random() < 0.5
                          else live)
        kind = rng.choice(["later", "earlier", "onto", "any"])
        tally["shared" if slot in in_shared else kind] += 1
        delay = rearm_delay(lead, slot, kind, rng)
        for w in worlds:
            w.rearm(slot, delay)
    elif op == "freeze":
        if lead.wheel.frozen:
            pause = rng.randrange(0, 5 * MS)
            for w in worlds:
                w.sim.run(until=w.sim.now + pause)
                w.thaw()
        else:
            for w in worlds:
                w.freeze()
        tally["freeze"] += 1
    elif op == "snapshot":
        worlds[:] = [w.restored() for w in worlds]
        tally["snapshot"] += 1
    else:
        horizon = lead.sim.now + rng.randrange(0, 12 * MS)
        for w in worlds:
            w.sim.run(until=horizon)


SEEDS = range(24)
CASES = ("later", "earlier", "onto", "any", "shared", "freeze", "snapshot")


def run_session(seed: int, steps: int = 200):
    """Drive both worlds through one seeded session, comparing after
    every step and after draining; returns the worlds and a tally of
    the cases met."""
    rng = random.Random(seed)
    worlds = [World(lazy=True, log=[], seed=seed),
              World(lazy=False, log=[], seed=seed)]
    tally = dict.fromkeys(CASES, 0)
    for _ in range(steps):
        step(worlds, rng, tally)
        assert_same(*worlds)
    for w in worlds:
        if w.wheel.frozen:
            w.thaw()
        w.sim.run()
    assert_same(*worlds)
    return worlds, tally


@pytest.mark.parametrize("seed", SEEDS)
def test_rearm_matches_cancel_then_call_in(seed):
    (lazy, eager), tally = run_session(seed)
    assert lazy.deferred > 0 and eager.guards == 0
    assert any(entry[0] == "fire" for entry in lazy.log)
    assert all(tally[k] > 0 for k in ("later", "earlier", "onto",
                                      "freeze", "snapshot")), tally


def test_sessions_cover_shared_batches_and_guard_wakeups():
    # Rarer cases, counted over all seeds: a re-arm out of a shared
    # batch, and a guard that fires (freezes and snapshots drop guards).
    shared = guards = 0
    for seed in SEEDS:
        (lazy, _eager), tally = run_session(seed)
        shared += tally["shared"]
        guards += lazy.guards
    assert shared > 24 and guards > 24


def test_rearm_keeps_the_store_entry_as_a_guard():
    sim = Simulator()
    wheel = VirtualTimerWheel(sim, VirtualClock(sim), random.Random(1),
                              max_slack_ns=0)
    fired = []
    handle = wheel.call_in(10 * MS, lambda: fired.append(sim.now))
    stored = sim.pending_count
    seq = sim.frontier_state()["seq"]
    for delay in (20 * MS, 30 * MS, 40 * MS):
        assert wheel.rearm(handle, delay) is handle
    assert sim.pending_count == stored          # no insert per re-arm
    assert sim.frontier_state()["seq"] == seq + 3   # one seq each
    sim.run(until=10 * MS)
    assert sim.pending_count == 1               # the guard inserted the batch
    assert fired == []
    sim.run()
    assert fired == [40 * MS]


def test_rearm_of_a_fired_or_cancelled_timer_is_rejected():
    sim = Simulator()
    wheel = VirtualTimerWheel(sim, VirtualClock(sim), random.Random(1))
    service = SimTimerService(sim)
    for timers in (wheel, service):
        handle = timers.call_in(MS, lambda: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            timers.rearm(handle, MS)
        handle = timers.call_in(MS, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            timers.rearm(handle, MS)
