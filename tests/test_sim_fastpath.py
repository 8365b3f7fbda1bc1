"""Scheduled calls: handles, cancellation, compaction.

Covers the zero-allocation ``schedule_call``/``schedule_fn`` API, lazy
tombstone deletion (skip at pop, compact past the threshold), sequence
number consumption, and the regression where tombstones at the heap head
dragged ``run(until=...)`` past its horizon.
"""

import inspect

import pytest

from repro.errors import SimulationError
from repro.sim import ScheduledCall, Simulator
from repro.sim.timers import SimTimerService
from repro.units import MS, SECOND


def test_schedule_call_runs_at_time():
    sim = Simulator()
    fired = []
    sim.schedule_call(500, lambda: fired.append(sim.now))
    sim.schedule_call(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100, 500]


def test_schedule_fn_bare_callable():
    sim = Simulator()
    fired = []
    sim.schedule_fn(250, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [250]


def test_call_in_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    handle = sim.call_in(1000, lambda: fired.append(1))
    assert isinstance(handle, ScheduledCall)
    assert handle.active
    handle.cancel()
    assert not handle.active
    sim.run()
    assert fired == []
    assert sim.now == 0         # nothing live ever ran


def test_cancel_is_idempotent_and_noop_after_fire():
    sim = Simulator()
    fired = []
    handle = sim.call_in(10, lambda: fired.append(1))
    sim.run()
    assert fired == [1] and not handle.active
    handle.cancel()             # after fire: no-op
    handle.cancel()
    assert sim._dead == 0       # fired handles are not tombstones


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule_call(50, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_call(10, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_fn(10, lambda: None)


def test_same_time_ordering_is_fifo_across_item_kinds():
    sim = Simulator()
    order = []
    sim.schedule_call(100, lambda: order.append("call"))
    sim.schedule_fn(100, lambda: order.append("fn"))
    sim.timeout(100).callbacks.append(lambda _e: order.append("event"))
    sim.run()
    assert order == ["call", "fn", "event"]


def test_tombstones_compact_past_threshold():
    sim = Simulator()
    handles = [sim.call_in(1 * SECOND, lambda: None) for _ in range(300)]
    assert len(sim._heap) + len(sim._tail) == 300
    for h in handles:
        h.cancel()
    # Compaction triggered once tombstones passed COMPACT_MIN and half
    # the live store: both lanes shrank without running anything.
    assert len(sim._heap) + len(sim._tail) < 300
    assert sim._dead < Simulator.COMPACT_MIN
    sim.run()
    assert sim.now == 0


def test_peek_skips_tombstones():
    sim = Simulator()
    early = sim.call_in(10, lambda: None)
    sim.call_in(20, lambda: None)
    early.cancel()
    assert sim.peek() == 20


def test_run_until_horizon_ignores_tombstones_at_head():
    # Regression: a cancelled entry below the horizon must not let the
    # loop step into a live event *beyond* the horizon.
    sim = Simulator()
    fired = []
    doomed = sim.call_in(1 * MS, lambda: fired.append("doomed"))
    sim.call_in(5 * SECOND, lambda: fired.append("late"))
    doomed.cancel()
    sim.run(until=1 * SECOND)
    assert fired == []
    assert sim.now == 1 * SECOND


def test_timer_service_cancellation_reclaims_heap_entry():
    sim = Simulator()
    svc = SimTimerService(sim)
    handle = svc.call_in(60 * SECOND, lambda: None)
    assert len(sim._heap) + len(sim._tail) == 1
    handle.cancel()
    assert sim._dead == 1 or len(sim._heap) + len(sim._tail) == 0
    assert sim.peek() is None


def test_cancelled_call_is_skipped_between_same_instant_calls():
    sim = Simulator()
    fired = []
    sim.call_at(100, lambda: fired.append("a"))
    b = sim.call_at(100, lambda: fired.append("b"))
    sim.call_at(100, lambda: fired.append("c"))
    b.cancel()
    sim.run()
    assert fired == ["a", "c"]
    assert sim.now == 100


def test_each_scheduling_call_consumes_one_sequence_number():
    # One seq per call, whatever the item kind: snapshots record the
    # (when, priority, seq) triple and restore it verbatim.
    sim = Simulator()
    sim.schedule_call(10, lambda: None)
    sim.schedule_fn(20, lambda: None)
    sim.call_in(30, lambda: None)
    assert sim._seq == 3


def test_simple_scenario_event_trace():
    # A deterministic microworld: the callbacks fire at their instants in
    # scheduling order, and a cancelled one never fires.
    sim = Simulator()
    order = []
    sim.call_at(1 * SECOND, lambda: order.append(("a", sim.now)))
    doomed = sim.call_at(2 * SECOND, lambda: order.append(("x", sim.now)))
    sim.call_at(2 * SECOND, lambda: order.append(("b", sim.now)))
    sim.schedule_fn(2 * SECOND, lambda: order.append(("c", sim.now)))
    doomed.cancel()
    sim.run(until=3 * SECOND)
    assert order == [("a", 1 * SECOND), ("b", 2 * SECOND),
                     ("c", 2 * SECOND)]


def test_simulator_takes_no_scheduling_mode():
    # One scheduler path: the constructor accepts no mode arguments.
    assert not inspect.signature(Simulator).parameters
    with pytest.raises(TypeError):
        Simulator(batching=True)


def test_fast_mode_drains_without_running_cancelled_work():
    sim = Simulator()
    handle = sim.call_in(1 * SECOND, lambda: None)
    handle.cancel()
    sim.run()
    assert sim.now == 0             # tombstone skipped, clock never moved
