"""Unit tests for the guest kernel and temporal firewall."""

import random

import pytest

from repro.errors import FirewallViolation
from repro.guest import Activity, GuestKernel, INSIDE_FIREWALL, ThreadKind
from repro.guest.activities import GateTable
from repro.guest.firewall import TemporalFirewall
from repro.hw import Machine
from repro.sim import Simulator
from repro.units import MS, SECOND, US


def make_kernel(sim, name="node0", seed=1):
    machine = Machine(sim, name, rng=random.Random(seed))
    return GuestKernel(sim, machine, name, rng=random.Random(seed + 1))


def drive_firewall(sim, kernel, up_for_ns):
    """Raise the firewall, wait, lower it (as the suspend thread would)."""

    def suspend_thread():
        yield from kernel.firewall.raise_sequence()
        yield sim.timeout(up_for_ns)
        yield from kernel.firewall.lower_sequence()

    return sim.process(suspend_thread())


def test_gate_table_check_and_violation_count():
    gates = GateTable("t")
    gates.check(Activity.TIMER)            # open: fine
    gates.close(INSIDE_FIREWALL)
    with pytest.raises(FirewallViolation):
        gates.check(Activity.TIMER)
    assert gates.violations == 1
    gates.check(Activity.XENBUS)           # outside-firewall class stays open
    gates.open(INSIDE_FIREWALL)
    gates.check(Activity.TIMER)


def test_sleep_runs_in_virtual_time():
    sim = Simulator()
    kernel = make_kernel(sim)
    log = []

    def body(k):
        while True:
            yield k.sleep(10 * MS)
            log.append(k.now())
            if len(log) >= 3:
                return

    kernel.spawn(body)
    sim.run(until=1 * SECOND)
    assert len(log) == 3
    for i, t in enumerate(log, start=1):
        assert abs(t - i * 10 * MS) < 100 * US


def test_cpu_work_executes_on_machine_cpu():
    sim = Simulator()
    kernel = make_kernel(sim)
    done = []

    def body(k):
        yield k.cpu(50 * MS)
        done.append(sim.now)

    kernel.spawn(body)
    sim.run(until=1 * SECOND)
    assert done and done[0] == pytest.approx(50 * MS, rel=1e-3)


def test_firewall_freezes_sleepers_and_time():
    sim = Simulator()
    kernel = make_kernel(sim)
    wakeups = []

    def sleeper(k):
        while True:
            yield k.sleep(10 * MS)
            wakeups.append((k.now(), sim.now))

    kernel.spawn(sleeper)
    sim.run(until=25 * MS)
    count_before = len(wakeups)
    drive_firewall(sim, kernel, up_for_ns=5 * SECOND)
    sim.run(until=4 * SECOND)
    # While the firewall is up nothing wakes.
    assert len(wakeups) == count_before
    assert kernel.frozen
    sim.run(until=10 * SECOND)
    # After lowering, wakeups resume and virtual time is continuous: the
    # virtual interval between consecutive wakeups stays ~10 ms.
    assert len(wakeups) > count_before
    vtimes = [v for v, _t in wakeups]
    gaps = [b - a for a, b in zip(vtimes, vtimes[1:])]
    assert all(gap < 11 * MS for gap in gaps)


def test_firewall_freezes_cpu_work():
    sim = Simulator()
    kernel = make_kernel(sim)
    finished = []

    def cruncher(k):
        yield k.cpu(100 * MS)
        finished.append(sim.now)

    kernel.spawn(cruncher)
    sim.run(until=30 * MS)
    drive_firewall(sim, kernel, up_for_ns=1 * SECOND)
    sim.run(until=5 * SECOND)
    assert finished
    # 30 ms ran before the freeze; ~70 ms after a ~1 s suspension.
    assert finished[0] == pytest.approx(1 * SECOND + 100 * MS, rel=0.01)


def test_firewall_raise_window_is_microseconds():
    sim = Simulator()
    kernel = make_kernel(sim)
    drive_firewall(sim, kernel, up_for_ns=10 * MS)
    sim.run(until=1 * SECOND)
    assert 0 < kernel.firewall.last_freeze_window_ns < 100 * US
    assert 0 < kernel.firewall.last_thaw_window_ns < 100 * US


def test_firewall_double_raise_rejected():
    sim = Simulator()
    kernel = make_kernel(sim)

    def bad():
        yield from kernel.firewall.raise_sequence()
        yield from kernel.firewall.raise_sequence()

    proc = sim.process(bad())
    with pytest.raises(FirewallViolation):
        sim.run(until=proc)


def test_lower_before_raise_rejected():
    sim = Simulator()
    kernel = make_kernel(sim)

    def bad():
        yield from kernel.firewall.lower_sequence()

    proc = sim.process(bad())
    with pytest.raises(FirewallViolation):
        sim.run(until=proc)


def test_user_cpu_submission_inside_firewall_is_a_violation():
    sim = Simulator()
    kernel = make_kernel(sim)
    drive_firewall(sim, kernel, up_for_ns=1 * SECOND)
    sim.run(until=100 * MS)          # firewall is up now
    assert kernel.frozen
    with pytest.raises(FirewallViolation):
        kernel.cpu(10 * MS)


def test_outside_firewall_cpu_allowed_during_checkpoint():
    sim = Simulator()
    kernel = make_kernel(sim)
    drive_firewall(sim, kernel, up_for_ns=1 * SECOND)
    sim.run(until=100 * MS)
    assert kernel.frozen
    done = kernel.cpu_outside(10 * MS)
    sim.run(until=200 * MS)
    assert done.processed


def test_gettimeofday_frozen_during_firewall():
    sim = Simulator()
    kernel = make_kernel(sim)
    drive_firewall(sim, kernel, up_for_ns=1 * SECOND)
    sim.run(until=500 * MS)
    t1 = kernel.gettimeofday()
    sim.run(until=900 * MS)
    t2 = kernel.gettimeofday()
    assert t1 == t2                      # time stands still inside


def test_thread_bookkeeping():
    sim = Simulator()
    kernel = make_kernel(sim)

    def body(k):
        yield k.sleep(1 * MS)

    t = kernel.spawn(body, name="worker", kind=ThreadKind.KERNEL)
    assert t.alive
    sim.run(until=10 * MS)
    assert not t.alive
    assert kernel.threads == [t]


def test_timer_expiring_between_gate_close_and_wheel_freeze_is_held():
    # Regression: the raise sequence closes the dispatch gates one step
    # before it freezes the timer wheel.  A timer expiring in that window
    # used to raise FirewallViolation; it must be held and fire right
    # after the lower sequence reopens the gates.
    sim = Simulator()
    kernel = make_kernel(sim)
    step = 10 * US
    kernel.firewall = TemporalFirewall(kernel, min_step_cost_ns=step,
                                       max_step_cost_ns=step)
    kernel.timers.max_slack_ns = 0      # the timer fires exactly on time
    woke = []

    def arm():
        # gates closed at 3 steps; the wheel freezes at 4 steps
        assert kernel.gates.is_closed(Activity.TIMER)
        assert not kernel.timers.frozen
        kernel.sleep(step // 2).add_callback(lambda _e: woke.append(sim.now))

    sim.call_at(3 * step + 1, arm)
    drive_firewall(sim, kernel, up_for_ns=1 * MS)
    sim.run(until=500 * US)
    assert kernel.frozen and woke == []
    sim.run(until=1 * SECOND)
    assert kernel.timers_held == 1
    # the lower sequence reopens the gates one step after thawing time
    assert woke == [kernel.firewall.last_clock_thawed_at_ns + step]
