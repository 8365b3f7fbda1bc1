"""Unit tests: metrics registry + its adoption in the control plane."""

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_counter_is_monotonic():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(10)
    g.inc(3)
    g.dec(5)
    assert g.value == 8


def test_histogram_buckets_and_summary():
    h = Histogram(buckets=(10, 100))
    for v in (3, 42, 9000):
        h.observe(v)
    assert (h.count, h.sum, h.min, h.max) == (3, 9045, 3, 9000)
    d = h.to_dict()
    assert d["buckets"] == {"10": 1, "100": 1, "+inf": 1}
    assert d["mean"] == pytest.approx(3015.0)
    with pytest.raises(ValueError):
        Histogram(buckets=(100, 10))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_series_identity_and_label_keys():
    reg = MetricsRegistry()
    assert reg.counter("bus.sent") is reg.counter("bus.sent")
    assert reg.counter("bus.sent", node="a") is not \
        reg.counter("bus.sent", node="b")
    reg.counter("bus.sent", topic="ckpt", node="n1").inc()
    snap = reg.snapshot()
    # Labels are sorted inside the series key, so kwargs order is free.
    assert snap["counters"]["bus.sent{node=n1,topic=ckpt}"] == 1


def test_probes_are_lazy_and_shadow_push_gauges():
    reg = MetricsRegistry()
    state = {"in_flight": 0}
    reg.probe("pipe.in_flight", lambda: state["in_flight"], pipe="lan0")
    reg.gauge("pipe.in_flight", pipe="lan0").set(-99)   # shadowed
    state["in_flight"] = 17
    snap = reg.snapshot()
    assert snap["gauges"]["pipe.in_flight{pipe=lan0}"] == 17


def test_snapshot_is_json_safe_and_deterministically_ordered():
    reg = MetricsRegistry()
    reg.counter("z.last").inc()
    reg.counter("a.first").inc(2)
    reg.histogram("h", buckets=(1, 2)).observe(1)
    blob1 = json.dumps(reg.snapshot(), sort_keys=True)
    blob2 = json.dumps(reg.snapshot(), sort_keys=True)
    assert blob1 == blob2
    assert list(reg.snapshot()["counters"]) == ["a.first", "z.last"]
    assert reg.counters_with_prefix("a.") == {"a.first": 2}
    reg.clear()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ---------------------------------------------------------------------------
# adoption: bus, supervisor, injector share one registry
# ---------------------------------------------------------------------------

def test_bus_counters_are_registry_backed():
    from repro.checkpoint import NotificationBus
    from repro.clocksync.ntp import PathDelayModel
    from repro.sim import Simulator
    from repro.sim.random import derived_rng

    sim = Simulator()
    bus = NotificationBus(sim, derived_rng("t"), PathDelayModel())
    got = []
    bus.subscribe("ckpt", "node0", got.append)
    bus.publish("ckpt", {"epoch": 1})
    sim.run()
    assert got and bus.published == 1 and bus.delivered == 1
    snap = bus.metrics.snapshot()
    assert snap["counters"]["bus.published"] == 1
    assert snap["counters"]["bus.delivered"] == 1
    # The attribute views are read-only: the registry owns the numbers.
    with pytest.raises(AttributeError):
        bus.published = 5


def test_faultstorm_report_carries_control_plane_snapshot():
    from repro.testbed.compile import compile_scenario, load_named

    details = compile_scenario(load_named(
        "ckpt10_faultstorm", {"run.seconds": 20})).run().details
    assert details["completed"]
    metrics = details["metrics"]
    counters = metrics["counters"]
    assert counters["bus.published"] > 0
    # Supervisor and injector metrics land in the same registry.
    assert any(k.startswith("supervisor.attempts") for k in counters)
    assert any(k.startswith("fault.") for k in counters)
    # Pull probes covered the hot paths without touching them per packet.
    gauges = metrics["gauges"]
    assert any(k.startswith("pipe.delivered") for k in gauges)
    assert any(k.startswith("branch.log_appends") for k in gauges)
    blob = json.dumps(metrics, sort_keys=True)
    assert json.loads(blob) == metrics
