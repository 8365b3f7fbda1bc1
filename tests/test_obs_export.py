"""Chrome/Perfetto timeline export + the ``repro scenario --trace`` path."""

import json

import pytest

from repro.obs import (ListSink, SpanRecord, TraceRecord, Tracer,
                       chrome_trace_events, write_chrome_trace)
from repro.obs.export import instant_track


# ---------------------------------------------------------------------------
# event mapping
# ---------------------------------------------------------------------------

def test_sync_span_maps_to_complete_event_in_microseconds():
    events = chrome_trace_events([
        SpanRecord(time=2_000, category="checkpoint.stage",
                   fields={"stage": "save"}, end_time=5_000,
                   track="node0", name="save")])
    x = [e for e in events if e["ph"] == "X"][0]
    assert (x["ts"], x["dur"]) == (2.0, 3.0)
    assert x["name"] == "save" and x["args"]["stage"] == "save"


def test_async_span_maps_to_begin_end_pair_with_shared_id():
    events = chrome_trace_events([
        SpanRecord(time=0, category="bus.retransmit.burst", fields={},
                   end_time=9_000, track="bus/node1", name="burst",
                   kind="async", span_id=7)])
    b = [e for e in events if e["ph"] == "b"][0]
    e = [e for e in events if e["ph"] == "e"][0]
    assert b["id"] == e["id"] == "0x7"
    assert b["ts"] == 0 and e["ts"] == 9.0


def test_point_records_become_instants_on_heuristic_tracks():
    recs = [TraceRecord(0, "fault.agent.crash", {"agent": "node3"}),
            TraceRecord(1, "bus.drop", {"topic": "x"})]
    assert instant_track(recs[0]) == "node3"
    assert instant_track(recs[1]) == "bus"
    events = chrome_trace_events(recs)
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 2 and all(e["s"] == "t" for e in instants)


def test_metadata_names_process_and_every_track():
    events = chrome_trace_events([
        SpanRecord(time=0, category="c", fields={}, end_time=1,
                   track="node0", name="n"),
        SpanRecord(time=0, category="c", fields={}, end_time=1,
                   track="node1", name="n")])
    meta = [e for e in events if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "repro"
    assert sorted(m["args"]["name"] for m in meta[1:]) == ["node0", "node1"]
    # Distinct tracks get distinct thread ids.
    tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert len(tids) == 2


def test_non_json_fields_are_stringified():
    events = chrome_trace_events([
        TraceRecord(0, "c", {"obj": object(), "n": 3})])
    args = events[-1]["args"]
    assert args["n"] == 3 and isinstance(args["obj"], str)


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(
        [TraceRecord(0, "c", {})], str(path))
    payload = json.loads(path.read_text())
    # process metadata + track metadata + the instant itself
    assert len(payload["traceEvents"]) == count == 3
    assert payload["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# acceptance: ckpt10 traced end to end
# ---------------------------------------------------------------------------

def test_traced_ckpt10_covers_all_stages_on_all_nodes_and_keeps_golden():
    from repro.sim import Simulator
    from repro.testbed.compile import (compile_scenario, load_goldens,
                                       load_named)

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, sink=ListSink())
    digest = compile_scenario(load_named("ckpt10_coordinated")).run(
        sim=sim, tracer=tracer).digest

    # Tracing must not move the stored golden by a single bit.
    assert digest == load_goldens()["ckpt10_coordinated"]

    events = chrome_trace_events(tracer.records)
    stages = {}
    for e in events:
        if e["ph"] == "X" and e["cat"] == "checkpoint.stage":
            session = e["args"]["session"]
            stages.setdefault(session, set()).add(e["name"])
    # Every node's pipeline ran all seven stages, visible as spans.
    expected = {"prepare", "precopy", "quiesce", "suspend", "branch",
                "save", "resume"}
    node_sessions = [s for s in stages if "/node" in s]
    assert len(node_sessions) == 10
    for session in node_sessions:
        assert stages[session] == expected
    # The coordinator contributes its session/round structure too.
    cats = {e["cat"] for e in events if e["ph"] == "X"}
    assert {"checkpoint.session", "checkpoint.round"} <= cats


def test_tracing_on_off_digest_equivalence_fig4():
    from repro.sim import Simulator
    from repro.testbed.compile import compile_scenario, load_named

    fig4 = compile_scenario(load_named("fig4_sleep"))
    plain = fig4.run().digest
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now)
    traced = fig4.run(sim=sim, tracer=tracer).digest
    assert plain == traced
    assert tracer.count("checkpoint.stage") == 21    # 3 ckpts x 7 stages
