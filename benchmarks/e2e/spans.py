"""Host-time spans for the traced benchmark run (``--trace 1``).

Nothing under ``src/`` records these spans; the benchmark installs them
from outside, only in the traced process, in three ways:

1. a duck-typed ``begin()/end(t0, fn)`` object on the public
   ``Simulator.profiler`` hook makes each dispatched callback a root span,
   owned by the layer whose code the callback is;
2. a fixed table of each layer's public entry points (``ENTRY_POINTS``)
   is wrapped, and restored by :meth:`SpanTracer.uninstall`; a wrapped
   call that returns a generator has each of its resumes traced too;
3. each generator-process resume becomes a span owned by the layer of
   the innermost generator it resumes.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the traced phase.  Layers are
the ``repro`` packages in ``LAYERS``; code of any other package counts
towards ``sim``, and the benchmark's own workload code in ``rigs.py``
towards ``workloads``.  Spans carry an operation id (one checkpoint, one
Bonnie++ run or one navigation) and are kept in memory only when a span
file is asked for, then written out once the run is over.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from pathlib import Path
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("sim", "net", "guest", "xen", "clocksync", "checkpoint", "storage",
          "hw", "workloads", "testbed", "timetravel")
STAGES = ("prepare", "precopy", "quiesce", "suspend", "save", "branch",
          "resume")
_RIGS_FILE = str(Path(__file__).with_name("rigs.py"))

#: (module, class, methods) wrapped as spans of the module's layer
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.sim.core", "Simulator", ("run",)),
    ("repro.net.link", "Link", ("transmit",)),
    ("repro.net.dummynet", "Pipe", ("submit", "freeze", "thaw")),
    ("repro.net.interface", "Interface", ("deliver",)),
    ("repro.net.host", "Host", ("send",)),
    ("repro.net.tcp", "TCPConnection", ("handle", "send")),
    ("repro.net.delaynode", "DelayNode", ("freeze", "thaw", "capture_state")),
    ("repro.guest.timer", "VirtualTimerWheel", ("call_in", "freeze", "thaw")),
    ("repro.guest.firewall", "TemporalFirewall",
     ("raise_sequence", "lower_sequence")),
    ("repro.guest.kernel", "GuestKernel", ("spawn",)),
    ("repro.xen.checkpoint", "LocalCheckpointer",
     ("precopy", "quiesce", "suspend", "save", "resume")),
    ("repro.xen.hypervisor", "Hypervisor", ("create_domain",)),
    ("repro.xen.devices", "VirtualNIC", ("suspend", "resume")),
    ("repro.clocksync.clock", "SystemClock", ("read", "ns_until_local")),
    ("repro.clocksync.ntp", "NTPClient", ("start",)),
    ("repro.checkpoint.bus", "NotificationBus", ("publish", "_expire")),
    ("repro.checkpoint.coordinator", "Coordinator",
     ("checkpoint_scheduled", "checkpoint_now", "_abort_round")),
    ("repro.checkpoint.snapshot", "SnapshotStore", ("take", "restore")),
    ("repro.storage.branching", "BranchStore",
     ("read", "write", "take_checkpoint")),
    ("repro.storage.blockdev", "LinearVolume", ("read", "write")),
    ("repro.storage.lvm", "VolumeManager", ("create_golden", "create_branch")),
    ("repro.storage.imagestore", "NodeImageCache", ("ensure",)),
    ("repro.hw.disk", "Disk", ("read", "write")),
    ("repro.hw.cpu", "CPU", ("execute", "freeze", "thaw")),
    ("repro.workloads.bonnie", "BonnieBenchmark", ("run",)),
    ("repro.workloads.bittorrent", "BitTorrentSwarm", ("__init__", "start")),
    # the swarm's TCP receive callbacks, so TCP self time excludes them
    ("repro.workloads.bittorrent", "BitTorrentPeer",
     ("_on_data", "_on_requests")),
    ("repro.testbed.emulab", "Emulab", ("__init__", "define_experiment")),
    ("repro.testbed.emulab", "Experiment", ("swap_in",)),
    ("repro.timetravel.controller", "TimeTravelController",
     ("travel_to", "checkpoint", "perturb", "run_to")),
    ("repro.timetravel.replayable", "ReplayableExperiment", ("__init__",)),
)


def _layer(module: str) -> str:
    head = module.split(".", 1)[0]
    return head if head in LAYERS else "sim"


def _module_of_file(filename: str) -> str:
    """``.../repro/net/tcp.py`` -> ``net.tcp``; rigs.py -> workloads."""
    if filename == _RIGS_FILE:
        return "workloads.bench"
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return "sim.other"
    at = len(parts) - 1 - parts[::-1].index("repro")
    return ".".join(parts[at + 1:])


class Key:
    """Accumulated spans of one (layer, module, name)."""

    __slots__ = ("index", "layer", "module", "name", "calls", "spans",
                 "self_ns", "incl_ns")

    def __init__(self, index: int, layer: str, module: str,
                 name: str) -> None:
        self.index = index
        self.layer = layer
        self.module = module
        self.name = name
        self.calls = 0          # invocations of a wrapped entry point
        self.spans = 0          # spans closed (calls, resumes, dispatches)
        self.self_ns = 0
        self.incl_ns = 0


class SpanTracer:
    """Records layer spans while installed; see the module docstring."""

    def __init__(self, record_spans: bool = False) -> None:
        self.now = time.perf_counter_ns  # repro: noqa=DET001
        self.keys: Dict[Tuple[str, str, str], Key] = {}
        #: open spans: [key, start_ns, child_ns, span_id, parent_id]; the
        #: bottom frame stands for everything outside the traced spans
        self._stack: List[list] = [[self.key("bench", "bench", "outside"),
                                    self.now(), 0, 0, 0]]
        #: the operation the next spans belong to (-1: between operations)
        self.op = -1
        self.dispatches = 0
        self.resumes = 0
        self.counters: Dict[str, int] = {
            "net.retransmits": 0, "net.pipe_drops": 0,
            "checkpoint.bus_retransmits": 0, "snapshot.new_bytes": 0,
            "snapshot.total_bytes": 0, "timetravel.replays": 0,
            "timetravel.restores": 0, "timetravel.fallbacks": 0}
        #: completion intervals (ns) of asynchronous entry points
        self.intervals: Dict[str, List[int]] = {
            "swap_in": [], "storage.write": [], "storage.read": [],
            "hw.disk": [], "timetravel.replay": []}
        self._code_keys: Dict[tuple, Key] = {}
        self._restore: List[tuple] = []
        self._span_ids = 0
        self.spans: Optional[array] = array("q") if record_spans else None
        self._gen_code = self._traced_gen.__code__

    # ------------------------------------------------------------ accounting

    def key(self, layer: str, module: str, name: str) -> Key:
        found = self.keys.get((layer, module, name))
        if found is None:
            found = Key(len(self.keys), layer, module, name)
            self.keys[(layer, module, name)] = found
        return found

    def enter(self, key: Key) -> None:
        self._span_ids += 1
        self._stack.append([key, self.now(), 0, self._span_ids,
                            self._stack[-1][3]])

    def exit(self) -> None:
        frame = self._stack.pop()
        end = self.now()
        duration = end - frame[1]
        key = frame[0]
        key.spans += 1
        key.self_ns += duration - frame[2]
        key.incl_ns += duration
        self._stack[-1][2] += duration
        if self.spans is not None:
            self.spans.extend((key.index, frame[1], end, frame[3], frame[4],
                               self.op))

    def reset(self) -> None:
        """Zero every span total (swap-in intervals are kept)."""
        for key in self.keys.values():
            key.calls = key.spans = key.self_ns = key.incl_ns = 0
        self.dispatches = self.resumes = 0
        for name in self.counters:
            self.counters[name] = 0
        for name, samples in self.intervals.items():
            if name != "swap_in":
                samples.clear()
        if self.spans is not None:
            del self.spans[:]

    def _code_key(self, kind: str, code) -> Key:
        found = self._code_keys.get((kind, code))
        if found is None:
            module = _module_of_file(code.co_filename)
            found = self.key(_layer(module), module,
                             f"{kind}:{code.co_qualname}")
            self._code_keys[(kind, code)] = found
        return found

    # ------------------------------------------------ Simulator.profiler hook

    def begin(self) -> int:
        self._span_ids += 1
        self._stack.append([None, self.now(), 0, self._span_ids,
                            self._stack[-1][3]])
        return 0

    def end(self, _t0: int, fn) -> None:
        self.dispatches += 1
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "__wrapped__", func)
        code = getattr(func, "__code__", None)
        if code is None:            # an Event: its callbacks do the work
            kind = type(fn)
            found = self._code_keys.get(("type", kind))
            if found is None:
                module = kind.__module__.replace("repro.", "", 1)
                found = self.key(_layer(module), module,
                                 f"dispatch:{kind.__name__}")
                self._code_keys[("type", kind)] = found
        else:
            found = self._code_key("dispatch", code)
        self._stack[-1][0] = found
        self.exit()

    # ------------------------------------------------------------ generators

    def _traced_gen(self, gen, key: Key):
        """Drive ``gen`` for its caller, one span per resume."""
        value, error = None, None
        while True:
            self.enter(key)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target, error = gen.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:   # thrown in: forward to gen
                error = exc

    def _resume_key(self, gen) -> Key:
        code = None
        while gen is not None:
            gen_code = getattr(gen, "gi_code", None)
            if gen_code is None or gen_code is self._gen_code:
                break
            code = gen_code
            gen = gen.gi_yieldfrom
        if code is None:
            return self.key("sim", "sim.process", "resume:unknown")
        return self._code_key("resume", code)

    # ------------------------------------------------------------ wrapping

    def _patch(self, cls, attr: str, key: Optional[Key] = None,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        if key is None:
            module = cls.__module__.replace("repro.", "", 1)
            key = self.key(_layer(module), module,
                           f"{cls.__name__}.{attr}")
        tracer = self

        def traced(*args, **kwargs):
            key.calls += 1
            state = before(args) if before is not None else None
            start = tracer.now()
            tracer.enter(key)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result, state, start)
            if type(result) is GeneratorType:
                return tracer._traced_gen(result, key)
            return result

        traced.__wrapped__ = original
        setattr(cls, attr, traced)
        self._restore.append((cls, attr, original))

    def _replace(self, cls, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        replacement = make(original)
        replacement.__wrapped__ = original
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, original))

    def _completion(self, samples: List[int]) -> Callable:
        """An ``after`` hook timing call -> completion of the returned
        event (the callback schedules nothing, so results are unchanged)."""
        now = self.now

        def after(_args, event, _state, start):
            event.add_callback(lambda _ev: samples.append(now() - start))
        return after

    def install(self) -> None:
        """Wrap every entry point; call before any rig is built, because
        rigs bind some of these methods when they are constructed."""
        from repro.checkpoint.pipeline import Checkpointable
        from repro.sim.core import Simulator
        from repro.sim.process import Process

        tracer = self
        hooks = {
            ("Pipe", "submit"): dict(
                before=lambda a: a[0].dropped_loss + a[0].dropped_queue,
                after=self._count_drops),
            ("NotificationBus", "_expire"): dict(
                before=lambda a: a[0].retransmits,
                after=self._count_bus_retransmits),
            ("SnapshotStore", "take"): dict(after=self._count_snapshot),
            ("TimeTravelController", "travel_to"): dict(
                before=lambda a: dict(a[0].restore_stats),
                after=self._count_navigation),
            ("Experiment", "swap_in"): dict(
                after=self._completion(self.intervals["swap_in"])),
        }
        for name in ("BranchStore", "LinearVolume"):
            for op in ("read", "write"):
                hooks[(name, op)] = dict(after=self._completion(
                    self.intervals[f"storage.{op}"]))
        for op in ("read", "write"):
            hooks[("Disk", op)] = dict(
                after=self._completion(self.intervals["hw.disk"]))
        for module_name, class_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(cls, method, **hooks.get((class_name, method), {}))

        stage_keys = {stage: self.key("checkpoint", "checkpoint.pipeline",
                                      f"stage_{stage}") for stage in STAGES}
        pending, seen = [Checkpointable], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for stage in STAGES:
                if f"stage_{stage}" in cls.__dict__:
                    self._patch(cls, f"stage_{stage}", key=stage_keys[stage])

        def make_init(original):
            def __init__(sim, *args, **kwargs):
                original(sim, *args, **kwargs)
                sim.profiler = tracer
            return __init__
        self._replace(Simulator, "__init__", make_init)

        def make_resume(original):
            def _resume(process, event):
                tracer.resumes += 1
                tracer.enter(tracer._resume_key(process._generator))
                try:
                    original(process, event)
                finally:
                    tracer.exit()
            return _resume
        self._replace(Process, "_resume", make_resume)

        from repro.net.tcp import TCPConnection

        def make_transmit(original):
            def _transmit(conn, flags, seq, length, is_retransmit=False):
                if is_retransmit:
                    tracer.counters["net.retransmits"] += 1
                return original(conn, flags, seq, length, is_retransmit)
            return _transmit
        self._replace(TCPConnection, "_transmit", make_transmit)

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._restore:
            cls, attr, original = self._restore.pop()
            setattr(cls, attr, original)

    # ------------------------------------------------------------ hook bodies

    def _count_drops(self, args, _result, before, _start) -> None:
        pipe = args[0]
        self.counters["net.pipe_drops"] += (
            pipe.dropped_loss + pipe.dropped_queue - before)

    def _count_bus_retransmits(self, args, _result, before, _start) -> None:
        self.counters["checkpoint.bus_retransmits"] += (
            args[0].retransmits - before)

    def _count_snapshot(self, _args, manifest, _state, _start) -> None:
        self.counters["snapshot.new_bytes"] += manifest.new_chunk_bytes
        self.counters["snapshot.total_bytes"] += manifest.total_bytes

    def _count_navigation(self, args, _run, before, start) -> None:
        stats = args[0].restore_stats
        for name in ("replays", "restores", "fallbacks"):
            self.counters[f"timetravel.{name}"] += stats[name] - before[name]
        if stats["replays"] > before["replays"]:
            self.intervals["timetravel.replay"].append(self.now() - start)

    # ------------------------------------------------------------ results

    def layer_metrics(self, run_s: float, untraced_run_s: float
                      ) -> Dict[str, float]:
        """The per-layer metrics of the traced phase (names as in
        BENCHMARK.json)."""
        keys = list(self.keys.values())

        def total(attr: str, layer=None, module=None, name=None) -> int:
            return sum(getattr(k, attr) for k in keys
                       if (layer is None or k.layer == layer)
                       and (module is None or k.module == module)
                       and (name is None or k.name == name))

        def per(numerator: float, count: int) -> float:
            return numerator / count if count else 0.0

        def median_ms(samples: List[int]) -> float:
            return statistics.median(samples) / 1e6 if samples else 0.0

        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = total("self_ns", layer) / 1e6
            out[f"{layer}.calls"] = total("spans", layer)
        out["sim.dispatches"] = self.dispatches
        out["sim.resumes"] = self.resumes
        out["sim.ns_per_dispatch"] = per(total("self_ns", "sim"),
                                         self.dispatches)
        packets = total("calls", name="Link.transmit")
        segments = total("calls", name="TCPConnection.handle")
        out["net.packets"] = packets
        out["net.ns_per_packet"] = per(total("self_ns", "net"), packets)
        out["net.segments"] = segments
        out["net.ns_per_segment"] = per(
            total("self_ns", module="net.tcp"), segments)
        out["net.retransmits"] = self.counters["net.retransmits"]
        out["net.pipe_drops"] = self.counters["net.pipe_drops"]
        arms = total("calls", name="VirtualTimerWheel.call_in")
        out["guest.timer_arms"] = arms
        out["guest.ns_per_timer"] = per(
            total("self_ns", module="guest.timer"), arms)
        checkpoints = sum(total("calls", name=name) for name in (
            "Coordinator.checkpoint_scheduled", "Coordinator.checkpoint_now",
            "TimeTravelController.checkpoint"))
        for stage in STAGES:
            out[f"checkpoint.stage_{stage}_ms"] = per(
                total("incl_ns", "checkpoint", name=f"stage_{stage}") / 1e6,
                checkpoints)
        out["checkpoint.bus_published"] = total(
            "calls", name="NotificationBus.publish")
        out["checkpoint.bus_retransmits"] = \
            self.counters["checkpoint.bus_retransmits"]
        out["checkpoint.failed"] = total("calls",
                                         name="Coordinator._abort_round")
        out["checkpoint.snapshot_takes"] = total("calls",
                                                 name="SnapshotStore.take")
        out["checkpoint.snapshot_new_bytes_ratio"] = per(
            self.counters["snapshot.new_bytes"],
            self.counters["snapshot.total_bytes"])
        writes = self.intervals["storage.write"]
        reads = self.intervals["storage.read"]
        out["storage.writes"] = len(writes)
        out["storage.reads"] = len(reads)
        out["storage.ns_per_write"] = per(sum(writes), len(writes))
        out["storage.ns_per_read"] = per(sum(reads), len(reads))
        disk = self.intervals["hw.disk"]
        out["hw.disk_requests"] = len(disk)
        out["hw.ns_per_disk_request"] = per(sum(disk), len(disk))
        out["testbed.swap_in_ms"] = median_ms(self.intervals["swap_in"])
        for name in ("replays", "restores", "fallbacks"):
            out[f"timetravel.{name}"] = self.counters[f"timetravel.{name}"]
        out["timetravel.replay_ms"] = median_ms(
            self.intervals["timetravel.replay"])
        out["trace.run_s"] = run_s
        out["trace.overhead_pct"] = (run_s / untraced_run_s - 1.0) * 100.0
        return out

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        if self.spans is None:
            return 0
        by_index = {k.index: k for k in self.keys.values()}
        count = len(self.spans) // 6
        with open(path, "w", encoding="utf-8") as out:
            for i in range(count):
                index, start, end, span, parent, op = \
                    self.spans[6 * i:6 * i + 6]
                key = by_index[index]
                out.write(json.dumps({
                    "name": key.name, "layer": key.layer,
                    "module": key.module, "start_ns": start, "end_ns": end,
                    "span": span, "parent": parent, "op": op}) + "\n")
        return count
