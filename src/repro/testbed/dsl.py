"""Declarative scenario DSL: schema-validated TOML/JSON testbed files.

A scenario file describes a complete experiment — topology (nodes,
links, LANs with their Dummynet pipe parameters), workloads, checkpoint
schedule, fault plan and seeds — and compiles (:mod:`repro.testbed.compile`) into an
:class:`~repro.testbed.emulab.Emulab` rig.  The files under
``examples/scenarios/`` are the only definition of the paper's figure
experiments; a variant is a file plus dotted-path overrides
(:func:`load_scenario`).  The schema reference with every table and key
lives in ``docs/scenarios.md``.

Three design rules:

* **Placeholders first.**  ``{{ NAME }}`` markers anywhere in the raw
  file text are replaced by environment variables *before* parsing (the
  proto2testbed convention), so a placeholder can stand in for numbers
  and tables, not just strings.  Missing variables abort with the full
  list of unresolved names.
* **Positional errors.**  Every validation failure names the offending
  key by path — ``nodes[1].memory_mb``, ``faults.crashes[0].agent`` —
  via :class:`~repro.errors.ScenarioError`.
* **Closed schema.**  Unknown tables and keys are rejected (with the
  known-key list), so typos fail loudly instead of silently skewing an
  experiment.

    >>> spec = parse_scenario({
    ...     "scenario": {"name": "demo", "seed": 7},
    ...     "nodes": [{"name": "n", "count": 2, "memory_mb": 64}],
    ...     "lans": [{"name": "lan0", "members": "all"}],
    ... })
    >>> [n.name for n in spec.experiment.nodes]
    ['n0', 'n1']
    >>> spec.experiment.lans[0].members
    ('n0', 'n1')
    >>> parse_scenario({"scenario": {"name": "demo"},
    ...                 "nodes": [{"name": "x", "memory_mb": "lots"}]})
    Traceback (most recent call last):
      ...
    repro.errors.ScenarioError: <dict>: nodes[0].memory_mb: expected number, got str 'lots'
"""

from __future__ import annotations

import copy
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ScenarioError
from repro.faults.plan import (AgentCrash, BusFaultConfig, ClockStep,
                               DelayNodeFailure, DiskFault, FaultPlan,
                               MessageLoss, ProcessCrash)
from repro.testbed.experiment import (ExperimentSpec, LanSpec, LinkSpec,
                                      NodeSpec)
from repro.units import MB, MBPS, MS, SECOND

__all__ = [
    "CheckpointSchedule", "RunSpec", "ScenarioSpec", "WorkloadSpec",
    "load_scenario", "parse_path", "parse_scenario", "set_path",
    "substitute_placeholders",
]

PLACEHOLDER_RE = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")
_STEP_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$")

#: workload kinds the compiler knows how to start
WORKLOAD_KINDS = ("sleeper", "cpuburn", "iperf", "bittorrent")
#: checkpoint schedule modes
CHECKPOINT_MODES = ("none", "local", "coordinated", "supervised")
#: supervised-mode degradation policies
POLICIES = ("retry-then-abort", "fail-fast", "proceed-without-delay-nodes")
#: digest recipes ("auto" derives one from the checkpoint mode)
DIGESTS = ("auto", "experiment", "local-parts", "coordinated-parts",
           "survival")


# -- normalized spec -----------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload instance, bound to node names at compile time."""

    kind: str                      # one of WORKLOAD_KINDS
    nodes: Tuple[str, ...]         # target node(s); iperf: (sender, receiver)
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class CheckpointSchedule:
    """When and how checkpoints fire during the run."""

    mode: str = "none"             # one of CHECKPOINT_MODES
    node: str = ""                 # local mode: which node's checkpointer
    period_ns: int = 3 * SECOND
    count: int = 1
    start_ns: int = 2 * SECOND     # relative to post-swap-in time
    policy: str = "retry-then-abort"


@dataclass(frozen=True)
class RunSpec:
    """How long the scenario runs and how its digest is assembled."""

    #: run until this many simulated seconds past swap-in; ``None`` runs
    #: until the first workload completes (fig4-style)
    seconds: Optional[float] = None
    #: call ``stop()`` on stoppable workloads after the main run window
    stop_workloads: bool = False
    #: extra settle time after stopping workloads
    settle_ns: int = 0
    digest: str = "auto"


@dataclass
class ScenarioSpec:
    """A fully validated, unit-normalized scenario description."""

    name: str
    seed: int = 0
    description: str = ""
    source: str = "<dict>"
    experiment: Optional[ExperimentSpec] = None
    num_machines: int = 0
    reliable_bus: bool = False
    stage_timeout_ns: Optional[int] = 30 * SECOND
    checkpoint_overrides: Dict[str, Any] = field(default_factory=dict)
    workloads: List[WorkloadSpec] = field(default_factory=list)
    schedule: CheckpointSchedule = field(default_factory=CheckpointSchedule)
    run: RunSpec = field(default_factory=RunSpec)
    fault_plan: Optional[FaultPlan] = None

    @property
    def digest_recipe(self) -> str:
        """The effective digest recipe after resolving ``auto``."""
        if self.run.digest != "auto":
            return self.run.digest
        return {"none": "experiment", "local": "local-parts",
                "coordinated": "coordinated-parts",
                "supervised": "survival"}[self.schedule.mode]


# -- placeholder substitution --------------------------------------------------


def substitute_placeholders(text: str, env: Optional[Dict[str, str]] = None,
                            source: str = "<text>") -> str:
    """Replace every ``{{ NAME }}`` with the environment variable NAME.

    Substitution runs over the raw file text before parsing, so a
    placeholder can produce any TOML/JSON value, not just a string:

        >>> substitute_placeholders("seed = {{ SEED }}", {"SEED": "42"})
        'seed = 42'
        >>> substitute_placeholders("x = {{ A }} {{ B }}", {"A": "1"})
        Traceback (most recent call last):
          ...
        repro.errors.ScenarioError: <text>: unresolved placeholder(s): B \
(set the environment variable(s) or remove the marker)
    """
    if env is None:
        env = dict(os.environ)
    missing = sorted({m.group(1) for m in PLACEHOLDER_RE.finditer(text)
                      if m.group(1) not in env})
    if missing:
        raise ScenarioError(
            f"unresolved placeholder(s): {', '.join(missing)} (set the "
            f"environment variable(s) or remove the marker)", source=source)
    return PLACEHOLDER_RE.sub(lambda m: env[m.group(1)], text)


# -- dotted-path overrides -----------------------------------------------------


def parse_path(path: str, source: str = "") -> List[Tuple[str, Optional[int]]]:
    """Split ``"checkpoints.period_ms"`` / ``"workloads[0].iterations"``
    into (key, optional index) steps."""
    steps: List[Tuple[str, Optional[int]]] = []
    for part in path.split("."):
        match = _STEP_RE.match(part)
        if match is None:
            raise ScenarioError(
                f"malformed override path {path!r} (expected dotted keys "
                f"with optional [index])", path=path, source=source)
        steps.append((match.group(1),
                      int(match.group(2)) if match.group(2) else None))
    return steps


def set_path(data: Dict[str, Any], path: str, value: Any,
             source: str = "") -> None:
    """Assign ``value`` at a dotted path, creating tables as needed.

        >>> doc = {"checkpoints": {"period_ms": 3000}}
        >>> set_path(doc, "checkpoints.period_ms", 2000)
        >>> set_path(doc, "run.seconds", 8)
        >>> doc == {"checkpoints": {"period_ms": 2000},
        ...         "run": {"seconds": 8}}
        True

    Array elements must already exist (an override varies values, it
    does not grow topologies):

        >>> set_path({"nodes": [{"memory_mb": 64}]},
        ...          "nodes[1].memory_mb", 32)
        Traceback (most recent call last):
          ...
        repro.errors.ScenarioError: nodes[1].memory_mb: index 1 is out of \
range (array has 1 element(s))
    """
    steps = parse_path(path, source)
    target: Any = data
    for i, (key, index) in enumerate(steps):
        last = i == len(steps) - 1
        if not isinstance(target, dict):
            raise ScenarioError(
                f"{'.'.join(s for s, _ in steps[:i])} is not a table",
                path=path, source=source)
        if index is None:
            if last:
                target[key] = value
                return
            target = target.setdefault(key, {})
        else:
            array = target.get(key)
            if not isinstance(array, list):
                raise ScenarioError(f"{key} is not an array of tables",
                                    path=path, source=source)
            if index >= len(array):
                raise ScenarioError(
                    f"index {index} is out of range (array has "
                    f"{len(array)} element(s))", path=path, source=source)
            if last:
                array[index] = value
                return
            target = array[index]


# -- schema machinery ----------------------------------------------------------


class _V:
    """One validating cursor into the raw scenario mapping."""

    def __init__(self, data: Any, path: str, source: str) -> None:
        if not isinstance(data, dict):
            raise ScenarioError(
                f"expected a table, got {type(data).__name__}",
                path=path, source=source)
        self.data = data
        self.path = path
        self.source = source
        self._seen: set = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def error(self, message: str, key: str = "") -> ScenarioError:
        path = self._at(key) if key else self.path
        return ScenarioError(message, path=path, source=self.source)

    def get(self, key: str, kind: str, default: Any = None,
            required: bool = False, choices: Optional[Tuple] = None) -> Any:
        self._seen.add(key)
        if key not in self.data:
            if required:
                raise self.error("required key is missing", key)
            return default
        value = _coerce(self.data[key], kind)
        if value is _BAD:
            raise self.error(
                f"expected {kind}, got {type(self.data[key]).__name__} "
                f"{self.data[key]!r}", key)
        if choices is not None and value not in choices:
            raise self.error(
                f"must be one of {', '.join(map(str, choices))} "
                f"(got {value!r})", key)
        return value

    def table(self, key: str) -> Optional["_V"]:
        self._seen.add(key)
        if key not in self.data:
            return None
        return _V(self.data[key], self._at(key), self.source)

    def tables(self, key: str) -> List["_V"]:
        self._seen.add(key)
        raw = self.data.get(key, [])
        if not isinstance(raw, list):
            raise self.error(
                f"expected an array of tables ([[{key}]]), got "
                f"{type(raw).__name__}", key)
        return [_V(item, f"{self._at(key)}[{i}]", self.source)
                for i, item in enumerate(raw)]

    def str_list(self, key: str, default: Any = None) -> Any:
        """A list of strings, or the literal string ``"all"``."""
        self._seen.add(key)
        if key not in self.data:
            return default
        raw = self.data[key]
        if raw == "all":
            return "all"
        if not isinstance(raw, list) or not all(
                isinstance(x, str) for x in raw):
            raise self.error(
                f'expected a list of strings or "all", got {raw!r}', key)
        return list(raw)

    def finish(self) -> None:
        """Reject unknown keys, naming the known set."""
        unknown = sorted(set(self.data) - self._seen)
        if unknown:
            known = ", ".join(sorted(self._seen)) or "(none)"
            raise self.error(
                f"unknown key(s) {', '.join(unknown)} (known: {known})",
                unknown[0])


_BAD = object()


def _coerce(value: Any, kind: str) -> Any:
    """Type-check ``value`` against ``kind``; env-substituted strings
    that spell a number/bool are converted rather than rejected."""
    if kind == "str":
        return value if isinstance(value, str) else _BAD
    if kind == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        return _BAD
    if kind == "int":
        if isinstance(value, bool):
            return _BAD
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value, 0)
            except ValueError:
                return _BAD
        return _BAD
    if kind == "number":
        if isinstance(value, bool):
            return _BAD
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str):
            try:
                return int(value, 0)
            except ValueError:
                try:
                    return float(value)
                except ValueError:
                    return _BAD
        return _BAD
    raise AssertionError(f"unknown schema kind {kind}")


def _ns(value: Optional[float], unit: int) -> Optional[int]:
    """Convert a number in ``unit`` (MS/SECOND/...) to integer ns."""
    if value is None:
        return None
    return int(round(value * unit))


# -- table parsers -------------------------------------------------------------


def _parse_nodes(v: _V) -> List[NodeSpec]:
    nodes: List[NodeSpec] = []
    for nv in v.tables("nodes"):
        name = nv.get("name", "str", required=True)
        count = nv.get("count", "int", default=1)
        if count < 1:
            raise nv.error("count must be >= 1", "count")
        image = nv.get("image", "str", default="FC4-STD")
        memory = _ns(nv.get("memory_mb", "number", default=256), MB)
        disk_blocks = nv.get("disk_blocks", "int", default=1_500_000)
        nv.finish()
        if count == 1:
            names = [name]
        else:
            names = [f"{name}{i}" for i in range(count)]
        nodes.extend(NodeSpec(n, image=image, memory_bytes=memory,
                              disk_blocks=disk_blocks) for n in names)
    return nodes


def _parse_links(v: _V) -> List[LinkSpec]:
    links: List[LinkSpec] = []
    for lv in v.tables("links"):
        links.append(LinkSpec(
            lv.get("name", "str", required=True),
            lv.get("a", "str", required=True),
            lv.get("b", "str", required=True),
            bandwidth_bps=_ns(lv.get("bandwidth_mbps", "number",
                                     default=1000), MBPS),
            delay_ns=_ns(lv.get("delay_ms", "number", default=0), MS),
            loss_probability=lv.get("loss", "number", default=0.0),
            queue_slots=lv.get("queue_slots", "int", default=50)))
        lv.finish()
    return links


def _parse_lans(v: _V, node_names: List[str]) -> List[LanSpec]:
    lans: List[LanSpec] = []
    for lv in v.tables("lans"):
        name = lv.get("name", "str", required=True)
        members = lv.str_list("members", default="all")
        if members == "all":
            members = list(node_names)
        lans.append(LanSpec(
            name, tuple(members),
            bandwidth_bps=_ns(lv.get("bandwidth_mbps", "number",
                                     default=100), MBPS),
            delay_ns=_ns(lv.get("delay_ms", "number", default=0), MS),
            loss_probability=lv.get("loss", "number", default=0.0),
            queue_slots=lv.get("queue_slots", "int", default=50)))
        lv.finish()
    return lans


#: per-kind workload parameter schema: key -> (kind, default)
_WORKLOAD_PARAMS = {
    "sleeper": {"iterations": ("int", 6000), "sleep_ms": ("number", 10)},
    "cpuburn": {"iterations": ("int", 600),
                "work_ns": ("int", 236_600_000)},
    "iperf": {"rate_mb_per_s": ("number", 52), "port": ("int", 5001)},
    "bittorrent": {"seeder_index": ("int", 0),
                   "file_mb": ("number", 3000),
                   "stream": ("str", "bt")},
}


def _parse_workloads(v: _V, node_names: List[str]) -> List[WorkloadSpec]:
    workloads: List[WorkloadSpec] = []
    for wv in v.tables("workloads"):
        kind = wv.get("kind", "str", required=True, choices=WORKLOAD_KINDS)
        if kind == "iperf":
            sender = wv.get("sender", "str", required=True)
            receiver = wv.get("receiver", "str", required=True)
            targets: List[str] = [sender, receiver]
        else:
            node = wv.get("node", "str")
            nodes = wv.str_list("nodes")
            if node is not None and nodes is not None:
                raise wv.error("give either node or nodes, not both", "node")
            if nodes == "all" or (node is None and nodes is None):
                targets = list(node_names)
            elif nodes is not None:
                targets = list(nodes)
            else:
                targets = [node]
        for target in targets:
            if target not in node_names:
                raise wv.error(f"references unknown node {target!r} "
                               f"(nodes: {', '.join(node_names)})", "node")
        params = []
        for key, (pkind, default) in sorted(_WORKLOAD_PARAMS[kind].items()):
            params.append((key, wv.get(key, pkind, default=default)))
        wv.finish()
        workloads.append(WorkloadSpec(kind, tuple(targets), tuple(params)))
    return workloads


def _parse_checkpoints(v: _V, node_names: List[str]) -> CheckpointSchedule:
    cv = v.table("checkpoints")
    if cv is None:
        return CheckpointSchedule()
    mode = cv.get("mode", "str", default="none", choices=CHECKPOINT_MODES)
    node = cv.get("node", "str",
                  default=node_names[0] if node_names else "")
    if mode == "local" and node not in node_names:
        raise cv.error(f"references unknown node {node!r} "
                       f"(nodes: {', '.join(node_names)})", "node")
    schedule = CheckpointSchedule(
        mode=mode, node=node,
        period_ns=_ns(cv.get("period_ms", "number", default=3000), MS),
        count=cv.get("count", "int", default=1),
        start_ns=_ns(cv.get("start_ms", "number", default=2000), MS),
        policy=cv.get("policy", "str", default="retry-then-abort",
                      choices=POLICIES))
    if schedule.count < 0:
        raise cv.error("count must be >= 0", "count")
    cv.finish()
    return schedule


def _parse_run(v: _V, schedule: CheckpointSchedule) -> RunSpec:
    rv = v.table("run")
    if rv is None:
        return RunSpec()
    run = RunSpec(
        seconds=rv.get("seconds", "number"),
        stop_workloads=rv.get("stop_workloads", "bool", default=False),
        settle_ns=_ns(rv.get("settle_ms", "number", default=0), MS),
        digest=rv.get("digest", "str", default="auto", choices=DIGESTS))
    rv.finish()
    if run.digest == "survival" and schedule.mode != "supervised":
        raise rv.error('digest = "survival" requires checkpoints.mode = '
                       '"supervised" (it hashes the supervisor trace)',
                       "digest")
    return run


def _agent_names(experiment: ExperimentSpec) -> List[str]:
    """Every checkpoint agent the experiment will register: one per
    node, one per shaped link's delay node, one per LAN member."""
    from repro.testbed.mapping import needs_delay_node

    names = [n.name for n in experiment.nodes]
    names.extend(link.name for link in experiment.links
                 if needs_delay_node(link))
    names.extend(f"{lan.name}.{member}" for lan in experiment.lans
                 for member in lan.members)
    return names


def _agent(av: _V, agents: List[str]) -> str:
    agent = av.get("agent", "str", required=True)
    if agent not in agents:
        raise av.error(f"references unknown agent {agent!r} "
                       f"(agents: {', '.join(agents)})", "agent")
    return agent


def _parse_faults(v: _V, agents: List[str]) -> Optional[FaultPlan]:
    fv = v.table("faults")
    if fv is None:
        return None
    seed = fv.get("seed", "int", default=0)
    bus = BusFaultConfig()
    bv = fv.table("bus")
    if bv is not None:
        ack = bv.get("ack_loss_prob", "number")
        bus = BusFaultConfig(
            loss_prob=bv.get("loss_prob", "number", default=0.0),
            duplicate_prob=bv.get("duplicate_prob", "number", default=0.0),
            delay_spike_prob=bv.get("delay_spike_prob", "number",
                                    default=0.0),
            delay_spike_ns=_ns(bv.get("delay_spike_ms", "number",
                                      default=20), MS),
            duplicate_gap_ns=_ns(bv.get("duplicate_gap_ms", "number",
                                        default=1), MS),
            ack_loss_prob=ack)
        bv.finish()
    crashes = []
    for cv in fv.tables("crashes"):
        crashes.append(AgentCrash(
            agent=_agent(cv, agents),
            at_ns=_ns(cv.get("at_ms", "number"), MS),
            stage=cv.get("stage", "str"),
            offset_ns=_ns(cv.get("offset_ms", "number", default=1), MS),
            reboot_after_ns=_ns(cv.get("reboot_after_ms", "number"), MS)))
        cv.finish()
    losses = []
    for lv in fv.tables("message_losses"):
        losses.append(MessageLoss(
            topic=lv.get("topic", "str", required=True),
            count=lv.get("count", "int", default=1),
            subscriber=lv.get("subscriber", "str", default="")))
        lv.finish()
    delay_failures = []
    for dv in fv.tables("delay_failures"):
        delay_failures.append(DelayNodeFailure(
            agent=_agent(dv, agents),
            at_ns=_ns(dv.get("at_ms", "number", required=True), MS)))
        dv.finish()
    disk_faults = []
    for dv in fv.tables("disk_faults"):
        disk_faults.append(DiskFault(
            store=dv.get("store", "str", default="*"),
            operation=dv.get("operation", "str",
                             default="take_checkpoint"),
            probability=dv.get("probability", "number", default=1.0),
            max_failures=dv.get("max_failures", "int", default=1),
            after_ns=_ns(dv.get("after_ms", "number", default=0), MS)))
        dv.finish()
    clock_steps = []
    for sv in fv.tables("clock_steps"):
        clock_steps.append(ClockStep(
            node=sv.get("node", "str", required=True),
            at_ns=_ns(sv.get("at_ms", "number", required=True), MS),
            step_ns=sv.get("step_ns", "int", required=True)))
        sv.finish()
    process_crashes = []
    for pv in fv.tables("process_crashes"):
        process_crashes.append(ProcessCrash(
            at_point=pv.get("at_point", "str", required=True),
            count=pv.get("count", "int", default=1),
            during_save=pv.get("during_save", "int", default=0)))
        pv.finish()
    fv.finish()
    return FaultPlan(seed=seed, bus=bus,
                     message_losses=tuple(losses),
                     crashes=tuple(crashes),
                     delay_failures=tuple(delay_failures),
                     disk_faults=tuple(disk_faults),
                     clock_steps=tuple(clock_steps),
                     process_crashes=tuple(process_crashes))


# -- entry points --------------------------------------------------------------


def parse_scenario(data: Dict[str, Any],
                   source: str = "<dict>") -> ScenarioSpec:
    """Validate a raw scenario mapping into a :class:`ScenarioSpec`.

    ``data`` is the parsed TOML/JSON document (placeholders already
    substituted).  Raises :class:`~repro.errors.ScenarioError` with the
    positional path of the first offending key.
    """
    v = _V(data, "", source)
    sv = v.table("scenario")
    if sv is None:
        raise v.error("missing required [scenario] table", "scenario")
    spec = ScenarioSpec(
        name=sv.get("name", "str", required=True),
        seed=sv.get("seed", "int", default=0),
        description=sv.get("description", "str", default=""),
        source=source)
    sv.finish()

    nodes = _parse_nodes(v)
    node_names = [n.name for n in nodes]
    links = _parse_links(v)
    lans = _parse_lans(v, node_names)
    experiment = ExperimentSpec(spec.name, nodes=nodes, links=links,
                                lans=lans)
    try:
        experiment.validate()
    except ScenarioError:
        raise
    except Exception as exc:           # TestbedError -> positioned error
        raise v.error(str(exc), "nodes") from exc
    spec.experiment = experiment

    tv = v.table("testbed")
    default_machines = 2 * len(nodes) + 1
    if tv is not None:
        spec.num_machines = tv.get("num_machines", "int",
                                   default=default_machines)
        spec.reliable_bus = tv.get("reliable_bus", "bool", default=False)
        stage_timeout = tv.get("stage_timeout_ms", "number")
        if stage_timeout is not None:
            spec.stage_timeout_ns = _ns(stage_timeout, MS)
        cv = tv.table("checkpoint")
        if cv is not None:
            overrides: Dict[str, Any] = {}
            rate = cv.get("copy_rate_mb_per_s", "number")
            if rate is not None:
                overrides["copy_rate_bps"] = _ns(rate, MB)
            for key, kind in (("dirty_fraction", "number"),
                              ("dom0_weight", "number"),
                              ("live", "bool")):
                value = cv.get(key, kind)
                if value is not None:
                    overrides[key] = value
            overhead = cv.get("device_overhead_us", "number")
            if overhead is not None:
                overrides["device_overhead_ns"] = int(round(overhead * 1000))
            cv.finish()
            spec.checkpoint_overrides = overrides
        tv.finish()
    else:
        spec.num_machines = default_machines

    spec.workloads = _parse_workloads(v, node_names)
    spec.schedule = _parse_checkpoints(v, node_names)
    spec.run = _parse_run(v, spec.schedule)
    spec.fault_plan = _parse_faults(v, _agent_names(experiment))
    if (spec.schedule.mode == "supervised" and spec.run.seconds is None):
        raise v.error('supervised checkpoints need an explicit [run] '
                      'seconds horizon (the storm must not wait on '
                      'workload completion)', "run")
    v.finish()
    return spec


def load_scenario(path: str, env: Optional[Dict[str, str]] = None,
                  overrides: Optional[Dict[str, Any]] = None
                  ) -> ScenarioSpec:
    """Load, substitute, override, parse, and validate one scenario file.

    ``.toml`` files parse with :mod:`tomllib`; anything else is treated
    as JSON.  ``env`` defaults to ``os.environ``.  ``overrides`` maps
    dotted paths (:func:`set_path`) to values and is applied, in order,
    to the raw document before validation — a variant of a shipped
    experiment is its file plus overrides, never a second definition.
    """
    source = os.path.basename(path)
    data = load_scenario_data(path, env=env)
    for key, value in (overrides or {}).items():
        set_path(data, key, copy.deepcopy(value), source=source)
    return parse_scenario(data, source=source)


def load_scenario_data(path: str,
                       env: Optional[Dict[str, str]] = None
                       ) -> Dict[str, Any]:
    """The raw (substituted, parsed, *unvalidated*) document of a file.

    Sweep files are read through here; scenarios want
    :func:`load_scenario`.
    """
    source = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}",
                            source=source) from exc
    text = substitute_placeholders(text, env=env, source=source)
    if path.endswith(".toml"):
        import tomllib

        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"TOML parse error: {exc}",
                                source=source) from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ScenarioError(f"JSON parse error: {exc}",
                            source=source) from exc
