"""Sweep files and deterministic grid expansion.

The grid is a mapping of dotted scenario paths to value lists; its
cross-product is expanded in sorted-key order so run numbering is stable
across machines and Python versions — run *k* of a sweep always means
the same parameter assignment.

    >>> pts = expand_grid({"b": [1, 2], "a": ["x"]})
    >>> [sorted(p.items()) for p in pts]
    [[('a', 'x'), ('b', 1)], [('a', 'x'), ('b', 2)]]
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ScenarioError
from repro.testbed.dsl import load_scenario_data, parse_path


@dataclass(frozen=True)
class SweepPlan:
    """One validated sweep file: scenario + grid + execution knobs."""

    name: str
    #: absolute path of the scenario file every run starts from
    scenario_path: str
    #: dotted-path -> value list; cross-product forms the grid
    matrix: Dict[str, List[Any]] = field(default_factory=dict)
    #: dotted-path -> value, applied to every run before the matrix
    overrides: Dict[str, Any] = field(default_factory=dict)
    repeat: int = 1
    processes: int = 0
    source: str = "<dict>"

    @property
    def grid_points(self) -> List[Dict[str, Any]]:
        return expand_grid(self.matrix)

    @property
    def total_runs(self) -> int:
        return len(self.grid_points) * self.repeat


def expand_grid(matrix: Dict[str, List[Any]]) -> List[Dict[str, Any]]:
    """Cross-product of a matrix, in sorted-key order (deterministic)."""
    if not matrix:
        return [{}]
    keys = sorted(matrix)
    return [dict(zip(keys, values))
            for values in itertools.product(*(matrix[k] for k in keys))]


def load_sweep(path: str,
               env: Optional[Dict[str, str]] = None) -> SweepPlan:
    """Load and validate one sweep file (same placeholder rules as
    scenarios; the scenario path resolves relative to the sweep file)."""
    source = os.path.basename(path)
    data = load_scenario_data(path, env=env)
    unknown = sorted(set(data) - {"sweep", "matrix", "overrides"})
    if unknown:
        raise ScenarioError(
            f"unknown table(s) {', '.join(unknown)} "
            f"(known: matrix, overrides, sweep)",
            path=unknown[0], source=source)
    sweep = data.get("sweep")
    if not isinstance(sweep, dict):
        raise ScenarioError("missing required [sweep] table",
                            path="sweep", source=source)
    unknown = sorted(set(sweep)
                     - {"name", "scenario", "repeat", "processes"})
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(unknown)} "
            f"(known: name, processes, repeat, scenario)",
            path=f"sweep.{unknown[0]}", source=source)
    scenario = sweep.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ScenarioError("scenario must be a file path",
                            path="sweep.scenario", source=source)
    scenario_path = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(path)), scenario))
    if not os.path.exists(scenario_path):
        raise ScenarioError(f"scenario file not found: {scenario_path}",
                            path="sweep.scenario", source=source)
    repeat = sweep.get("repeat", 1)
    if not isinstance(repeat, int) or isinstance(repeat, bool) or repeat < 1:
        raise ScenarioError("repeat must be an integer >= 1",
                            path="sweep.repeat", source=source)
    processes = sweep.get("processes", 0)
    if (not isinstance(processes, int) or isinstance(processes, bool)
            or processes < 0):
        raise ScenarioError("processes must be an integer >= 0",
                            path="sweep.processes", source=source)
    matrix = data.get("matrix", {})
    if not isinstance(matrix, dict):
        raise ScenarioError("expected a table of path -> value-list",
                            path="matrix", source=source)
    for key, values in matrix.items():
        parse_path(key, source)
        if not isinstance(values, list) or not values:
            raise ScenarioError(
                f"expected a non-empty value list, got {values!r}",
                path=f"matrix.{key}", source=source)
    overrides = data.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ScenarioError("expected a table of path -> value",
                            path="overrides", source=source)
    for key in overrides:
        parse_path(key, source)
    return SweepPlan(
        name=sweep.get("name", os.path.splitext(source)[0]),
        scenario_path=scenario_path,
        matrix={k: list(v) for k, v in matrix.items()},
        overrides=dict(overrides),
        repeat=repeat, processes=processes, source=source)
