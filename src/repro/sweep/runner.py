"""The sweep fleet runner: one worker process per grid-point run.

Every run re-loads the scenario file through
:func:`~repro.testbed.dsl.load_scenario` with the sweep's overrides and
its grid-point assignment, then compiles and runs it in a fresh :class:`~repro.sim.core.Simulator` — workers
share nothing, so the sweep is embarrassingly parallel and each run is
exactly as deterministic as a standalone ``repro scenario`` invocation.
Repeated runs of the same grid point must produce identical digests;
the aggregated report carries that agreement check.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional

from repro.sweep.grid import SweepPlan, load_sweep

#: set in workers so nested tooling can tell it runs inside a sweep
SWEEP_WORKER_ENV = "REPRO_SWEEP_WORKER"


def _run_one(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: one deterministic run, exceptions captured.

    Top-level (picklable) on purpose; imports stay inside so workers
    pay only for what the scenario actually uses.
    """
    from repro.testbed.compile import compile_scenario
    from repro.testbed.dsl import load_scenario

    os.environ[SWEEP_WORKER_ENV] = "1"
    started = time.perf_counter()  # repro: noqa=DET001 — wall cost report
    record: Dict[str, Any] = {"run": task["run"], "point": task["point"],
                              "repeat": task["repeat"]}
    try:
        spec = load_scenario(task["path"], overrides=task["overrides"])
        result = compile_scenario(spec).run()
        record.update(ok=True, digest=result.digest, recipe=result.recipe,
                      virtual_now_ns=result.virtual_now_ns,
                      details=result.details)
    except Exception as exc:  # noqa: BLE001 — a failed run is a report row
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    record["wall_s"] = round(
        time.perf_counter() - started, 4)  # repro: noqa=DET001
    return record


def run_sweep(plan: SweepPlan,
              processes: Optional[int] = None) -> Dict[str, Any]:
    """Expand the grid, run the fleet, aggregate the report dict.

    ``processes`` overrides the plan (0 or None = one per CPU, capped at
    the run count; 1 = run inline, no pool — handy under debuggers).
    """
    points = plan.grid_points
    tasks: List[Dict[str, Any]] = []
    run_id = 0
    for point in points:
        # the sweep's fixed overrides first, then the grid point's values
        overrides = dict(sorted(plan.overrides.items()))
        overrides.update(sorted(point.items()))
        for repeat in range(plan.repeat):
            tasks.append({"run": run_id, "point": point, "repeat": repeat,
                          "path": plan.scenario_path,
                          "overrides": overrides})
            run_id += 1
    if processes is None:
        processes = plan.processes
    if not processes:
        processes = os.cpu_count() or 1
    processes = max(1, min(processes, len(tasks)))
    started = time.perf_counter()  # repro: noqa=DET001 — wall cost report
    if processes == 1:
        records = [_run_one(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes) as pool:
            records = pool.map(_run_one, tasks)
    wall_s = round(time.perf_counter() - started, 4)  # repro: noqa=DET001

    # digest agreement: all repeats of one grid point must match
    groups: Dict[str, Dict[str, Any]] = {}
    for record in records:
        key = json.dumps(record["point"], sort_keys=True, default=str)
        group = groups.setdefault(key, {"point": record["point"],
                                        "digests": [], "runs": []})
        group["runs"].append(record["run"])
        if record.get("ok"):
            group["digests"].append(record["digest"])
    disagreements = [
        {"point": g["point"], "runs": g["runs"],
         "digests": sorted(set(g["digests"]))}
        for g in groups.values() if len(set(g["digests"])) > 1]
    failures = [r for r in records if not r.get("ok")]
    return {
        "sweep": plan.name,
        "scenario": plan.scenario_path,
        "grid_points": len(points),
        "repeat": plan.repeat,
        "runs": records,
        "failures": len(failures),
        "disagreements": disagreements,
        "processes": processes,
        "wall_s": wall_s,
        "ok": not failures and not disagreements,
    }


def run_sweep_file(path: str, processes: Optional[int] = None,
                   out: Optional[str] = None) -> Dict[str, Any]:
    """Load a sweep file, run it, optionally write the JSON report."""
    report = run_sweep(load_sweep(path), processes=processes)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    return report
