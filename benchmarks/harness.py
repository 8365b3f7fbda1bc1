"""Shared rig builders for the per-figure benchmark harness.

Every benchmark runs the paper's scenario — the figure benchmarks load
the shipped scenario files with the paper-length parameters as
overrides — prints a paper-vs-measured report, writes the same report
under ``benchmarks/results/``, and asserts the *shape* of the result
(who wins, by roughly what factor) rather than absolute numbers.
"""

from __future__ import annotations

import json
import os
from typing import Tuple

from repro.analysis import ExperimentReport
from repro.sim import Simulator
from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                           TestbedConfig)
from repro.units import GBPS, MB

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_report(report: ExperimentReport, filename: str) -> None:
    """Print the report; persist it under benchmarks/results/ as text + JSON.

    The ``.json`` twin carries the same rows machine-readably, so result
    diffs (e.g. the fast-path equivalence gate) and external tooling never
    have to parse the aligned text table.
    """
    text = report.render()
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, filename), "w") as fh:
        fh.write(text + "\n")
    stem = filename.rsplit(".", 1)[0]
    payload = {
        "experiment": report.experiment,
        "rows": [{"metric": r.metric, "paper": r.paper,
                  "measured": r.measured, "note": r.note}
                 for r in report.rows],
    }
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def single_node_rig(seed: int = 0, memory: int = 256 * MB
                    ) -> Tuple[Simulator, Emulab, object]:
    """One checkpointable guest, swapped in."""
    sim = Simulator()
    testbed = Emulab(sim, TestbedConfig(num_machines=2, seed=seed))
    exp = testbed.define_experiment(ExperimentSpec(
        "bench", nodes=[NodeSpec("node0", memory_bytes=memory)]))
    sim.run(until=exp.swap_in())
    return sim, testbed, exp


def two_node_rig(bandwidth_bps: int = GBPS, delay_ns: int = 0,
                 seed: int = 0, memory: int = 256 * MB
                 ) -> Tuple[Simulator, Emulab, object]:
    """Two guests joined by one shaped link (the Fig. 6 topology)."""
    sim = Simulator()
    testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=seed))
    exp = testbed.define_experiment(ExperimentSpec(
        "bench",
        nodes=[NodeSpec("node0", memory_bytes=memory),
               NodeSpec("node1", memory_bytes=memory)],
        links=[LinkSpec("link0", "node0", "node1",
                        bandwidth_bps=bandwidth_bps, delay_ns=delay_ns)]))
    sim.run(until=exp.swap_in())
    return sim, testbed, exp

