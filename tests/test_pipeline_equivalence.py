"""Pipeline-port equivalence gate.

The digests below were captured on the pre-pipeline monolithic checkpoint
implementation (``benchmarks/results/PIPELINE_digests.json``).  Each
scenario drives a checkpoint consumer that now runs on
:mod:`repro.checkpoint.pipeline`; a digest change means the port perturbed
event order, rng draws, or checkpoint semantics.  ``repro bench`` enforces
the same gate (see ``_bench_figure``), so CI fails on drift even when run
in quick mode.
"""

import json
import os

import pytest

from repro.bench.scenarios import run_ckpt10, run_fig4, run_fig5, run_fig8
from repro.sim import Simulator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results", "PIPELINE_digests.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["scenarios"]

SCENARIOS = {
    "fig4_sleep": run_fig4,              # local checkpoints (LocalCheckpointer)
    "fig5_cpuburn": run_fig5,            # local checkpoints under CPU load
    "fig8_cow_storage": run_fig8,        # COW branching storage
    "ckpt10_coordinated": run_ckpt10,    # 10-node coordinated checkpoint
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_bit_identical_to_pre_pipeline_golden(name):
    digest = SCENARIOS[name](Simulator())
    assert digest == GOLDEN[name], (
        f"{name}: checkpoint-pipeline port changed observable behaviour "
        f"(got {digest}, golden {GOLDEN[name]})")

