"""Every stored golden digest is reproduced bit for bit.

The goldens in ``benchmarks/results/PIPELINE_digests.json`` are the
oracle.  fig4/fig5/fig8/ckpt10 were captured on the pre-pipeline
monolithic checkpoint code, fig6/fig7 on the scheduler before its legacy
modes were removed; a digest change means a port perturbed event order,
rng draws, or checkpoint semantics.  Each testbed golden is a named
scenario file plus its overrides
(:data:`~repro.testbed.compile.NAMED_SCENARIOS`); fig8 runs on private
simulators with no testbed and stays a function.  ``repro bench``
enforces the same gate, so CI fails on drift even in quick mode.
"""

import json
import os

import pytest

from repro.bench.scenarios import run_fig8
from repro.sim import Simulator
from repro.testbed.compile import compile_scenario, load_named

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results", "PIPELINE_digests.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["scenarios"]


def golden_run_digest(name: str) -> str:
    if name == "fig8_cow_storage":
        return run_fig8(Simulator())
    return compile_scenario(load_named(name)).run().digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_bit_identical_to_pre_pipeline_golden(name):
    digest = golden_run_digest(name)
    assert digest == GOLDEN[name], (
        f"{name}: observable behaviour changed "
        f"(got {digest}, golden {GOLDEN[name]})")
