"""Shipped scenario files: validation, race cleanliness, determinism.

The files under ``examples/scenarios/`` are the only definition of the
figure experiments; their digests are gated against the stored goldens
in ``tests/test_pipeline_equivalence.py``.  The fig4 and ckpt10 goldens
were captured on the hand-wired builders these files replaced, so a
file run that reproduces its golden matches the hand-wired experiment.
"""

import glob
import json
import os

import pytest

from repro.sim import Simulator
from repro.testbed.compile import compile_scenario, load_named
from repro.testbed.dsl import load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "scenarios")
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results", "PIPELINE_digests.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["scenarios"]


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name)


def test_fig4_matches_hand_wired_and_golden():
    result = compile_scenario(load_scenario(scenario_path("fig4.toml"))).run(
        sim=Simulator())
    named = compile_scenario(load_named("fig4_sleep")).run()
    assert result.digest == named.digest
    assert result.digest == GOLDEN["fig4_sleep"]
    assert result.recipe == "local-parts"


def test_fig4_race_detector_clean():
    result = compile_scenario(load_scenario(scenario_path("fig4.toml"))).run(
        race=True)
    assert result.races == 0
    assert result.digest == GOLDEN["fig4_sleep"]


def test_ckpt10_matches_hand_wired_and_golden():
    result = compile_scenario(load_scenario(
        scenario_path("ckpt10_coordinated.toml"))).run(sim=Simulator())
    named = compile_scenario(load_named("ckpt10_coordinated")).run()
    assert result.digest == named.digest
    assert result.digest == GOLDEN["ckpt10_coordinated"]
    assert result.recipe == "coordinated-parts"
    assert result.details["checkpoints"] == 1


def test_faultstorm_race_detector_clean():
    result = compile_scenario(load_scenario(
        scenario_path("ckpt10_faultstorm.toml"))).run(race=True)
    assert result.races == 0


def test_bench_scenario_file_cli(capsys):
    from repro.__main__ import main

    assert main(["scenario", scenario_path("fig4.toml"),
                 "--repeat", "2"]) == 0
    out = capsys.readouterr().out
    assert "run-to-run determinism: OK" in out


def test_bench_rejects_broken_file(tmp_path, capsys):
    from repro.__main__ import main

    bad = tmp_path / "bad.toml"
    bad.write_text('[scenario]\nname = "x"\nbogus = 1\n')
    assert main(["scenario", str(bad), "--repeat", "2"]) == 2
    assert "scenario error" in capsys.readouterr().out


def _shipped_scenarios():
    return sorted(os.path.basename(path) for path in glob.glob(
        os.path.join(SCENARIO_DIR, "*.toml"))
        if not os.path.basename(path).startswith("sweep"))


@pytest.mark.parametrize("name", _shipped_scenarios())
def test_shipped_scenarios_validate(name):
    spec = load_scenario(scenario_path(name))
    assert spec.name
