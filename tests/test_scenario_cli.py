"""``repro scenario``: the one command that runs, repeats, traces and
gates an experiment, and the golden-digest loader its gates read."""

import json
import os

import pytest

from repro.__main__ import main
from repro.errors import ScenarioError
from repro.testbed.compile import (GOLDEN_PATH, SCENARIO_DIR,
                                   CompiledScenario, ScenarioResult,
                                   load_goldens)

FIG4_FILE = os.path.join(SCENARIO_DIR, "fig4.toml")


# ------------------------------------------------------------ golden loader

def test_load_goldens_reads_the_stored_file():
    goldens = load_goldens()
    assert goldens == load_goldens(GOLDEN_PATH)
    assert {"fig4_sleep", "ckpt10_coordinated",
            "fig8_cow_storage"} <= set(goldens)


def test_missing_golden_file_raises(tmp_path):
    with pytest.raises(ScenarioError, match="absent.json: cannot read"):
        load_goldens(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("text", ["{not json", '{"captured_on": "x"}',
                                  '{"scenarios": ["fig4_sleep"]}'])
def test_unparseable_golden_file_raises(tmp_path, text):
    path = tmp_path / "goldens.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="goldens.json: malformed"):
        load_goldens(str(path))


def test_named_run_fails_without_its_golden_file(monkeypatch, capsys):
    # a missing golden file must not quietly turn the gate off
    monkeypatch.setattr("repro.testbed.compile.GOLDEN_PATH",
                        "/nonexistent/PIPELINE_digests.json")
    assert main(["scenario", "fig4_sleep"]) == 2
    assert "cannot read golden digests" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    None, "{not json", '{"scenarios": {}}',
    '{"scenarios": {"event_churn": {"seconds": 1.0}}}'])
def test_bench_fails_without_the_checked_in_artifact(monkeypatch, tmp_path,
                                                     capsys, text):
    # --output elsewhere must not switch the comparison to that (fresh)
    # path: the gates read the checked-in artifact, or the run fails
    artifact = tmp_path / "BENCH_sim_core.json"
    if text is not None:
        artifact.write_text(text)
    monkeypatch.setattr("repro.bench.runner.ARTIFACT_PATH", str(artifact))
    output = tmp_path / "new.json"
    assert main(["bench", "--quick", "--output", str(output)]) == 2
    out = capsys.readouterr().out
    assert "bench error: BENCH_sim_core.json: " in out
    assert not output.exists()


# ------------------------------------------------------------ gates

def _fake_runs(monkeypatch, digests):
    """Make every run of a compiled scenario return the next digest."""
    queue = list(digests)

    def run(self, sim=None, race=False, tracer=None, streams=None):
        return ScenarioResult(name=self.spec.name, recipe="local-parts",
                              digest=queue.pop(0), virtual_now_ns=0)

    monkeypatch.setattr(CompiledScenario, "run", run)


def test_repeat_fails_when_two_runs_disagree(monkeypatch, capsys):
    _fake_runs(monkeypatch, ["a" * 64, "b" * 64])
    assert main(["scenario", FIG4_FILE, "--repeat", "2"]) == 1
    assert "run-to-run determinism: MISMATCH" in capsys.readouterr().out


def test_repeat_passes_when_runs_agree(monkeypatch, capsys):
    _fake_runs(monkeypatch, ["a" * 64, "a" * 64])
    assert main(["scenario", FIG4_FILE, "--repeat", "2"]) == 0
    assert "run-to-run determinism: OK" in capsys.readouterr().out


def test_named_run_is_gated_on_its_golden(capsys):
    assert main(["scenario", "fig4_sleep"]) == 0
    assert "golden: OK" in capsys.readouterr().out


@pytest.mark.parametrize("expected", ["fig5_cpuburn", "0" * 64])
def test_check_digest_rejects_a_wrong_name_or_hex(capsys, expected):
    assert main(["scenario", "fig4_sleep", "--check-digest", expected]) == 1
    assert "digest MISMATCH" in capsys.readouterr().out


def test_check_digest_by_name_gates_an_overridden_run(capsys):
    # a disabled injector attached to ckpt10 must not move its golden
    assert main(["scenario", "ckpt10_coordinated", "--set", "faults={}",
                 "--check-digest", "ckpt10_coordinated"]) == 0
    assert "golden: OK" in capsys.readouterr().out


def test_set_without_check_digest_skips_the_golden(capsys):
    assert main(["scenario", "fig4_sleep",
                 "--set", "workloads[0].iterations=50"]) == 0
    assert "golden" not in capsys.readouterr().out


@pytest.mark.parametrize("pair, where", [
    ("run.seconds=abc", "run.seconds: --set value"),
    ("nodes[4].memory_mb=64", "nodes[4].memory_mb: index 4"),
    ("nodes", "expected PATH=VALUE"),
])
def test_bad_set_exits_2_with_a_positioned_error(capsys, pair, where):
    assert main(["scenario", "fig4_sleep", "--set", pair]) == 2
    assert where in capsys.readouterr().out


def test_failed_scheduled_checkpoint_fails_the_run(capsys):
    # fail-fast gives up after one attempt; the default storm policy
    # retries and completes on its second
    assert main(["scenario", "ckpt10_faultstorm", "--set",
                 'checkpoints.policy="fail-fast"']) == 1
    out = capsys.readouterr().out
    assert "completed: False" in out
    assert "scheduled checkpoints: FAILED" in out


def test_fault_storm_survives_under_the_race_detector(capsys):
    assert main(["scenario", "ckpt10_faultstorm", "--race",
                 "--repeat", "2"]) == 0
    out = capsys.readouterr().out
    assert "completed: True" in out
    assert "supervisor_attempts: 2" in out
    assert "races: none" in out


def test_trace_writes_a_loadable_timeline_and_keeps_the_golden(
        tmp_path, capsys):
    out_path = tmp_path / "fig4.json"
    assert main(["scenario", "fig4_sleep", "--trace", str(out_path)]) == 0
    assert "golden: OK" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    events = payload["traceEvents"]
    assert any(e["ph"] == "X" for e in events)
    assert {e["cat"] for e in events if e["ph"] == "X"} >= {
        "checkpoint.stage"}
