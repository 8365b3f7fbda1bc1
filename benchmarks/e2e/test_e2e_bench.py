"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Every workload runs at ``--smoke`` scale (one or a few rounds) twice
untraced and once traced.  The tests check that runs repeat exactly,
that tracing changes no result, that the layers' self times account for
the traced run, and that the printed metrics are exactly the ones
BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("sim", "net", "guest", "xen", "clocksync", "checkpoint", "storage",
          "hw", "workloads", "testbed", "timetravel")


def bench(workload, trace, out, cwd=ROOT):
    """Run the benchmark; returns (exit code, stdout, full JSON result)."""
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", "1", "--smoke",
         "--trace", str(trace), "--json", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    full = json.loads(out.read_text()) if out.exists() else None
    return proc.returncode, proc.stdout, full


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """workload -> [untraced, untraced, traced] runs, made on first use."""
    cache = {}

    def get(workload):
        if workload not in cache:
            tmp = tmp_path_factory.mktemp(workload)
            cache[workload] = [bench(workload, trace, tmp / f"{i}.json")
                               for i, trace in enumerate((0, 0, 1))]
            for code, stdout, _full in cache[workload]:
                assert code == 0, stdout
        return cache[workload]
    return get


def printed_metrics(stdout):
    """Metric names from the human-readable lines and the JSON line."""
    lines = stdout.strip().splitlines()
    shown = {line.split()[0] for line in lines if line.startswith("  ")}
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    return shown, set(final["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_repeat(runs, workload):
    (_, _, first), (_, _, second), _traced = runs(workload)
    assert first["round_digests"] == second["round_digests"]
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_result(runs, workload):
    (_, _, plain), _, (_, _, traced) = runs(workload)
    assert traced["round_digests"] == plain["round_digests"]
    assert traced["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_cover_the_traced_run(runs, workload):
    metrics = runs(workload)[2][2]["metrics"]
    self_ms = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    run_ms = metrics["trace.run_s"] * 1e3
    assert abs(self_ms - run_ms) <= 0.05 * run_ms


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_the_declared_ones(runs, workload):
    (_, plain_out, _), _, (_, traced_out, _) = runs(workload)
    for stdout, table in ((plain_out, "end_to_end"),
                          (traced_out, "per_layer")):
        declared = {m["name"] for m in SPEC[table]}
        shown, in_json = printed_metrics(stdout)
        assert shown == declared
        assert in_json == declared


def test_storage_workload_bypasses_net_and_checkpoints(runs):
    metrics = runs("cow_storage")[2][2]["metrics"]
    assert metrics["net.calls"] == 0
    for name in ("checkpoint.calls", "checkpoint.bus_published",
                 "checkpoint.failed", "checkpoint.snapshot_takes"):
        assert metrics[name] == 0
    assert metrics["storage.writes"] > 0 and metrics["hw.disk_requests"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout, _full = bench("iperf_ckpt", 0, tmp_path / "out.json",
                                cwd=tmp_path)
    assert code != 0
    assert "{" not in stdout
