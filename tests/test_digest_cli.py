"""Tests for the digest library and the CLI entry point."""

import pathlib

import pytest

from repro.analysis.digest import (branch_digest, delay_node_digest,
                                   experiment_digest, kernel_digest,
                                   tcp_digest)
from repro.sim import Simulator
from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                           TestbedConfig)
from repro.units import MB, MBPS, MS, SECOND

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def build_experiment(seed=77):
    sim = Simulator()
    testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=seed))
    for cache in testbed.image_caches.values():
        cache.preload("FC4-STD")
    exp = testbed.define_experiment(ExperimentSpec(
        "digest",
        nodes=[NodeSpec("node0", memory_bytes=64 * MB),
               NodeSpec("node1", memory_bytes=64 * MB)],
        links=[LinkSpec("l0", "node0", "node1",
                        bandwidth_bps=100 * MBPS, delay_ns=5 * MS)]))
    sim.run(until=exp.swap_in())
    return sim, exp


def run_workload(sim, exp, seconds=3):
    k0, k1 = exp.kernel("node0"), exp.kernel("node1")
    acc = []
    k1.tcp.listen(5001, acc.append)
    conn = k0.tcp.connect("node1", 5001)
    sim.run(until=sim.now + 1 * SECOND)
    conn.send(2 * MB)
    sim.run(until=sim.now + seconds * SECOND)
    return conn


def test_identical_runs_produce_identical_digests():
    sim_a, exp_a = build_experiment()
    run_workload(sim_a, exp_a)
    sim_b, exp_b = build_experiment()
    run_workload(sim_b, exp_b)
    assert experiment_digest(exp_a) == experiment_digest(exp_b)


def test_diverging_runs_produce_different_digests():
    sim_a, exp_a = build_experiment()
    run_workload(sim_a, exp_a, seconds=3)
    sim_b, exp_b = build_experiment()
    run_workload(sim_b, exp_b, seconds=3)
    # Extra disk writes on one side: content map changes the digest.
    sim_b.run(until=exp_b.node("node0").filesystem.write_file("x", 1 * MB))
    assert experiment_digest(exp_a) != experiment_digest(exp_b)


def test_component_digests_are_tuples_with_markers():
    sim, exp = build_experiment()
    conn = run_workload(sim, exp)
    node = exp.node("node0")
    assert kernel_digest(node.kernel)[0] == "kernel"
    assert branch_digest(node.branch)[0] == "branch"
    assert tcp_digest(conn)[0] == "tcp"
    assert delay_node_digest(exp.delay_nodes["l0"])[0] == "delaynode"


# ------------------------------------------------------------------ CLI

def test_cli_info_and_results(capsys):
    from repro.__main__ import main

    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Transparent Checkpoints" in out
    assert "repro.checkpoint" in out
    # results prints each recorded table once and none of the JSON
    # twins or digest artifacts next to them
    assert main(["results"]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = [path.read_text().splitlines()[0]
               for path in sorted(RESULTS_DIR.glob("*.txt"))]
    assert headers
    for header in headers:
        assert lines.count(header) == 1, header
    assert not [line for line in lines if line.startswith("{")]


def test_cli_rejects_unknown_command():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["frobnicate"])
