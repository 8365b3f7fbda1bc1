"""Scenario-DSL schema validation: positional errors, placeholders,
unknown-key rejection, template expansion, unit normalization."""

import pytest

from repro.errors import ScenarioError
from repro.testbed.dsl import (load_scenario, parse_scenario,
                               substitute_placeholders)
from repro.units import MB, MBPS, MS, SECOND


def minimal(**extra):
    data = {
        "scenario": {"name": "bench", "seed": 4},
        "nodes": [{"name": "node0", "memory_mb": 128}],
    }
    data.update(extra)
    return data


def minimal_toml() -> str:
    return (
        '[scenario]\nname = "bench"\nseed = 4\n\n'
        '[[nodes]]\nname = "node0"\nmemory_mb = 128\n\n'
        '[[workloads]]\nkind = "sleeper"\nnode = "node0"\n'
        'iterations = 600\n'
    )


# -- placeholders --------------------------------------------------------------


def test_placeholder_substitutes_env_values():
    text = "seed = {{ SEED }}\nname = \"{{NAME}}\""
    out = substitute_placeholders(text, {"SEED": "7", "NAME": "x"})
    assert out == 'seed = 7\nname = "x"'


def test_placeholder_missing_variables_all_named():
    with pytest.raises(ScenarioError) as err:
        substitute_placeholders("a={{ A }} b={{ B }} a2={{ A }}", {})
    assert "A, B" in str(err.value)


def test_placeholder_source_prefixed():
    with pytest.raises(ScenarioError, match="demo.toml"):
        substitute_placeholders("x = {{ X }}", {}, source="demo.toml")


def test_placeholder_can_produce_numbers(tmp_path):
    path = tmp_path / "s.toml"
    path.write_text(minimal_toml().replace("seed = 4", "seed = {{ SEED }}"))
    spec = load_scenario(str(path), env={"SEED": "9"})
    assert spec.seed == 9


# -- positional errors ---------------------------------------------------------


def test_bad_type_names_indexed_path():
    with pytest.raises(ScenarioError, match=r"nodes\[1\]\.memory_mb"):
        parse_scenario(minimal(
            nodes=[{"name": "a"}, {"name": "b", "memory_mb": "lots"}]))


def test_missing_required_key():
    with pytest.raises(ScenarioError, match=r"links\[0\]\.name"):
        parse_scenario(minimal(links=[{"a": "node0", "b": "node0"}]))


def test_missing_scenario_table():
    with pytest.raises(ScenarioError, match="scenario"):
        parse_scenario({"nodes": []})


def test_bad_choice_lists_options():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(checkpoints={"mode": "telepathic"}))
    msg = str(err.value)
    assert "checkpoints.mode" in msg and "coordinated" in msg


def test_workload_unknown_node():
    with pytest.raises(ScenarioError, match="unknown node 'ghost'"):
        parse_scenario(minimal(
            workloads=[{"kind": "sleeper", "node": "ghost"}]))


def test_local_checkpoint_unknown_node():
    with pytest.raises(ScenarioError, match="checkpoints.node"):
        parse_scenario(minimal(
            checkpoints={"mode": "local", "node": "ghost"}))


def test_source_appears_in_message(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text(minimal_toml() + "\n[run]\nseconds = \"soon\"\n")
    with pytest.raises(ScenarioError, match="broken.toml.*run.seconds"):
        load_scenario(str(path))


def test_toml_parse_error_wrapped(tmp_path):
    path = tmp_path / "torn.toml"
    path.write_text("[scenario\nname=")
    with pytest.raises(ScenarioError, match="TOML parse error"):
        load_scenario(str(path))


# -- unknown keys --------------------------------------------------------------


def test_unknown_top_level_table():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(minimal(topology={}))


def test_unknown_nested_key_lists_known():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(nodes=[{"name": "node0", "memory_gb": 1}]))
    msg = str(err.value)
    assert "memory_gb" in msg and "memory_mb" in msg


def test_workload_params_closed_per_kind():
    # cpuburn does not take sleeper's sleep_ms
    with pytest.raises(ScenarioError, match="sleep_ms"):
        parse_scenario(minimal(
            workloads=[{"kind": "cpuburn", "node": "node0",
                        "sleep_ms": 5}]))


# -- normalization -------------------------------------------------------------


def test_count_expands_prefix():
    spec = parse_scenario({
        "scenario": {"name": "bench"},
        "nodes": [{"name": "n", "count": 3}]})
    assert [n.name for n in spec.experiment.nodes] == ["n0", "n1", "n2"]


def test_count_one_keeps_literal_name():
    spec = parse_scenario(minimal())
    assert spec.experiment.nodes[0].name == "node0"


def test_units_converted():
    spec = parse_scenario(minimal(
        nodes=[{"name": "node", "count": 2, "memory_mb": 128}],
        lans=[{"name": "lan0", "members": "all",
               "bandwidth_mbps": 100, "delay_ms": 5}],
        checkpoints={"mode": "coordinated", "period_ms": 2500},
        run={"seconds": 8}))
    lan = spec.experiment.lans[0]
    assert lan.bandwidth_bps == 100 * MBPS
    assert lan.delay_ns == 5 * MS
    assert spec.experiment.nodes[0].memory_bytes == 128 * MB
    assert spec.schedule.period_ns == 2500 * MS


def test_lan_members_all():
    spec = parse_scenario({
        "scenario": {"name": "bench"},
        "nodes": [{"name": "n", "count": 2}],
        "lans": [{"name": "lan0"}]})
    assert spec.experiment.lans[0].members == ("n0", "n1")


def test_num_machines_defaults_to_fig7_rule():
    spec = parse_scenario({
        "scenario": {"name": "bench"},
        "nodes": [{"name": "n", "count": 10}]})
    assert spec.num_machines == 21


def test_digest_recipe_auto_by_mode():
    assert parse_scenario(minimal()).digest_recipe == "experiment"
    assert parse_scenario(minimal(
        checkpoints={"mode": "local", "node": "node0"}
    )).digest_recipe == "local-parts"
    assert parse_scenario(minimal(
        checkpoints={"mode": "coordinated"}, run={"seconds": 1}
    )).digest_recipe == "coordinated-parts"
    assert parse_scenario(minimal(
        checkpoints={"mode": "supervised"}, run={"seconds": 1}
    )).digest_recipe == "survival"


def test_supervised_requires_horizon():
    with pytest.raises(ScenarioError, match="run"):
        parse_scenario(minimal(checkpoints={"mode": "supervised"}))


def test_survival_digest_requires_supervised():
    with pytest.raises(ScenarioError, match="supervised"):
        parse_scenario(minimal(run={"digest": "survival"}))


def test_fault_plan_ms_units():
    spec = parse_scenario(minimal(faults={
        "seed": 1,
        "bus": {"loss_prob": 0.1},
        "crashes": [{"agent": "node0", "stage": "save",
                     "offset_ms": 2, "reboot_after_ms": 1000}]}))
    plan = spec.fault_plan
    assert plan.seed == 1 and plan.bus.loss_prob == 0.1
    crash = plan.crashes[0]
    assert crash.offset_ns == 2 * MS
    assert crash.reboot_after_ns == 1 * SECOND
    assert crash.at_ns is None


def test_fault_agents_must_exist_in_the_experiment():
    with pytest.raises(ScenarioError,
                       match=r"faults\.crashes\[0\]\.agent: references "
                             r"unknown agent 'node3'"):
        parse_scenario(minimal(faults={
            "crashes": [{"agent": "node3", "stage": "save"}]}))
    # delay agents count too: one per LAN member, one per shaped link
    spec = parse_scenario(minimal(
        nodes=[{"name": "n", "count": 2}],
        lans=[{"name": "lan0"}],
        faults={"delay_failures": [{"agent": "lan0.n1", "at_ms": 5}]}))
    assert spec.fault_plan.delay_failures[0].agent == "lan0.n1"


def test_overrides_edit_the_document_before_validation(tmp_path):
    path = tmp_path / "s.toml"
    path.write_text(minimal_toml())
    spec = load_scenario(str(path), overrides={
        "workloads[0].iterations": 50, "faults": {"seed": 3}})
    assert spec.workloads[0].param("iterations") == 50
    assert spec.fault_plan.seed == 3
    with pytest.raises(ScenarioError, match="out of range"):
        load_scenario(str(path), overrides={"nodes[2].memory_mb": 1})


def test_faults_cli_rejects_unknown_crash_agent(capsys):
    from repro.__main__ import main

    # shrinking the storm to three nodes orphans its node3 crash
    assert main(["scenario", "ckpt10_faultstorm",
                 "--set", "nodes[0].count=3"]) == 2
    assert "faults.crashes[0].agent" in capsys.readouterr().out


def test_json_files_load(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        '{"scenario": {"name": "bench"}, "nodes": [{"name": "node0"}]}')
    assert load_scenario(str(path)).name == "bench"
