"""Durable snapshot store: crash atomicity, fsck, retry, resumable runs.

The contract under test is the commit protocol of
``repro.checkpoint.durable``: a process killed at **any** registered
barrier leaves the on-disk store recoverable to exactly the previous or
the new committed snapshot — proved by exhaustive enumeration over the
crash points, at the store level (synthetic providers) and end to end
(the serializable worlds resumed through the time-travel controller).
"""

import hashlib
import json
import os

import pytest

from repro.checkpoint.durable import (CRASH_POINTS, DurableSnapshotStore,
                                      SAVE_CRASH_POINTS)
from repro.checkpoint.pipeline import Checkpointable
from repro.checkpoint.supervisor import RetryThenAbort
from repro.errors import SimulatedCrash, SnapshotError
from repro.faults.injector import FaultInjector
from repro.faults.plan import DiskFault, FaultPlan, ProcessCrash
from repro.obs.trace import Tracer
from repro.sim.core import Simulator
from repro.timetravel.resume import crash_matrix, run_durable


class Counter(Checkpointable):
    def __init__(self, name, **values):
        self.name = name
        self.values = dict(values)

    def serialize(self):
        pad = {f"pad{i}": i for i in range(300)}   # multi-chunk payload
        return {**pad, **self.values}

    def restore(self, snapshot):
        self.values = {k: v for k, v in snapshot.items()
                       if not k.startswith("pad")}


def providers(n=7):
    return [Counter("a", x=n), Counter("b", y=n * 2)]


def one_shot_crash(point):
    """A crash hook that kills the writer the first time ``point`` fires."""
    state = {"fired": 0}

    def hook(p):
        if p == point and not state["fired"]:
            state["fired"] = 1
            raise SimulatedCrash(p)
    return hook, state


# -- commit + recover -----------------------------------------------------------


def test_commit_survives_reopen_with_identical_payloads(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=10)
    store.take("s2", providers(2), virtual_time_ns=20, parent="s1")
    original = {sid: store.materialize(sid) for sid in store.order}

    reopened = DurableSnapshotStore(root, fsync=False)
    report = reopened.recover()
    assert report.clean and report.committed == ["s1", "s2"]
    assert {sid: reopened.materialize(sid)
            for sid in reopened.order} == original
    live = providers(0)
    reopened.restore("s2", live)
    assert live[0].values == {"x": 2}


def test_delta_property_survives_the_disk(tmp_path):
    store = DurableSnapshotStore(str(tmp_path / "s"), fsync=False)
    store.take("s1", providers(1), virtual_time_ns=0)
    files_after_first = len(store._disk_refs)
    store.take("s2", providers(1), virtual_time_ns=1, parent="s1")
    # identical payloads: the second commit writes zero new chunk files
    assert len(store._disk_refs) == files_after_first
    assert store.manifests["s2"].new_chunk_bytes == 0


@pytest.mark.parametrize("point", SAVE_CRASH_POINTS)
def test_crash_at_every_barrier_recovers_to_prior_or_new(tmp_path, point):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("prior", providers(1), virtual_time_ns=0)
    prior_payloads = store.materialize("prior")
    store.crash_hook, state = one_shot_crash(point)
    with pytest.raises(SimulatedCrash):
        store.take("next", providers(2), virtual_time_ns=1, parent="prior")
    assert state["fired"] == 1

    recovered = DurableSnapshotStore(root, fsync=False)
    report = recovered.recover()
    assert not report.damaged and not report.quarantined
    assert report.committed in (["prior"], ["prior", "next"])
    # whatever survived is digest-perfect, never torn
    assert recovered.materialize("prior") == prior_payloads
    if report.committed == ["prior", "next"]:
        assert recovered.materialize("next")["a"]["x"] == 2
    # recovery converges: a second pass finds nothing left to repair
    assert DurableSnapshotStore(root, fsync=False).recover().clean


def test_recovery_is_itself_crash_safe(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("prior", providers(1), virtual_time_ns=0)
    store.crash_hook, _ = one_shot_crash("save.chunks.synced")
    with pytest.raises(SimulatedCrash):
        store.take("next", providers(2), virtual_time_ns=1, parent="prior")

    first = DurableSnapshotStore(root, fsync=False)
    first.crash_hook, state = one_shot_crash("recover.journal.rollback")
    with pytest.raises(SimulatedCrash):
        first.recover()
    assert state["fired"] == 1
    second = DurableSnapshotStore(root, fsync=False)
    assert second.recover().committed == ["prior"]
    assert DurableSnapshotStore(root, fsync=False).recover().clean


# -- fsck classification --------------------------------------------------------


def test_fsck_is_read_only_and_recover_repairs(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=0)
    store.crash_hook, _ = one_shot_crash("save.manifest.prepared")
    with pytest.raises(SimulatedCrash):
        store.take("s2", providers(2), virtual_time_ns=1, parent="s1")

    def listing():
        return {d: sorted(os.listdir(os.path.join(root, d)))
                for d in ("chunks", "manifests", "journal")}

    before = listing()
    scan = DurableSnapshotStore(root, fsync=False).fsck()
    assert not scan.clean
    assert scan.rolled_back == ["s2"]
    assert scan.torn_files_removed == 1          # the manifest .tmp
    assert scan.orphan_chunks_removed > 0        # s2's already-synced chunks
    assert listing() == before                   # fsck touched nothing

    repaired = DurableSnapshotStore(root, fsync=False)
    assert not repaired.recover().clean
    after = listing()
    assert after["journal"] == []
    assert not any(n.endswith(".tmp") for names in after.values()
                   for n in names)
    assert DurableSnapshotStore(root, fsync=False).fsck().clean


def test_orphan_chunks_are_swept(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=0)
    stray = hashlib.sha256(b"stray").hexdigest()
    with open(os.path.join(root, "chunks", stray + ".chunk"), "wb") as fh:
        fh.write(b"stray")
    report = DurableSnapshotStore(root, fsync=False).recover()
    assert report.orphan_chunks_removed == 1
    assert not os.path.exists(os.path.join(root, "chunks",
                                           stray + ".chunk"))


def test_torn_manifest_is_quarantined_not_deleted(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=0)
    store.take("s2", providers(2), virtual_time_ns=1, parent="s1")
    path = os.path.join(root, "manifests", "s2.json")
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])          # torn mid-write

    recovered = DurableSnapshotStore(root, fsync=False)
    report = recovered.recover()
    assert report.quarantined == ["s2"]
    assert report.committed == ["s1"]
    assert os.path.exists(path + ".quarantined")  # evidence kept
    assert not os.path.exists(path)
    with pytest.raises(SnapshotError):
        recovered.restore("s2", providers(0))


def test_self_digest_rejects_bitrot_inside_valid_json(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=5)
    path = os.path.join(root, "manifests", "s1.json")
    doc = json.load(open(path))
    doc["manifest"]["virtual_time_ns"] = 999      # silent on-disk flip
    with open(path, "w") as fh:
        json.dump(doc, fh)
    report = DurableSnapshotStore(root, fsync=False).recover()
    assert report.quarantined == ["s1"]


# -- damage + degradation -------------------------------------------------------


def damaged_chain(tmp_path):
    """s1 -> s2 -> s3 on disk, with s2's unique chunk destroyed."""
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=0)
    store.take("s2", providers(2), virtual_time_ns=1, parent="s1")
    store.take("s3", providers(3), virtual_time_ns=2, parent="s2")
    refs = {sid: {ref for rec in store.manifests[sid].providers
                  for ref in rec.chunks} for sid in store.order}
    victim = sorted(refs["s2"] - refs["s1"] - refs["s3"])[0]
    os.unlink(os.path.join(root, "chunks", victim + ".chunk"))
    return root


def test_missing_chunk_degrades_to_nearest_intact_ancestor(tmp_path):
    root = damaged_chain(tmp_path)
    store = DurableSnapshotStore(root, fsync=False)
    report = store.recover()
    assert [sid for sid, _why in report.damaged] == ["s2"]
    assert report.committed == ["s1", "s3"]       # s3's chunks all verify
    assert store.is_damaged("s2") and not store.is_damaged("s3")
    assert store.nearest_intact("s2") == "s1"     # walks the parent link
    assert store.nearest_intact("s3") == "s3"
    with pytest.raises(SnapshotError, match="damaged.*nearest intact"):
        store.restore("s2", providers(0))
    live = providers(0)
    store.restore("s3", live)                     # intact descendants work
    assert live[0].values == {"x": 3}
    # damaged snapshots keep their surviving chunks (never swept)
    assert report.orphan_chunks_removed == 0
    # and their ids stay reserved: a re-take must not shadow the wreck
    with pytest.raises(SnapshotError, match="damaged"):
        store.take("s2", providers(9), virtual_time_ns=9)


def test_fully_broken_ancestry_has_no_intact_fallback(tmp_path):
    root = str(tmp_path / "store")
    store = DurableSnapshotStore(root, fsync=False)
    store.take("s1", providers(1), virtual_time_ns=0)
    for name in os.listdir(os.path.join(root, "chunks")):
        os.unlink(os.path.join(root, "chunks", name))
    recovered = DurableSnapshotStore(root, fsync=False)
    report = recovered.recover()
    assert [sid for sid, _why in report.damaged] == ["s1"]
    assert recovered.nearest_intact("s1") is None  # caller replays


# -- injected faults through the write path -------------------------------------


def instrumented_store(tmp_path, plan, **kwargs):
    tracer = Tracer(clock=lambda: 0)
    store = DurableSnapshotStore(str(tmp_path / "store"), fsync=False,
                                 tracer=tracer, **kwargs)
    injector = FaultInjector(Simulator(), plan, tracer=tracer)
    injector.register_durable_store(store)
    return store, injector, tracer


def test_transient_disk_faults_are_retried_then_succeed(tmp_path):
    plan = FaultPlan(disk_faults=(
        DiskFault(store="durable", operation="write", max_failures=3),))
    store, injector, tracer = instrumented_store(tmp_path, plan)
    store.take("s1", providers(1), virtual_time_ns=0)   # survives 3 errors
    assert injector.injected["fault.disk"] == 3
    retries = [r for r in tracer.sink.records
               if r.category == "snapshot.retry"]
    assert len(retries) == 3
    assert all(r.fields["retry"] for r in retries)
    assert all(r.fields["backoff_ns"] > 0 for r in retries)
    assert DurableSnapshotStore(str(tmp_path / "store"),
                                fsync=False).recover().committed == ["s1"]


def test_retry_exhaustion_aborts_with_store_at_prior_commit(tmp_path):
    tracer = Tracer(clock=lambda: 0)
    store = DurableSnapshotStore(str(tmp_path / "store"), fsync=False,
                                 tracer=tracer,
                                 retry_policy=RetryThenAbort(max_retries=2))
    store.take("s1", providers(1), virtual_time_ns=0)   # commits cleanly
    plan = FaultPlan(disk_faults=(
        DiskFault(store="durable", operation="write", max_failures=99),))
    injector = FaultInjector(Simulator(), plan, tracer=tracer)
    injector.register_durable_store(store)
    with pytest.raises(SnapshotError, match="failed after 3 attempts"):
        store.take("s2", providers(2), virtual_time_ns=1, parent="s1")
    assert store.order == ["s1"]                        # memory unwound
    aborted = [r for r in tracer.sink.records
               if r.category == "snapshot.retry" and not r.fields["retry"]]
    assert aborted
    recovered = DurableSnapshotStore(str(tmp_path / "store"), fsync=False)
    assert recovered.recover().committed == ["s1"]      # disk unwound too


def test_process_crash_targets_a_specific_save(tmp_path):
    plan = FaultPlan(process_crashes=(
        ProcessCrash(at_point="save.manifest.prepared", during_save=2),))
    store, injector, _tracer = instrumented_store(tmp_path, plan)
    store.take("s1", providers(1), virtual_time_ns=0)   # save #1: spared
    with pytest.raises(SimulatedCrash):
        store.take("s2", providers(2), virtual_time_ns=1, parent="s1")
    assert injector.injected["fault.process.crash"] == 1
    store.crash_hook = None
    # budget consumed: nothing fires on later saves
    recovered = DurableSnapshotStore(str(tmp_path / "store"), fsync=False)
    recovered.recover()
    injector.register_durable_store(recovered)
    recovered.take("s3", providers(3), virtual_time_ns=2, parent="s1")
    assert recovered.order == ["s1", "s3"]


def test_unregistered_crash_point_is_rejected(tmp_path):
    store = DurableSnapshotStore(str(tmp_path / "s"), fsync=False)
    with pytest.raises(SnapshotError, match="unregistered crash point"):
        store._crash_point("save.nonexistent")
    assert "save.begin" in CRASH_POINTS
    assert "recover.orphan.sweep" in CRASH_POINTS


# -- end to end: worlds, resume, the exhaustive matrix --------------------------


def test_fig4_crash_matrix_exhaustive(tmp_path):
    result = crash_matrix("fig4", str(tmp_path), steps=2, during_save=2)
    assert len(result["points"]) == len(SAVE_CRASH_POINTS)
    for entry in result["points"]:
        assert entry["crashed"], entry["point"]
        assert entry["atomic"], entry
        assert entry["resumed_digest_match"], entry
        assert entry["resumes"] == 1
    assert result["ok"]


@pytest.mark.parametrize("kind", ["fig4", "fig8", "faultstorm"])
def test_resume_after_crash_matches_uninterrupted_run(tmp_path, kind):
    baseline = run_durable(kind, str(tmp_path / "baseline"), steps=3,
                           fsync=False)
    assert baseline["restore_stats"]["resumes"] == 0
    root = str(tmp_path / "killed")
    plan = FaultPlan(process_crashes=(
        ProcessCrash(at_point="save.intent.committed", during_save=2),))
    with pytest.raises(SimulatedCrash):
        run_durable(kind, root, steps=3, fsync=False, plan=plan)
    resumed = run_durable(kind, root, steps=3, fsync=False, resume=True)
    assert resumed["digest"] == baseline["digest"]
    assert resumed["committed"] == baseline["committed"]
    assert resumed["restore_stats"]["resumes"] == 1
    assert resumed["restore_stats"]["restores"] == 1
    assert resumed["restore_stats"]["replays"] == 0


def test_resume_with_damaged_deepest_degrades_and_still_matches(tmp_path):
    baseline = run_durable("fig4", str(tmp_path / "baseline"), steps=3,
                           fsync=False)
    root = str(tmp_path / "damaged")
    run_durable("fig4", root, steps=3, fsync=False)
    probe = DurableSnapshotStore(root, fsync=False)
    probe.recover()
    refs = {sid: {ref for rec in probe.manifests[sid].providers
                  for ref in rec.chunks} for sid in probe.order}
    only_deepest = refs["node3"] - refs["node0"] - refs["node1"] \
        - refs["node2"]
    os.unlink(os.path.join(root, "chunks",
                           sorted(only_deepest)[0] + ".chunk"))
    resumed = run_durable("fig4", root, steps=3, fsync=False, resume=True)
    assert resumed["digest"] == baseline["digest"]
    assert resumed["restore_stats"]["degraded"] == 1
    assert resumed["restore_stats"]["restores"] == 1


def test_resume_on_clean_store_skips_completed_steps(tmp_path):
    root = str(tmp_path / "store")
    finished = run_durable("fig4", root, steps=3, fsync=False)
    again = run_durable("fig4", root, steps=3, fsync=False, resume=True)
    assert again["digest"] == finished["digest"]
    assert again["committed"] == finished["committed"]  # nothing re-taken


# -- the `repro snapshot` CLI over the durable directory -----------------------


def test_snapshot_cli_inspects_diffs_and_restores_durable_store(tmp_path,
                                                                capsys):
    from repro.__main__ import main

    root = str(tmp_path / "store")
    assert main(["snapshot", "run", "--durable", root, "--no-fsync",
                 "--checkpoints", "2", "--interval-ms", "40"]) == 0
    assert main(["snapshot", "inspect", "--durable", root]) == 0
    assert main(["snapshot", "diff", "--durable", root, "--id", "node1",
                 "--against", "node2"]) == 0
    assert main(["snapshot", "restore", "--durable", root, "--id",
                 "node2", "--verify"]) == 0
    assert "replay cross-check: OK" in capsys.readouterr().out
    # a world that does not match fails the restore's registry check
    assert main(["snapshot", "restore", "--durable", root, "--id",
                 "node2", "--world", "fig8"]) == 1
    assert "provider registry mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["inspect", "--id", "cp9"], "unknown snapshot 'cp9'"),
    (["diff", "--id", "node1"], "diff needs --id and --against"),
    (["diff", "--id", "node1", "--against", "cp9"],
     "unknown snapshot 'cp9'"),
    (["restore", "--id", "cp9"], "unknown snapshot 'cp9'"),
])
def test_snapshot_cli_bad_ids_exit_1_with_a_message(tmp_path, capsys, argv,
                                                    message):
    from repro.__main__ import main

    root = str(tmp_path / "store")
    assert main(["snapshot", "run", "--durable", root, "--no-fsync",
                 "--checkpoints", "1", "--interval-ms", "40"]) == 0
    capsys.readouterr()
    assert main(["snapshot", *argv, "--durable", root]) == 1
    assert message in capsys.readouterr().out
