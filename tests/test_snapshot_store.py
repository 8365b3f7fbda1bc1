"""Snapshot store unit tests: chunking, dedup, deltas, strict validation.

The store must never restore partial or reinterpreted state: corrupted
chunks, truncated manifests, schema-version skew, and provider-registry
mismatches all have to fail loudly *before* any provider's ``restore``
hook runs (two-phase validate-then-apply).
"""

import pytest

from repro.checkpoint.pipeline import Checkpointable
from repro.checkpoint.snapshot import (CHUNK_BYTES, MANIFEST_FORMAT,
                                       SnapshotManifest, SnapshotStore,
                                       canonical_bytes, payload_digest)
from repro.errors import SnapshotError


class Counter(Checkpointable):
    """Tiny provider: a named dict of integers."""

    def __init__(self, name, **values):
        self.name = name
        self.values = dict(values)
        self.restored = 0

    def serialize(self):
        return dict(self.values)

    def restore(self, snapshot):
        self.values = dict(snapshot)
        self.restored += 1


class BigCounter(Counter):
    """Payload spanning several chunks, mostly stable across snapshots."""

    def serialize(self):
        pad = {f"pad{i}": i for i in range(400)}   # ~4 chunks of ballast
        return {**pad, **self.values}

    def restore(self, snapshot):
        self.values = {k: v for k, v in snapshot.items()
                       if not k.startswith("pad")}
        self.restored += 1


def test_take_and_materialize_roundtrip():
    store = SnapshotStore()
    providers = [Counter("a", x=1), Counter("b", y=2)]
    manifest = store.take("s1", providers, virtual_time_ns=10, label="first")
    assert manifest.snapshot_id == "s1"
    assert manifest.parent is None
    assert [r.name for r in manifest.providers] == ["a", "b"]
    assert all(r.schema_version == 1 for r in manifest.providers)
    assert store.materialize("s1") == {"a": {"x": 1}, "b": {"y": 2}}


def test_digest_and_chunking_are_content_addressed():
    store = SnapshotStore()
    manifest = store.take("s1", [BigCounter("big", n=0)], virtual_time_ns=0)
    rec = manifest.record("big")
    blob = canonical_bytes(store.materialize("s1")["big"])
    assert rec.nbytes == len(blob) > CHUNK_BYTES      # really multi-chunk
    assert rec.digest == payload_digest(blob)
    assert len(rec.chunks) == -(-len(blob) // CHUNK_BYTES)


def test_unchanged_chunks_are_deduplicated():
    store = SnapshotStore()
    big = BigCounter("big", n=0)
    first = store.take("s1", [big], virtual_time_ns=0)
    big.values["n"] = 1                                # tiny change
    second = store.take("s2", [big], virtual_time_ns=1, parent="s1")
    assert second.parent == "s1"
    assert first.new_chunk_bytes == first.total_bytes  # cold store: all new
    assert 0 < second.new_chunk_bytes < second.total_bytes
    stats = store.delta_stats("s2")
    assert stats["parent"] == "s1"
    assert stats["dedup_saved_bytes"] == (second.total_bytes -
                                          second.new_chunk_bytes)


def test_diff_reports_added_removed_changed():
    store = SnapshotStore()
    store.take("s1", [Counter("a", x=1), Counter("gone", z=9)],
               virtual_time_ns=0)
    store.take("s2", [Counter("a", x=2), Counter("new", w=0)],
               virtual_time_ns=1)
    diff = store.diff("s1", "s2")
    assert [c["name"] for c in diff["changed"]] == ["a"]
    assert diff["added"] == ["new"]
    assert diff["removed"] == ["gone"]


def test_restore_applies_payloads_in_registry_order():
    store = SnapshotStore()
    a, b = Counter("a", x=1), Counter("b", y=2)
    store.take("s1", [a, b], virtual_time_ns=0)
    a.values["x"] = 99
    b.values["y"] = 99
    store.restore("s1", [a, b])
    assert (a.values, b.values) == ({"x": 1}, {"y": 2})
    assert (a.restored, b.restored) == (1, 1)


# -- strict rejection: never restore partial or reinterpreted state -------------


def test_corrupted_chunk_rejected_before_any_restore_runs():
    store = SnapshotStore()
    a, big = Counter("a", x=1), BigCounter("big", n=0)
    store.take("s1", [a, big], virtual_time_ns=0)
    store.chunks.corrupt(store.manifest("s1").record("big").chunks[0])
    a.values["x"] = 77
    with pytest.raises(SnapshotError):
        store.restore("s1", [a, big])
    # phase-1 validation failed, so not even the intact provider was touched
    assert a.values == {"x": 77}
    assert (a.restored, big.restored) == (0, 0)


def test_truncated_manifest_rejected():
    with pytest.raises(SnapshotError):
        SnapshotManifest.from_dict({"format": MANIFEST_FORMAT,
                                    "snapshot_id": "s1"})


def test_unsupported_manifest_format_rejected():
    data = SnapshotStore()
    manifest = data.take("s1", [Counter("a", x=1)], virtual_time_ns=0)
    blob = manifest.to_dict()
    assert SnapshotManifest.from_dict(blob) == manifest
    blob["format"] = MANIFEST_FORMAT + 1
    with pytest.raises(SnapshotError, match="unsupported"):
        SnapshotManifest.from_dict(blob)


def test_schema_version_skew_rejected_without_touching_state():
    store = SnapshotStore()
    old = Counter("a", x=1)
    store.take("s1", [old], virtual_time_ns=0)

    class CounterV2(Counter):
        SCHEMA_VERSION = 2

    live = CounterV2("a", x=42)
    with pytest.raises(SnapshotError):
        store.restore("s1", [live])
    assert live.values == {"x": 42}
    assert live.restored == 0


def test_provider_registry_mismatch_rejected():
    store = SnapshotStore()
    store.take("s1", [Counter("a", x=1), Counter("b", y=2)],
               virtual_time_ns=0)
    with pytest.raises(SnapshotError):
        store.restore("s1", [Counter("a", x=1)])          # missing b
    with pytest.raises(SnapshotError):
        store.restore("s1", [Counter("a", x=1), Counter("b", y=2),
                             Counter("c", z=3)])          # extra c


def test_take_rejects_duplicates_and_bad_payloads():
    store = SnapshotStore()
    store.take("s1", [Counter("a", x=1)], virtual_time_ns=0)
    with pytest.raises(SnapshotError):
        store.take("s1", [Counter("a", x=1)], virtual_time_ns=1)
    with pytest.raises(SnapshotError):
        store.take("s2", [Counter("a", x=1), Counter("a", x=2)],
                   virtual_time_ns=1)
    with pytest.raises(SnapshotError):
        store.take("s3", [Counter("a", x=1)], virtual_time_ns=1,
                   parent="nope")

    class Rogue(Checkpointable):
        name = "rogue"

        def serialize(self):
            return ["not", "a", "dict"]

        def restore(self, snapshot):
            pass

    with pytest.raises(SnapshotError):
        store.take("s4", [Rogue()], virtual_time_ns=1)


def test_unknown_snapshot_id():
    store = SnapshotStore()
    with pytest.raises(SnapshotError):
        store.manifest("missing")
    with pytest.raises(SnapshotError):
        store.restore("missing", [])
