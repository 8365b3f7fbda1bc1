"""Content-addressed snapshots of provider state (the DMTCP plugin model).

The staged pipeline (:mod:`repro.checkpoint.pipeline`) coordinates *when*
subsystems freeze; this module is the *what*: every
:class:`~repro.checkpoint.pipeline.Checkpointable` provider serializes its
own state through the versioned ``serialize() -> dict`` hook, and the
snapshot store persists those payloads the way the paper's branching
storage persists disk deltas (§4.5, §5.1):

* **chunked, content-addressed blobs** — each provider payload is encoded
  canonically (sorted-key JSON), split into fixed-size chunks, and stored
  by SHA-256.  Chunks shared with any earlier snapshot are stored once, so
  the *incremental* cost of snapshot N+1 is only what actually changed —
  the redo-log property, applied to component state.  The store keeps
  them in memory; :class:`~repro.checkpoint.durable.DurableSnapshotStore`
  is the one on-disk format.
* **strict manifests** — one :class:`SnapshotManifest` per snapshot records
  every provider's name, schema version, payload digest, and chunk list,
  plus the parent snapshot reference.  ``from_dict`` rejects unknown or
  missing fields loudly: a manifest that cannot be fully understood is
  never partially restored.
* **two-phase restore** — :meth:`SnapshotStore.restore` first validates
  *everything* (manifest/provider name sets, schema versions, chunk
  digests, payload digests) and only then applies ``restore(payload)`` to
  the providers, so a corrupted snapshot raises
  :class:`~repro.errors.SnapshotError` before any live state is touched.

Restore cost is O(state), not O(history) — the property that turns the
time-travel controller's replay-from-origin into restore-then-run (§6).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SnapshotError

#: payload chunk size; small enough that a machine counter change does not
#: force re-storing an unrelated provider's whole payload
CHUNK_BYTES = 1024

#: manifest container format version (bumped on incompatible layout change)
MANIFEST_FORMAT = 1


def canonical_bytes(payload: dict) -> bytes:
    """Canonical encoding of one provider payload (sorted-key JSON).

        >>> canonical_bytes({"b": 1, "a": [2, 3]})
        b'{"a":[2,3],"b":1}'
    """
    try:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"payload is not JSON-serializable: {exc}") \
            from exc


def payload_digest(blob: bytes) -> str:
    """SHA-256 hex digest of an encoded payload."""
    return hashlib.sha256(blob).hexdigest()


class ChunkStore:
    """Content-addressed chunk storage with cross-snapshot dedup."""

    def __init__(self) -> None:
        self._chunks: Dict[str, bytes] = {}
        self.chunks_stored = 0
        self.chunks_deduped = 0
        self.bytes_stored = 0
        self.bytes_deduped = 0

    def __len__(self) -> int:
        return len(self._chunks)

    def put(self, blob: bytes) -> Tuple[str, ...]:
        """Store ``blob`` chunked; returns the chunk reference list."""
        refs: List[str] = []
        for off in range(0, len(blob), CHUNK_BYTES) or (0,):
            chunk = blob[off:off + CHUNK_BYTES]
            ref = hashlib.sha256(chunk).hexdigest()
            if ref in self._chunks:
                self.chunks_deduped += 1
                self.bytes_deduped += len(chunk)
            else:
                self._chunks[ref] = chunk
                self.chunks_stored += 1
                self.bytes_stored += len(chunk)
            refs.append(ref)
        return tuple(refs)

    def get(self, refs: Sequence[str]) -> bytes:
        """Reassemble a payload, verifying every chunk against its ref."""
        parts: List[bytes] = []
        for ref in refs:
            chunk = self._chunks.get(ref)
            if chunk is None:
                raise SnapshotError(f"missing chunk {ref[:12]}…")
            if hashlib.sha256(chunk).hexdigest() != ref:
                raise SnapshotError(f"corrupted chunk {ref[:12]}…")
            parts.append(chunk)
        return b"".join(parts)

    def corrupt(self, ref: str) -> None:
        """Flip one byte of a stored chunk (test hook for rejection paths)."""
        chunk = self._chunks.get(ref)
        if chunk is None:
            raise SnapshotError(f"missing chunk {ref[:12]}…")
        flipped = bytes([chunk[0] ^ 0xFF]) + chunk[1:]
        self._chunks[ref] = flipped


def _require(mapping: dict, keys: Iterable[str], what: str) -> None:
    missing = [k for k in keys if k not in mapping]
    extra = [k for k in mapping if k not in keys]
    if missing or extra:
        raise SnapshotError(
            f"malformed {what}: missing={missing or None} "
            f"unknown={extra or None}")


@dataclass(frozen=True)
class ProviderRecord:
    """One provider's entry in a snapshot manifest."""

    name: str
    schema_version: int
    nbytes: int
    digest: str
    chunks: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {"name": self.name, "schema_version": self.schema_version,
                "nbytes": self.nbytes, "digest": self.digest,
                "chunks": list(self.chunks)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProviderRecord":
        if not isinstance(data, dict):
            raise SnapshotError("malformed provider record: not a mapping")
        _require(data, ("name", "schema_version", "nbytes", "digest",
                        "chunks"), "provider record")
        if not isinstance(data["schema_version"], int):
            raise SnapshotError(
                f"provider {data['name']!r}: schema_version must be int")
        return cls(name=data["name"],
                   schema_version=data["schema_version"],
                   nbytes=data["nbytes"], digest=data["digest"],
                   chunks=tuple(data["chunks"]))


@dataclass(frozen=True)
class SnapshotManifest:
    """All metadata of one snapshot: providers, digests, parent ref."""

    snapshot_id: str
    virtual_time_ns: int
    parent: Optional[str]
    label: str
    providers: Tuple[ProviderRecord, ...]
    #: chunk bytes newly stored by this snapshot (0 == fully deduplicated)
    new_chunk_bytes: int

    @property
    def total_bytes(self) -> int:
        return sum(p.nbytes for p in self.providers)

    def record(self, name: str) -> ProviderRecord:
        for rec in self.providers:
            if rec.name == name:
                return rec
        raise SnapshotError(
            f"snapshot {self.snapshot_id!r} has no provider {name!r}")

    def to_dict(self) -> dict:
        return {"format": MANIFEST_FORMAT,
                "snapshot_id": self.snapshot_id,
                "virtual_time_ns": self.virtual_time_ns,
                "parent": self.parent, "label": self.label,
                "new_chunk_bytes": self.new_chunk_bytes,
                "providers": [p.to_dict() for p in self.providers]}

    @classmethod
    def from_dict(cls, data: dict) -> "SnapshotManifest":
        if not isinstance(data, dict):
            raise SnapshotError("malformed manifest: not a mapping")
        _require(data, ("format", "snapshot_id", "virtual_time_ns", "parent",
                        "label", "new_chunk_bytes", "providers"), "manifest")
        if data["format"] != MANIFEST_FORMAT:
            raise SnapshotError(
                f"manifest format {data['format']!r} unsupported "
                f"(this build reads format {MANIFEST_FORMAT})")
        return cls(snapshot_id=data["snapshot_id"],
                   virtual_time_ns=data["virtual_time_ns"],
                   parent=data["parent"], label=data["label"],
                   new_chunk_bytes=data["new_chunk_bytes"],
                   providers=tuple(ProviderRecord.from_dict(p)
                                   for p in data["providers"]))


class SnapshotStore:
    """Takes, stores, diffs, and restores provider-state snapshots."""

    def __init__(self) -> None:
        self.chunks = ChunkStore()
        self.manifests: Dict[str, SnapshotManifest] = {}
        self.order: List[str] = []

    # ------------------------------------------------------------------ take

    def take(self, snapshot_id: str, providers, virtual_time_ns: int,
             parent: Optional[str] = None,
             label: str = "") -> SnapshotManifest:
        """Serialize every provider into a new snapshot.

        ``parent`` names the snapshot this one is incremental against —
        purely informational for navigation; dedup is global, so chunks
        shared with *any* stored snapshot are never stored twice.
        """
        if snapshot_id in self.manifests:
            raise SnapshotError(f"snapshot {snapshot_id!r} already exists")
        if parent is not None and parent not in self.manifests:
            raise SnapshotError(f"parent snapshot {parent!r} not found")
        before = self.chunks.bytes_stored
        records: List[ProviderRecord] = []
        seen: set = set()
        for provider in providers:
            if provider.name in seen:
                raise SnapshotError(
                    f"duplicate provider name {provider.name!r}")
            seen.add(provider.name)
            payload = provider.serialize()
            if not isinstance(payload, dict):
                raise SnapshotError(
                    f"{provider.name}: serialize() must return a dict, "
                    f"got {type(payload).__name__}")
            blob = canonical_bytes(payload)
            records.append(ProviderRecord(
                name=provider.name,
                schema_version=provider.SCHEMA_VERSION,
                nbytes=len(blob),
                digest=payload_digest(blob),
                chunks=self.chunks.put(blob)))
        manifest = SnapshotManifest(
            snapshot_id=snapshot_id, virtual_time_ns=virtual_time_ns,
            parent=parent, label=label, providers=tuple(records),
            new_chunk_bytes=self.chunks.bytes_stored - before)
        self.manifests[snapshot_id] = manifest
        self.order.append(snapshot_id)
        return manifest

    # ------------------------------------------------------------------ read

    def manifest(self, snapshot_id: str) -> SnapshotManifest:
        manifest = self.manifests.get(snapshot_id)
        if manifest is None:
            raise SnapshotError(f"unknown snapshot {snapshot_id!r}")
        return manifest

    def materialize(self, snapshot_id: str) -> Dict[str, dict]:
        """Decode every provider payload of a snapshot (validated)."""
        manifest = self.manifest(snapshot_id)
        out: Dict[str, dict] = {}
        for rec in manifest.providers:
            out[rec.name] = self._decode(manifest.snapshot_id, rec)
        return out

    def _decode(self, snapshot_id: str, rec: ProviderRecord) -> dict:
        blob = self.chunks.get(rec.chunks)
        if len(blob) != rec.nbytes:
            raise SnapshotError(
                f"{snapshot_id}/{rec.name}: truncated payload "
                f"({len(blob)} bytes, manifest says {rec.nbytes})")
        if payload_digest(blob) != rec.digest:
            raise SnapshotError(
                f"{snapshot_id}/{rec.name}: payload digest mismatch")
        try:
            return json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SnapshotError(
                f"{snapshot_id}/{rec.name}: undecodable payload: "
                f"{exc}") from exc

    def is_damaged(self, snapshot_id: str) -> bool:
        """Whether a stored snapshot is unusable; never, in memory."""
        return False

    def resume_manifests(self) -> List[SnapshotManifest]:
        """Every stored manifest in the order it was taken."""
        return [self.manifests[sid] for sid in self.order]

    # ------------------------------------------------------------------ restore

    def restore(self, snapshot_id: str, providers) -> SnapshotManifest:
        """Two-phase restore: validate everything, then apply in order.

        Phase 1 cross-checks the provider registry against the manifest
        (same name set, same schema versions) and decodes every payload
        with digest verification.  Only if *all* of that succeeds does
        phase 2 call ``restore(payload)`` on each provider, in the given
        registration order (the frontier provider must come first — see
        docs/snapshots.md).  Any phase-1 failure leaves live state
        untouched.
        """
        manifest = self.manifest(snapshot_id)
        providers = list(providers)
        live = {p.name: p for p in providers}
        if len(live) != len(providers):
            raise SnapshotError("duplicate provider names in registry")
        recorded = {rec.name for rec in manifest.providers}
        if set(live) != recorded:
            raise SnapshotError(
                f"provider registry mismatch: snapshot has "
                f"{sorted(recorded)}, live run has {sorted(live)}")
        payloads: Dict[str, dict] = {}
        for rec in manifest.providers:
            provider = live[rec.name]
            if provider.SCHEMA_VERSION != rec.schema_version:
                raise SnapshotError(
                    f"{rec.name}: schema version mismatch (snapshot v"
                    f"{rec.schema_version}, provider v"
                    f"{provider.SCHEMA_VERSION}); refusing to restore")
            payloads[rec.name] = self._decode(snapshot_id, rec)
        for provider in providers:        # phase 2: all-or-nothing apply
            provider.restore(payloads[provider.name])
        return manifest

    # ------------------------------------------------------------------ stats

    def delta_stats(self, snapshot_id: str) -> dict:
        """Full-vs-incremental cost of one stored snapshot."""
        manifest = self.manifest(snapshot_id)
        return {"snapshot_id": snapshot_id,
                "parent": manifest.parent,
                "total_bytes": manifest.total_bytes,
                "new_chunk_bytes": manifest.new_chunk_bytes,
                "dedup_saved_bytes":
                    manifest.total_bytes - manifest.new_chunk_bytes,
                "providers": len(manifest.providers)}

    def diff(self, first_id: str, second_id: str) -> dict:
        """Per-provider comparison of two snapshots."""
        first, second = self.manifest(first_id), self.manifest(second_id)
        a = {rec.name: rec for rec in first.providers}
        b = {rec.name: rec for rec in second.providers}
        changed = []
        for name in sorted(set(a) & set(b)):
            ra, rb = a[name], b[name]
            if ra.digest == rb.digest:
                continue
            shared = len(set(ra.chunks) & set(rb.chunks))
            changed.append({"name": name,
                            "bytes_before": ra.nbytes,
                            "bytes_after": rb.nbytes,
                            "chunks_shared": shared,
                            "chunks_after": len(rb.chunks)})
        return {"first": first_id, "second": second_id,
                "added": sorted(set(b) - set(a)),
                "removed": sorted(set(a) - set(b)),
                "unchanged": sorted(n for n in set(a) & set(b)
                                    if a[n].digest == b[n].digest),
                "changed": changed}
