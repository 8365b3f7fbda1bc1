"""Crash-safe on-disk snapshots: journaled commits, fsck, crash points.

:class:`DurableSnapshotStore` is the one on-disk snapshot format.  It
keeps the in-memory :class:`~repro.checkpoint.snapshot.SnapshotStore`
semantics (content-addressed chunks, strict manifests, two-phase
restore) and persists every snapshot through a journal/commit-marker
protocol under which a crash at **any** instruction leaves the store
recoverable to exactly the previous or the new committed snapshot —
never anything in between.

On-disk layout (all under one root directory)::

    root/
      chunks/<sha256>.chunk     content-addressed payload chunks
      manifests/<sid>.json      committed manifests (atomic rename)
      journal/<sid>.intent      commit intent, present only mid-save

Commit protocol for one snapshot (write-temp → fsync → atomic rename at
every step; the directories are fsynced after each rename barrier):

1. write + fsync ``journal/<sid>.intent.tmp``, rename to ``.intent``
   — the *intent marker*: recovery now knows a save was in flight;
2. write + fsync + rename each chunk file the snapshot adds (chunks
   shared with committed snapshots are already on disk — the delta
   property survives the disk);
3. write + fsync ``manifests/<sid>.json.tmp``, then ``os.replace`` to
   ``manifests/<sid>.json`` — **the commit point**: the snapshot exists
   exactly when this rename is durable;
4. unlink the intent marker (cleanup; recovery finishes it if we die
   first).

Every barrier registers a named **crash point** (:data:`CRASH_POINTS`).
A :class:`~repro.faults.plan.ProcessCrash` fault raises
:class:`~repro.errors.SimulatedCrash` at a chosen point, and the crash
matrix (``repro snapshot crashmatrix``, ``tests/test_snapshot_durable``)
proves atomicity by exhaustive enumeration: for every point, recovery
lands on the prior or the new committed snapshot, digest-verified.

:meth:`DurableSnapshotStore.recover` (and its read-only twin
:meth:`fsck <DurableSnapshotStore.fsck>`) classifies every on-disk
state — clean, torn temp files, stale intents (completed vs rolled
back), orphan chunks, corrupt manifests, manifests with missing or
corrupt chunks — and either repairs it or degrades safely: a snapshot
whose delta chain is broken is *damaged*, not fatal; navigation falls
back to :meth:`nearest_intact` plus deterministic replay.

Transient I/O errors (``ENOSPC``, ``EIO`` — injected via
:class:`~repro.faults.plan.DiskFault` with ``store="durable"``) are
retried with the supervisor's bounded
:class:`~repro.checkpoint.supervisor.RetryThenAbort` decision shape and
traced as ``snapshot.retry`` records; exhaustion aborts the save with
the store still at its last committed snapshot.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.checkpoint.snapshot import (SnapshotManifest, SnapshotStore,
                                       canonical_bytes, payload_digest)
from repro.checkpoint.supervisor import RetryThenAbort
from repro.errors import SnapshotError, StorageError
from repro.obs.trace import Tracer, maybe_record

#: on-disk container format of manifest documents and intent records
DURABLE_FORMAT = 1

#: crash points of the save path, in barrier order.  "save.begin" fires
#: before anything is written; "save.manifest.committed" is the first
#: point at which the new snapshot is durable.
SAVE_CRASH_POINTS = (
    "save.begin",
    "save.intent.prepared",
    "save.intent.committed",
    "save.chunk.first",
    "save.chunks.synced",
    "save.manifest.prepared",
    "save.manifest.committed",
    "save.journal.cleared",
)

#: crash points of the recovery path (repairs must themselves be
#: crash-safe: recovery after a crashed recovery converges)
RECOVER_CRASH_POINTS = (
    "recover.journal.rollback",
    "recover.journal.clear",
    "recover.orphan.sweep",
)

#: every registered durability barrier, in path order
CRASH_POINTS = SAVE_CRASH_POINTS + RECOVER_CRASH_POINTS

#: errno values treated as transient (retried) by the durable write path
TRANSIENT_ERRNOS = (errno.ENOSPC, errno.EIO, errno.EAGAIN, errno.EINTR)

_CHUNK_SUFFIX = ".chunk"
_MANIFEST_SUFFIX = ".json"
_INTENT_SUFFIX = ".intent"
_TMP_SUFFIX = ".tmp"
_QUARANTINE_SUFFIX = ".quarantined"


@dataclass
class FsckReport:
    """What one :meth:`DurableSnapshotStore.recover`/``fsck`` pass found.

    ``committed`` is the usable snapshot chain (commit order);
    ``completed`` are snapshots whose commit landed but whose intent
    marker was still present (the crash hit between steps 3 and 4 —
    recovery finished the cleanup); ``rolled_back`` are saves that died
    before their commit point (intent present, no manifest — recovery
    discarded their partial state); ``damaged`` are committed manifests
    whose chunks are missing or corrupt (kept on disk, excluded from the
    usable chain, served via :meth:`~DurableSnapshotStore.nearest_intact`
    + replay); ``quarantined`` are manifest files that failed parsing or
    self-digest validation (renamed aside, never deleted).
    """

    committed: List[str] = field(default_factory=list)
    completed: List[str] = field(default_factory=list)
    rolled_back: List[str] = field(default_factory=list)
    damaged: List[Tuple[str, str]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    torn_files_removed: int = 0
    orphan_chunks_removed: int = 0
    repaired: bool = False

    @property
    def clean(self) -> bool:
        """True when the store needed no repair and nothing degraded."""
        return not (self.completed or self.rolled_back or self.damaged
                    or self.quarantined or self.torn_files_removed
                    or self.orphan_chunks_removed)

    def to_dict(self) -> dict:
        return {"committed": list(self.committed),
                "completed": list(self.completed),
                "rolled_back": list(self.rolled_back),
                "damaged": [list(pair) for pair in self.damaged],
                "quarantined": list(self.quarantined),
                "torn_files_removed": self.torn_files_removed,
                "orphan_chunks_removed": self.orphan_chunks_removed,
                "repaired": self.repaired,
                "clean": self.clean}


class DurableSnapshotStore(SnapshotStore):
    """A :class:`SnapshotStore` whose snapshots survive process death.

    The in-memory structures inherited from the base class act as a
    cache of the committed on-disk state; :meth:`take` commits each new
    snapshot durably before returning, and :meth:`recover` rebuilds the
    cache from disk (repairing what a crash left behind).  Single
    writer: the store assumes one process mutates ``root`` at a time.

    ``fsync=False`` keeps the full barrier *ordering* (temp files,
    atomic renames, crash points) but skips the physical ``fsync``
    calls — the mode CI uses for speed; crash-matrix coverage is
    unchanged because the simulated crash model is process death, not
    power loss.
    """

    def __init__(self, root: str, *, fsync: bool = True,
                 tracer: Optional[Tracer] = None,
                 retry_policy: Optional[RetryThenAbort] = None) -> None:
        super().__init__()
        self.root = os.path.abspath(root)
        self.fsync_enabled = fsync
        self.tracer = tracer
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryThenAbort()
        #: set by :meth:`FaultInjector.register_durable_store`; called
        #: with each crash-point name as the save/recover path passes it
        self.crash_hook: Optional[Callable[[str], None]] = None
        #: optional FaultInjector for DiskFault routing (store="durable")
        self.faults = None
        self._chunk_dir = os.path.join(self.root, "chunks")
        self._manifest_dir = os.path.join(self.root, "manifests")
        self._journal_dir = os.path.join(self.root, "journal")
        for path in (self._chunk_dir, self._manifest_dir,
                     self._journal_dir):
            os.makedirs(path, exist_ok=True)
        #: chunk refs currently present as committed chunk files
        self._disk_refs: Set[str] = set()
        #: monotonic commit sequence (recovered as max committed seq)
        self._seq = 0
        #: snapshot_id -> reason, for committed-but-unusable manifests
        self._damaged: Dict[str, str] = {}
        #: snapshot_id -> parent, covering damaged manifests too (the
        #: delta-chain walk of :meth:`nearest_intact` needs their links)
        self._parents: Dict[str, Optional[str]] = {}
        #: manifests of damaged snapshots (metadata survives even when
        #: the chunk data did not — resume grafts them so navigation can
        #: degrade to the nearest intact ancestor + replay)
        self.damaged_manifests: Dict[str, SnapshotManifest] = {}
        #: every committed sid (intact and damaged) in commit-seq order
        self._resume_order: List[str] = []
        self._commit_durable = False

    # ------------------------------------------------------------------ barriers

    def _crash_point(self, point: str) -> None:
        if point not in CRASH_POINTS:
            raise SnapshotError(f"unregistered crash point {point!r}")
        hook = self.crash_hook
        if hook is not None:
            hook(point)

    def _fsync_dir(self, path: str) -> None:
        if not self.fsync_enabled:
            return
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_file(self, path: str, blob: bytes, what: str) -> None:
        """One durable file write, with bounded retry-then-abort.

        Transient failures — injected :class:`DiskFault`\\ s routed
        through the attached injector, or real ``OSError``\\ s with a
        transient errno — consult the supervisor-shaped retry policy
        and emit a ``snapshot.retry`` trace record per decision.  The
        store is host-side (no simulated clock), so the policy's
        backoff is recorded as metadata but never slept on.
        """
        attempt = 0
        while True:
            try:
                if self.faults is not None:
                    self.faults.disk_check("durable", "write")
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                             0o666)
                try:
                    os.write(fd, blob)
                    if self.fsync_enabled:
                        os.fsync(fd)
                finally:
                    os.close(fd)
                return
            except (StorageError, OSError) as exc:
                if isinstance(exc, OSError) \
                        and exc.errno not in TRANSIENT_ERRNOS:
                    raise
                decision = self.retry_policy.decide(None, attempt, None)
                maybe_record(self.tracer, "snapshot.retry", what=what,
                             path=os.path.basename(path), attempt=attempt,
                             retry=decision.retry,
                             backoff_ns=decision.backoff_ns,
                             error=str(exc))
                if not decision.retry:
                    raise SnapshotError(
                        f"durable write of {what} "
                        f"({os.path.basename(path)}) failed after "
                        f"{attempt + 1} attempts: {exc}") from exc
                attempt += 1

    # ------------------------------------------------------------------ take

    def take(self, snapshot_id: str, providers, virtual_time_ns: int,
             parent: Optional[str] = None,
             label: str = "") -> SnapshotManifest:
        """Serialize the providers and commit the snapshot durably.

        The in-memory registration is unwound if the commit dies before
        its commit point, so a caught abort (retry exhaustion) leaves
        the cache at the last committed snapshot; chunks already added
        to the in-memory chunk store stay behind as a harmless dedup
        cache and are garbage-collected on the next :meth:`recover`.
        """
        if snapshot_id in self._damaged:
            raise SnapshotError(
                f"snapshot {snapshot_id!r} exists on disk (damaged)")
        manifest = super().take(snapshot_id, providers, virtual_time_ns,
                                parent=parent, label=label)
        self._commit_durable = False
        try:
            self._commit(manifest)
        finally:
            if not self._commit_durable:
                del self.manifests[snapshot_id]
                self.order.remove(snapshot_id)
            else:
                self._parents[snapshot_id] = manifest.parent
                self._resume_order.append(snapshot_id)
        return manifest

    def _commit(self, manifest: SnapshotManifest) -> None:
        sid = manifest.snapshot_id
        self._crash_point("save.begin")
        self._seq += 1
        new_refs: List[str] = []
        seen: Set[str] = set()
        for rec in manifest.providers:
            for ref in rec.chunks:
                if ref not in seen and ref not in self._disk_refs:
                    seen.add(ref)
                    new_refs.append(ref)

        intent = {"format": DURABLE_FORMAT, "snapshot_id": sid,
                  "seq": self._seq, "new_chunks": new_refs}
        intent_path = os.path.join(self._journal_dir, sid + _INTENT_SUFFIX)
        blob = json.dumps(intent, sort_keys=True).encode("utf-8")
        self._write_file(intent_path + _TMP_SUFFIX, blob, "journal intent")
        self._crash_point("save.intent.prepared")
        os.replace(intent_path + _TMP_SUFFIX, intent_path)
        self._fsync_dir(self._journal_dir)
        self._crash_point("save.intent.committed")

        first = True
        for ref in new_refs:
            chunk_path = os.path.join(self._chunk_dir, ref + _CHUNK_SUFFIX)
            self._write_file(chunk_path + _TMP_SUFFIX,
                             self.chunks.get((ref,)), "chunk")
            os.replace(chunk_path + _TMP_SUFFIX, chunk_path)
            self._disk_refs.add(ref)
            if first:
                self._crash_point("save.chunk.first")
                first = False
        self._fsync_dir(self._chunk_dir)
        self._crash_point("save.chunks.synced")

        manifest_dict = manifest.to_dict()
        doc = {"durable_format": DURABLE_FORMAT, "seq": self._seq,
               "manifest": manifest_dict,
               "self_digest": payload_digest(canonical_bytes(manifest_dict))}
        manifest_path = os.path.join(self._manifest_dir,
                                     sid + _MANIFEST_SUFFIX)
        self._write_file(manifest_path + _TMP_SUFFIX,
                         json.dumps(doc, sort_keys=True,
                                    indent=1).encode("utf-8"), "manifest")
        self._crash_point("save.manifest.prepared")
        os.replace(manifest_path + _TMP_SUFFIX, manifest_path)
        self._fsync_dir(self._manifest_dir)
        self._commit_durable = True      # the rename above IS the commit
        self._crash_point("save.manifest.committed")

        os.unlink(intent_path)
        self._fsync_dir(self._journal_dir)
        self._crash_point("save.journal.cleared")
        maybe_record(self.tracer, "snapshot.durable.commit",
                     snapshot_id=sid, seq=self._seq,
                     new_chunks=len(new_refs),
                     total_bytes=manifest.total_bytes)

    # ------------------------------------------------------------------ damage

    def is_damaged(self, snapshot_id: str) -> bool:
        """Whether a committed snapshot is unusable (broken delta chain)."""
        return snapshot_id in self._damaged

    def nearest_intact(self, snapshot_id: str) -> Optional[str]:
        """The deepest intact snapshot at or above ``snapshot_id``.

        Walks the recorded parent links (damaged manifests keep theirs)
        until it finds a snapshot whose chunks all verified; ``None``
        when the whole ancestry is broken — the caller then degrades to
        deterministic replay from the origin.
        """
        current: Optional[str] = snapshot_id
        walked: Set[str] = set()
        while current is not None and current not in walked:
            walked.add(current)
            if current in self.manifests:
                return current
            current = self._parents.get(current)
        return None

    def resume_manifests(self) -> List[SnapshotManifest]:
        """Every committed manifest in commit order, damaged included.

        A resuming :class:`~repro.timetravel.controller.TimeTravelController`
        grafts all of them into its checkpoint tree: intact ones become
        restore targets, damaged ones keep their place in the history so
        navigation degrades to the nearest intact ancestor plus forward
        replay instead of forgetting the checkpoint ever existed.
        """
        return [self.manifests.get(sid) or self.damaged_manifests[sid]
                for sid in self._resume_order]

    def restore(self, snapshot_id: str, providers) -> SnapshotManifest:
        if snapshot_id in self._damaged:
            fallback = self.nearest_intact(snapshot_id)
            raise SnapshotError(
                f"snapshot {snapshot_id!r} is damaged "
                f"({self._damaged[snapshot_id]}); nearest intact "
                f"ancestor: {fallback!r}")
        return super().restore(snapshot_id, providers)

    # ------------------------------------------------------------------ recovery

    def recover(self) -> FsckReport:
        """Rebuild the cache from disk, repairing crash leftovers.

        Idempotent and itself crash-safe: every repair action is a
        single unlink/rename behind its own crash point, so a recovery
        killed mid-repair converges on the next attempt.
        """
        return self._scan(repair=True)

    def fsck(self) -> FsckReport:
        """Classify the on-disk state without modifying anything.

        Loads intact snapshots into the in-memory cache (that is a pure
        cache rebuild) but performs no unlinks, renames, or journal
        cleanup — the counts report what :meth:`recover` *would* do.
        """
        return self._scan(repair=False)

    def _scan(self, repair: bool) -> FsckReport:
        report = FsckReport(repaired=repair)
        self.chunks = type(self.chunks)()
        self.manifests = {}
        self.order = []
        self._disk_refs = set()
        self._damaged = {}
        self._parents = {}
        self.damaged_manifests = {}
        self._resume_order = []

        candidates = self._scan_manifests(report, repair)
        present = self._scan_chunks(report, repair)
        self._scan_journal(report, repair, candidates)
        self._verify_and_load(report, candidates, present)
        self._sweep_orphans(report, repair, candidates, present)
        self._seq = max([seq for seq, _ in candidates.values()],
                        default=0)
        maybe_record(self.tracer, "snapshot.durable.recover",
                     repair=repair, **{k: v for k, v in
                                       report.to_dict().items()
                                       if isinstance(v, (int, bool))})
        return report

    def _remove_torn(self, path: str, report: FsckReport,
                     repair: bool) -> None:
        report.torn_files_removed += 1
        if repair:
            os.unlink(path)

    def _scan_manifests(self, report: FsckReport, repair: bool
                        ) -> Dict[str, Tuple[int, SnapshotManifest]]:
        """Parse every manifest file; quarantine what fails validation."""
        candidates: Dict[str, Tuple[int, SnapshotManifest]] = {}
        for name in sorted(os.listdir(self._manifest_dir)):
            path = os.path.join(self._manifest_dir, name)
            if name.endswith(_TMP_SUFFIX):
                self._remove_torn(path, report, repair)
                continue
            if not name.endswith(_MANIFEST_SUFFIX):
                continue
            sid = name[:-len(_MANIFEST_SUFFIX)]
            try:
                candidates[sid] = self._load_manifest_doc(path, sid)
            except SnapshotError as exc:
                report.quarantined.append(sid)
                maybe_record(self.tracer, "snapshot.durable.quarantine",
                             snapshot_id=sid, error=str(exc))
                if repair:
                    os.replace(path, path + _QUARANTINE_SUFFIX)
        return candidates

    def _load_manifest_doc(self, path: str,
                           sid: str) -> Tuple[int, SnapshotManifest]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"unreadable manifest: {exc}") from exc
        if not isinstance(doc, dict) or set(doc) != {
                "durable_format", "seq", "manifest", "self_digest"}:
            raise SnapshotError("malformed manifest document")
        if doc["durable_format"] != DURABLE_FORMAT:
            raise SnapshotError(
                f"durable format {doc['durable_format']!r} unsupported")
        recorded = payload_digest(canonical_bytes(doc["manifest"]))
        if recorded != doc["self_digest"]:
            raise SnapshotError("manifest self-digest mismatch (torn or "
                                "corrupted on disk)")
        manifest = SnapshotManifest.from_dict(doc["manifest"])
        if manifest.snapshot_id != sid:
            raise SnapshotError(
                f"manifest names {manifest.snapshot_id!r}, file names "
                f"{sid!r}")
        return int(doc["seq"]), manifest

    def _scan_chunks(self, report: FsckReport, repair: bool) -> Set[str]:
        present: Set[str] = set()
        for name in sorted(os.listdir(self._chunk_dir)):
            path = os.path.join(self._chunk_dir, name)
            if name.endswith(_TMP_SUFFIX):
                self._remove_torn(path, report, repair)
                continue
            if name.endswith(_CHUNK_SUFFIX):
                present.add(name[:-len(_CHUNK_SUFFIX)])
        return present

    def _scan_journal(self, report: FsckReport, repair: bool,
                      candidates: Dict[str, Tuple[int, SnapshotManifest]]
                      ) -> None:
        """Resolve stale intents: finish committed saves, roll back dead
        ones.  The intent's chunk list is informational — the orphan
        sweep is the authoritative collector — so rollback here is a
        single unlink of the marker."""
        for name in sorted(os.listdir(self._journal_dir)):
            path = os.path.join(self._journal_dir, name)
            if name.endswith(_TMP_SUFFIX):
                self._remove_torn(path, report, repair)
                continue
            if not name.endswith(_INTENT_SUFFIX):
                continue
            sid = name[:-len(_INTENT_SUFFIX)]
            if sid in candidates:
                # crash hit between the commit point and the cleanup
                report.completed.append(sid)
                if repair:
                    self._crash_point("recover.journal.clear")
                    os.unlink(path)
            else:
                # the save never reached its commit point
                report.rolled_back.append(sid)
                if repair:
                    self._crash_point("recover.journal.rollback")
                    os.unlink(path)
        if repair and (report.completed or report.rolled_back
                       or report.torn_files_removed):
            self._fsync_dir(self._journal_dir)

    def _verify_and_load(self, report: FsckReport,
                         candidates: Dict[str, Tuple[int, SnapshotManifest]],
                         present: Set[str]) -> None:
        """Chunk-verify every candidate; load intact ones into memory."""
        loaded: Dict[str, bytes] = {}
        for sid in sorted(candidates,
                          key=lambda s: (candidates[s][0], s)):
            _seq, manifest = candidates[sid]
            self._parents[sid] = manifest.parent
            why = None
            blobs: Dict[str, bytes] = {}
            for rec in manifest.providers:
                for ref in rec.chunks:
                    if ref in loaded or ref in blobs:
                        continue
                    if ref not in present:
                        why = f"missing chunk {ref[:12]}…"
                        break
                    path = os.path.join(self._chunk_dir,
                                        ref + _CHUNK_SUFFIX)
                    with open(path, "rb") as fh:
                        blob = fh.read()
                    if hashlib.sha256(blob).hexdigest() != ref:
                        why = f"corrupt chunk {ref[:12]}…"
                        break
                    blobs[ref] = blob
                if why is not None:
                    break
            self._resume_order.append(sid)
            if why is not None:
                self._damaged[sid] = why
                self.damaged_manifests[sid] = manifest
                report.damaged.append((sid, why))
                maybe_record(self.tracer, "snapshot.durable.damaged",
                             snapshot_id=sid, reason=why)
                continue
            for ref, blob in blobs.items():
                self.chunks._chunks[ref] = blob
                self.chunks.chunks_stored += 1
                self.chunks.bytes_stored += len(blob)
                self._disk_refs.add(ref)
                loaded[ref] = blob
            for ref in (r for rec in manifest.providers
                        for r in rec.chunks):
                self._disk_refs.add(ref)
            self.manifests[sid] = manifest
            self.order.append(sid)
            report.committed.append(sid)

    def _sweep_orphans(self, report: FsckReport, repair: bool,
                       candidates: Dict[str, Tuple[int, SnapshotManifest]],
                       present: Set[str]) -> None:
        """Delete chunk files no manifest (intact *or* damaged) references.

        Damaged manifests keep their surviving chunks: a descendant or a
        future repair may still need them, and degrading must never
        destroy evidence."""
        referenced: Set[str] = set()
        for _seq, manifest in candidates.values():
            for rec in manifest.providers:
                referenced.update(rec.chunks)
        swept = False
        for ref in sorted(present - referenced):
            report.orphan_chunks_removed += 1
            if repair:
                if not swept:
                    self._crash_point("recover.orphan.sweep")
                    swept = True
                os.unlink(os.path.join(self._chunk_dir,
                                       ref + _CHUNK_SUFFIX))

    # ------------------------------------------------------------------ stats

    def durability_stats(self) -> dict:
        """Disk-side counters (the delta property, measured in files)."""
        return {"root": self.root,
                "committed": len(self.order),
                "damaged": len(self._damaged),
                "chunk_files": len(self._disk_refs),
                "fsync": self.fsync_enabled,
                "seq": self._seq}
