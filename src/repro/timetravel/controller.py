"""Time-travel sessions (§6): navigation from the latest exact state.

The paper's prototype captures a run by frequent checkpointing and
implements backward navigation by restarting the experiment from a saved
image.  ``travel_to(node)`` starts from the **latest exact state at or
before the target** and runs forward the remaining virtual time.  There
are three kinds of start point:

* **The live run** — when the target lies ahead of it: no perturbation
  is pending, the target lies strictly below :attr:`position` through
  edges that carry no perturbations, and the run has not passed the
  target's virtual time.  The controller then only advances it.
* **True snapshot/restore** — when the run exposes
  ``snapshot_providers()`` (see :mod:`repro.timetravel.scenarios`), each
  checkpoint also serializes every provider into a
  :class:`~repro.checkpoint.snapshot.SnapshotStore` (content-hash
  chunked, deduplicated, delta-accounted).  The deepest eligible
  snapshot on the target's ancestor path is restored into a freshly
  built cold world — O(state + distance-from-snapshot), not O(history).
* **Deterministic re-execution** — rebuild the world with the target's
  perturbation history and replay from the origin, exactly what
  deterministic-replay time-travel systems (TTVM, ReVirt) do from a log.

The rule: a snapshot strictly later than the live run beats it, the live
run beats the origin, and a snapshot that fails validation counts as a
fallback and leaves the navigation to the next candidate.
``restore_stats`` counts every navigation under ``restores``,
``continues`` or ``replays``.  Navigating to :attr:`position` itself
never continues; that is how a caller discards the live run.

Continuing is exact for two reasons.  Running to an integer horizon
schedules nothing, so ``advance_to(a); advance_to(b)`` is
``advance_to(b)``.  And the live run is always ``factory(seed,
history(position) + pending)``, advanced: the constructor builds it so,
a navigation lands on a run that equals it, and the live run changes
only through :meth:`run_to` (forward), :meth:`perturb` (a rebuild with
the new history) and :meth:`checkpoint` (whose capture leaves the event
frontier and the state digest as they were).  Code that mutates
:attr:`active_run` any other way breaks the contract; ``travel_to`` the
position to rebuild it.  ``tests/test_timetravel.py`` pins all of this
against fresh replays on random sessions.

Replay remains the cross-check oracle, and neither oracle ever starts
from the live run: :meth:`TimeTravelController.verify_restore` asserts
restore-then-run and a fresh replay land on bit-identical state digests,
and :meth:`TimeTravelController.verify_reproducibility` compares two
fresh replays.

A snapshot is *eligible* for a target node only when its captured
perturbation history equals the target's full history: arming an extra
perturbation after a restore would consume an event-store sequence
number the snapshotted world never drew, shifting every later tie-break
against the replayed world.  Navigating to nodes recorded before a
later-added perturbation therefore replays; checkpoints taken after the
perturbation snapshot the full history and restore again.

Observable semantics match the paper either way:

* backward navigation lands at the checkpoint's state (verified by state
  digests in the tests);
* forward replay is deterministic unless the user injects perturbations;
* each perturbed replay creates a new branch in the checkpoint tree;
* snapshot storage cost is charged against the node's scratch disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from repro.checkpoint.pipeline import SnapshotCapture, capture_run_snapshot
from repro.checkpoint.snapshot import SnapshotStore
from repro.errors import (CheckpointError, SnapshotError, StorageError,
                          TimeTravelError)
from repro.timetravel.tree import CheckpointTree, TreeNode


@dataclass(frozen=True)
class Perturbation:
    """A user-injected change applied during a replay run."""

    at_virtual_ns: int
    name: str
    payload: Any = None


class ReplayableRun(Protocol):
    """What the controller needs from an experiment run."""

    def virtual_now(self) -> int:
        """Current experiment (virtual) time."""
        ...

    def advance_to(self, virtual_ns: int) -> None:
        """Execute forward until experiment time reaches ``virtual_ns``."""
        ...

    def state_digest(self) -> Any:
        """A comparable summary of experiment state (for verification)."""
        ...

    def snapshot_bytes(self) -> int:
        """Cost of checkpointing this run's state right now."""
        ...


RunFactory = Callable[[int, Sequence[Perturbation]], ReplayableRun]


class TimeTravelController:
    """Drives one time-travel session over a reproducible experiment."""

    def __init__(self, factory: RunFactory, seed: int = 0,
                 storage_budget_bytes: Optional[int] = None, *,
                 snapshots: Optional[SnapshotStore] = None,
                 resume: bool = False) -> None:
        self.factory = factory
        self.seed = seed
        self.tree = CheckpointTree(storage_budget_bytes)
        self.active_run: ReplayableRun = factory(seed, [])
        #: node_id -> what the pipeline captured at that checkpoint
        self.captures: Dict[int, SnapshotCapture] = {}
        #: serialized provider snapshots, delta-chained parent -> child.
        #: Pass a (recovered) ``DurableSnapshotStore`` to make the
        #: session's checkpoints survive process death.
        self.snapshots = snapshots if snapshots is not None \
            else SnapshotStore()
        #: node_id -> snapshot id in :attr:`snapshots`
        self.snapshot_ids: Dict[int, str] = {}
        #: node_id -> perturbation history the snapshot was taken under
        self._snapshot_histories: Dict[int, tuple] = {}
        #: how navigations were served: restore / replay / continued
        #: live run / restore failed / re-attached after process death /
        #: damaged snapshots skipped for an intact ancestor
        self.restore_stats: Dict[str, int] = {
            "restores": 0, "replays": 0, "continues": 0, "fallbacks": 0,
            "resumes": 0, "degraded": 0}
        capture = capture_run_snapshot(self.active_run)
        root = self.tree.add(None, self.active_run.virtual_now(),
                             label="origin",
                             snapshot_bytes=capture.snapshot_bytes)
        self.captures[root.node_id] = capture
        self._position: TreeNode = root
        self._pending_perturbations: List[Perturbation] = []
        if resume and self.snapshots.order:
            self._resume_from_store(root)
        else:
            self._maybe_snapshot(root)

    # ------------------------------------------------------------------ recording

    @property
    def position(self) -> TreeNode:
        """The checkpoint the active run descends from."""
        return self._position

    def run_to(self, virtual_ns: int) -> None:
        """Advance the active execution to ``virtual_ns``."""
        if virtual_ns < self.active_run.virtual_now():
            raise TimeTravelError(
                "run_to goes backward; use travel_to for rollback")
        self.active_run.advance_to(virtual_ns)

    def checkpoint(self, label: str = "",
                   max_capture_attempts: int = 3) -> TreeNode:
        """Record a checkpoint of the active execution.

        The capture runs through the checkpoint pipeline when the run
        exposes ``checkpointables()`` — branch providers take real
        branch points, and the snapshot cost is the sum of provider
        costs; the capture is kept in :attr:`captures` keyed by the new
        node's id.  Transient storage errors (injected disk faults) are
        retried up to ``max_capture_attempts`` times — a branch point is
        metadata-only, so a retry after a transient I/O error is safe.
        """
        last_exc: Optional[StorageError] = None
        for _attempt in range(max_capture_attempts):
            try:
                capture = capture_run_snapshot(self.active_run)
                break
            except StorageError as exc:
                last_exc = exc
        else:
            raise TimeTravelError(
                f"checkpoint capture failed after {max_capture_attempts} "
                f"attempts: {last_exc}") from last_exc
        node = self.tree.add(
            self._position.node_id, self.active_run.virtual_now(),
            label=label, snapshot_bytes=capture.snapshot_bytes,
            perturbations=tuple(self._pending_perturbations))
        self.captures[node.node_id] = capture
        self._pending_perturbations = []
        self._position = node
        self._maybe_snapshot(node)
        return node

    def _maybe_snapshot(self, node: TreeNode) -> None:
        """Serialize the run into the snapshot store, if it supports it.

        Runs that expose ``snapshot_providers()`` get a true snapshot,
        delta-chained to the nearest ancestor snapshot so unchanged
        chunks are shared.  A run that declines (not quiescent, a
        provider mid-operation) simply gets no snapshot — deterministic
        replay still covers the node, so this never raises.
        """
        providers_fn = getattr(self.active_run, "snapshot_providers", None)
        if providers_fn is None:
            return
        parent_sid: Optional[str] = None
        for ancestor in reversed(self.tree.path_to(node.node_id)[:-1]):
            sid = self.snapshot_ids.get(ancestor.node_id)
            if sid is None or self.snapshots.is_damaged(sid):
                continue                # delta-chain to an intact parent
            parent_sid = sid
            break
        try:
            snap = self.snapshots.take(
                self._fresh_sid(node.node_id), providers_fn(),
                virtual_time_ns=node.virtual_time_ns,
                parent=parent_sid, label=node.label)
        except (CheckpointError, SnapshotError):
            return
        self.snapshot_ids[node.node_id] = snap.snapshot_id
        self._snapshot_histories[node.node_id] = tuple(
            self.tree.perturbations_along(node.node_id))

    def _fresh_sid(self, node_id: int) -> str:
        """A snapshot id not already claimed in the (possibly resumed)
        store.  A fresh in-memory store never collides; a durable store
        resumed across generations can hold leftover ids from a prior
        life (e.g. a damaged on-disk snapshot that was not grafted into
        this session's tree), so suffix until free."""
        sid = f"node{node_id}"
        generation = 0
        while sid in self.snapshots.manifests or \
                self.snapshots.is_damaged(sid):
            generation += 1
            sid = f"node{node_id}r{generation}"
        return sid

    def _resume_from_store(self, root: TreeNode) -> None:
        """Re-attach this session to snapshots a prior process committed.

        Grafts every committed snapshot of :attr:`snapshots` (already
        :meth:`~repro.checkpoint.durable.DurableSnapshotStore.recover`-ed
        by the caller) into the checkpoint tree along its recorded
        parent links, then restores the deepest one into a cold world —
        the run continues where the dead process last durably committed
        instead of replaying from the origin.  Manifests do not record
        perturbation histories, so resume covers unperturbed histories
        (snapshots of perturbed branches would fail eligibility and be
        served by replay anyway — the perturbations themselves died with
        the prior process).
        """
        sid_to_node: Dict[str, int] = {}
        deepest = root
        for manifest in self.snapshots.resume_manifests():
            sid = manifest.snapshot_id
            if manifest.parent is None and \
                    manifest.virtual_time_ns == root.virtual_time_ns:
                node = root            # the prior life's origin snapshot
            else:
                parent_node = sid_to_node.get(manifest.parent,
                                              root.node_id)
                node = self.tree.add(parent_node,
                                     manifest.virtual_time_ns,
                                     label=manifest.label,
                                     snapshot_bytes=manifest.total_bytes)
            sid_to_node[sid] = node.node_id
            self.snapshot_ids[node.node_id] = sid
            self._snapshot_histories[node.node_id] = ()
            if node.virtual_time_ns >= deepest.virtual_time_ns:
                deepest = node
        self.restore_stats["resumes"] += 1
        if deepest is not root:
            self.travel_to(deepest.node_id)

    # ------------------------------------------------------------------ navigation

    def travel_to(self, node_id: int) -> ReplayableRun:
        """Rollback (or fast-forward) to a checkpoint in the tree.

        Starts from the latest exact state at or before the target and
        runs forward the remaining virtual time.  The candidates, latest
        first: an eligible snapshot on the target's ancestor path, the
        live run (:meth:`_live_start_ns`), and a replay from the origin.
        A snapshot strictly later than the live run is restored; a
        snapshot that fails validation counts as a fallback and leaves
        the navigation to the next candidate.  ``restore_stats`` counts
        which start served each navigation.
        """
        node = self.tree.node(node_id)
        history = self.tree.perturbations_along(node_id)
        live_ns = self._live_start_ns(node)
        run = self._restore(node, history, later_than_ns=live_ns)
        if run is not None:
            self.restore_stats["restores"] += 1
        elif live_ns is not None:
            self.restore_stats["continues"] += 1
            run = self.active_run
            run.advance_to(node.virtual_time_ns)
        else:
            self.restore_stats["replays"] += 1
            run = self._replay(node, history)
        self.active_run = run
        self._position = node
        self._pending_perturbations = []
        return run

    def _live_start_ns(self, node: TreeNode) -> Optional[int]:
        """The live run's virtual time, if continuing it reaches ``node``
        exactly; None otherwise.

        The live run is ``factory(seed, history(position) + pending)``
        advanced, and advancing in steps equals advancing in one go, so
        it is an exact start when no perturbation is pending, ``node``
        lies strictly below :attr:`position` through edges that carry no
        perturbations, and the run has not passed ``node``'s time.
        Navigating to :attr:`position` itself never continues: that is
        how a caller discards the live run and rebuilds it.
        """
        if self._pending_perturbations or \
                node.node_id == self._position.node_id:
            return None
        now = self.active_run.virtual_now()
        if now > node.virtual_time_ns:
            return None
        step = node
        while step.node_id != self._position.node_id:
            if step.perturbations or step.parent_id is None:
                return None
            step = self.tree.node(step.parent_id)
        return now

    def _replay(self, node: TreeNode,
                history: List[Perturbation]) -> ReplayableRun:
        """A fresh run from the origin, advanced to ``node``."""
        run = self.factory(self.seed, history)
        run.advance_to(node.virtual_time_ns)
        return run

    def _restore(self, node: TreeNode, history: List[Perturbation],
                 later_than_ns: Optional[int] = None
                 ) -> Optional[ReplayableRun]:
        """Restore the deepest eligible snapshot at or above ``node``
        and run it forward to ``node``; None if there is none.

        Snapshots taken at or before ``later_than_ns`` are not
        candidates.  A snapshot is eligible only when its captured
        perturbation history equals the target's *full* history: arming
        a missing perturbation after the restore would draw a fresh
        event-store sequence number and diverge from the replayed
        world's tie-breaking.  Validation failures (corrupted chunks,
        schema drift, non-cold target) count as fallbacks and return
        None; they never surface partial state.
        """
        restore_fn = getattr(self.active_run, "restore_from", None)
        if restore_fn is None:
            return None
        target_history = tuple(history)
        for ancestor in reversed(self.tree.path_to(node.node_id)):
            if later_than_ns is not None and \
                    ancestor.virtual_time_ns <= later_than_ns:
                return None
            sid = self.snapshot_ids.get(ancestor.node_id)
            if sid is None:
                continue
            if self._snapshot_histories[ancestor.node_id] != target_history:
                continue
            if self.snapshots.is_damaged(sid):
                # durable store flagged this snapshot unusable during
                # recovery (broken delta chain) — degrade to the nearest
                # intact ancestor instead of failing the restore
                self.restore_stats["degraded"] += 1
                continue
            try:
                run = restore_fn(self.snapshots, sid)
                run.advance_to(node.virtual_time_ns)
                return run
            except (CheckpointError, SnapshotError, TimeTravelError):
                self.restore_stats["fallbacks"] += 1
                return None
        return None

    def perturb(self, perturbation: Perturbation) -> None:
        """Inject a change into the *current* replay (relaxed determinism).

        The perturbation takes effect when the run passes its timestamp;
        it becomes part of the edge to the next checkpoint, creating a new
        branch relative to the original execution.
        """
        if perturbation.at_virtual_ns < self.active_run.virtual_now():
            raise TimeTravelError("perturbation is in the run's past")
        history = (self.tree.perturbations_along(self._position.node_id) +
                   self._pending_perturbations + [perturbation])
        run = self.factory(self.seed, history)
        run.advance_to(self.active_run.virtual_now())
        self.active_run = run
        self._pending_perturbations.append(perturbation)

    # ------------------------------------------------------------------ queries

    def verify_reproducibility(self, node_id: int) -> bool:
        """Replay ``node_id`` twice from the origin; True if the state
        digests agree.  Both replays are fresh runs: neither is the live
        run, and neither replaces it."""
        node = self.tree.node(node_id)
        history = self.tree.perturbations_along(node_id)
        first = self._replay(node, history).state_digest()
        return self._replay(node, history).state_digest() == first

    def verify_restore(self, node_id: int) -> bool:
        """Cross-check restore-then-run against replay-from-origin.

        Restores the deepest eligible snapshot and runs to ``node_id``'s
        virtual time, replays a second world from the origin with the
        same perturbation history, and compares state digests.  Neither
        side is the live run.  The digest commits to every provider's
        serialized payload — machine histories, RNG positions, and the
        pending-event frontier — so agreement means the two worlds are
        observably the same world.  Raises :class:`TimeTravelError` when
        no snapshot is eligible (there is nothing to verify against).
        """
        node = self.tree.node(node_id)
        history = self.tree.perturbations_along(node_id)
        restored = self._restore(node, history)
        if restored is None:
            raise TimeTravelError(
                f"no eligible snapshot for node {node_id}; "
                f"nothing to cross-check")
        replayed = self._replay(node, history)
        return restored.state_digest() == replayed.state_digest()
