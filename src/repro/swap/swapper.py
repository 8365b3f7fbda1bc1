"""Stateful swapping (§5): preempt an experiment without losing its state.

Swap-out saves each node's run-time state — the memory image and the
*current delta* of its branching disk — to the Emulab file server over the
control network, then frees the hardware.  Swap-in restores it: golden
image from the node cache, aggregated delta (lazily, by default), memory
image, then resume.  The entire swapped-out period is concealed from the
experiment by the same temporal-firewall machinery as a checkpoint: swap-out
runs each domain provider's ``quiesce..save`` stages and swap-in its
``resume`` stage, through the node's local checkpoint pipeline.

Optimizations from the paper, all individually switchable for ablations:

* **eager copy-out** — the current delta is pushed in the background
  while the experiment still runs; blocks dirtied during the pre-copy are
  re-sent (the 20% disk-heavy swap-out penalty of §7.2);
* **lazy copy-in** — the VM resumes as soon as its memory image arrives;
  aggregated-delta blocks are demand-paged with background prefetch, which
  keeps swap-in time constant instead of growing with accumulated state;
* **delta merge** — after swap-out, the server merges the current delta
  into the aggregated delta, reordering blocks by address to restore
  locality (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.pipeline import Stage, StageFailed
from repro.errors import SwapError
from repro.storage.mirror import EagerCopyOut, LazyCopyIn, TransferConfig
from repro.testbed.emulab import AllocatedNode, Experiment
from repro.units import MB
from repro.xen.checkpoint import DomainSnapshot


@dataclass(frozen=True)
class SwapConfig:
    """Which swap optimizations are enabled."""

    eager_copyout: bool = True
    lazy_copyin: bool = True
    merge_deltas: bool = True
    copyout: TransferConfig = field(default_factory=lambda: TransferConfig(
        rate_limit_bytes_per_s=6 * MB))
    copyin: TransferConfig = field(default_factory=lambda: TransferConfig(
        rate_limit_bytes_per_s=11 * MB))


@dataclass
class SavedNodeState:
    """What the file server holds for one swapped-out node."""

    snapshot: DomainSnapshot
    saved_dirty_bytes: int
    current_delta_index: Dict[int, int]
    aggregated_index: Dict[int, int]


@dataclass
class SwapOutRecord:
    """Timing and volume of one swap-out."""

    started_ns: int
    finished_ns: int
    delta_blocks: int
    precopied_blocks: int
    resent_blocks: int
    memory_bytes: int

    @property
    def duration_ns(self) -> int:
        return self.finished_ns - self.started_ns


@dataclass
class SwapInRecord:
    """Timing of one swap-in (to resume; lazy transfer may continue)."""

    started_ns: int
    resumed_ns: int
    golden_download_bytes: int
    delta_bytes_before_resume: int
    memory_bytes: int
    lazy: bool

    @property
    def duration_ns(self) -> int:
        return self.resumed_ns - self.started_ns


class StatefulSwapper:
    """Swap an experiment out and back in without losing its state."""

    def __init__(self, experiment: Experiment,
                 config: Optional[SwapConfig] = None) -> None:
        self.experiment = experiment
        self.sim = experiment.sim
        self.config = config if config is not None else SwapConfig()
        self.saved: Dict[str, SavedNodeState] = {}
        self.swap_out_records: List[SwapOutRecord] = []
        self.swap_in_records: List[SwapInRecord] = []
        self._pagers: Dict[str, LazyCopyIn] = {}

    # ------------------------------------------------------------------ swap-out

    def swap_out(self):
        """Save state, free hardware (a sim process)."""
        return self.sim.process(self._swap_out())

    def _swap_out(self):
        exp = self.experiment
        if exp.state != "SWAPPED_IN":
            raise SwapError(f"{exp.spec.name} is not swapped in")
        channel = exp.testbed.control.fileserver_channel
        started = self.sim.now
        block_size = 4096

        # Phase 1 — eager pre-copy of every node's current delta, in the
        # background, while the experiment keeps running.
        copies: Dict[str, Optional[EagerCopyOut]] = {}
        hooks = {}
        if self.config.eager_copyout:
            for name, node in exp.nodes.items():
                blocks = self._delta_lbas(node)
                copy = EagerCopyOut(self.sim, node.machine.system_disk,
                                    blocks, channel, self.config.copyout)
                # Writes during pre-copy dirty already-sent blocks.
                hook = self._dirty_hook(node, copy)
                node.branch.on_write_hooks.append(hook)
                hooks[name] = hook
                copies[name] = copy
                copy.start()
            for name, copy in copies.items():
                yield copy.done
            for name, node in exp.nodes.items():
                node.branch.on_write_hooks.remove(hooks[name])

        # Phase 2 — suspend every guest (firewall up, state captured).
        # The disk state is the deltas above, so no branch or clock stage
        # runs.  A checkpoint in flight on any domain would collide with
        # the suspend, so no guest is touched while one is.
        for name, node in exp.nodes.items():
            stage = node.checkpointer.provider.in_flight
            if stage is not None:
                raise SwapError(
                    f"{exp.spec.name}: cannot swap out while {name} has a "
                    f"checkpoint in flight (stage {stage.value})")
        suspends = [self.sim.process(self._suspend_node(node))
                    for node in exp.nodes.values()]
        outcomes = yield self.sim.all_of(suspends)
        failures = [outcomes[p] for p in suspends if outcomes[p] is not None]
        if failures:
            # Roll every guest back to running: the experiment stays in.
            for node in exp.nodes.values():
                yield from node.checkpointer.pipeline.abort()
            raise SwapError(
                f"{exp.spec.name}: swap-out failed: {failures[0]}")

        # Phase 3 — transfer memory images and any delta not yet on the
        # server: without pre-copy that is the whole delta; with it, the
        # blocks the guest created *after* the pre-copy pass began.
        total_resent = sum((c.resent_blocks for c in copies.values()), 0)
        total_precopied = sum((c.copied_blocks for c in copies.values()), 0)
        delta_blocks = 0
        for name, node in exp.nodes.items():
            delta_blocks += node.branch.current_delta_blocks
            if not self.config.eager_copyout:
                remaining = node.branch.current_delta_blocks
            else:
                covered = set(copies[name].blocks)
                log = node.branch.log_extent
                remaining = sum(
                    1 for off in node.branch.log_index.values()
                    if log.lba(off) not in covered)
                # Blocks that went stale after the bounded resend round.
                remaining += copies[name].pending_dirty
            if remaining:
                yield channel.transfer(remaining * block_size)
            yield channel.transfer(node.domain.memory_bytes)
            self._record_saved(node)

        # Phase 4 — free the hardware; merge deltas offline on the server.
        exp.testbed.release_machines(exp.placement.machines_used)
        exp.state = "SWAPPED_OUT_STATEFUL"
        if self.config.merge_deltas:
            for name, node in exp.nodes.items():
                merged = node.branch.merge_into_aggregated()
                self.saved[name].aggregated_index = merged

        record = SwapOutRecord(
            started_ns=started, finished_ns=self.sim.now,
            delta_blocks=delta_blocks, precopied_blocks=total_precopied,
            resent_blocks=total_resent,
            memory_bytes=sum(n.domain.memory_bytes
                             for n in exp.nodes.values()))
        self.swap_out_records.append(record)
        # The file server's catalog accounts for what we just stored.
        catalog = getattr(exp.testbed, "catalog", None)
        if catalog is not None:
            catalog.store(exp.spec.name, "delta",
                          record.delta_blocks * block_size, self.sim.now)
            catalog.store(exp.spec.name, "memory", record.memory_bytes,
                          self.sim.now)
        return record

    def _suspend_node(self, node: AllocatedNode):
        """Quiesce, suspend and save one guest; returns the failure, if any."""
        try:
            yield from node.checkpointer.pipeline.run_stages(Stage.QUIESCE,
                                                             Stage.SAVE)
        except StageFailed as exc:
            return exc
        return None

    def _record_saved(self, node: AllocatedNode) -> None:
        snapshot, dirty = node.checkpointer.provider.saved
        self.saved[node.spec.name] = SavedNodeState(
            snapshot=snapshot,
            saved_dirty_bytes=dirty,
            current_delta_index=dict(node.branch.log_index),
            aggregated_index=dict(node.branch.aggregated_index),
        )

    def _delta_lbas(self, node: AllocatedNode) -> List[int]:
        """Physical LBAs of the node's current delta (log extent order)."""
        log = node.branch.log_extent
        return [log.lba(off) for off in sorted(node.branch.log_index.values())]

    def _dirty_hook(self, node: AllocatedNode, copy: EagerCopyOut):
        log = node.branch.log_extent

        def hook(vbas) -> None:
            lbas = [log.lba(node.branch.log_index[v]) for v in vbas
                    if v in node.branch.log_index]
            copy.mark_dirty(lbas)

        return hook

    # ------------------------------------------------------------------ swap-in

    def swap_in(self):
        """Restore the experiment to execution (a sim process)."""
        return self.sim.process(self._swap_in())

    def _swap_in(self):
        exp = self.experiment
        if exp.state != "SWAPPED_OUT_STATEFUL":
            raise SwapError(f"{exp.spec.name} is not statefully swapped out")
        channel = exp.testbed.control.fileserver_channel
        started = self.sim.now
        block_size = 4096
        golden_bytes = 0
        delta_before_resume = 0
        memory_bytes = 0

        exp.testbed.allocate_machines(exp.placement.machines_used)
        for name, node in exp.nodes.items():
            saved = self.saved[name]
            # Golden image: from the node cache, or re-distributed.
            golden_bytes += yield node.image_cache.ensure(node.spec.image)
            # Install the merged aggregated delta index; the current delta
            # restarts empty.
            node.branch.aggregated_index = dict(saved.aggregated_index)
            node.branch.drop_current_delta()
            if self.config.lazy_copyin:
                # Resume before the delta arrives; demand-page the rest.
                pager = LazyCopyIn(
                    self.sim, node.machine.system_disk, channel=channel,
                    config=self.config.copyin,
                    extent_start_lba=node.branch.aggregated_extent.start_lba,
                    missing_blocks=set(saved.aggregated_index.values()))
                self._pagers[name] = pager
                self._interpose_lazy_reads(node, pager)
                if pager.missing:
                    pager.start()
            else:
                # Download the whole aggregated delta up front.
                nbytes = len(saved.aggregated_index) * block_size
                delta_before_resume += nbytes
                yield channel.transfer(nbytes)
            # Memory image: the guest resumes the moment it lands.
            yield channel.transfer(node.domain.memory_bytes)
            memory_bytes += node.domain.memory_bytes
            yield self.sim.process(node.checkpointer.pipeline.run_stages(
                Stage.RESUME, Stage.RESUME))

        exp.state = "SWAPPED_IN"
        exp.swap_ins += 1
        record = SwapInRecord(
            started_ns=started, resumed_ns=self.sim.now,
            golden_download_bytes=golden_bytes,
            delta_bytes_before_resume=delta_before_resume,
            memory_bytes=memory_bytes, lazy=self.config.lazy_copyin)
        self.swap_in_records.append(record)
        return record

    def _interpose_lazy_reads(self, node: AllocatedNode,
                              pager: LazyCopyIn) -> None:
        """Route aggregated-delta reads through the demand pager.

        Wraps the branch's aggregated read path: a read of a block whose
        data is still on the server faults it in first.
        """
        branch = node.branch
        original_read = branch._read

        def read_with_faults(vba: int, nblocks: int):
            for b in range(vba, vba + nblocks):
                off = branch.aggregated_index.get(b)
                if off is not None and off in pager.missing:
                    yield pager.ensure_present(off, 1)
            yield from original_read(vba, nblocks)

        branch._read = read_with_faults
