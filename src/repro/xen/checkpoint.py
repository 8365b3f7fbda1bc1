"""Local live checkpoint of one domain (§4).

Extends "live migration" mechanics into a live checkpoint: memory is
pre-copied while the guest runs (dom0 work that contends with the guest for
CPU — the residual perturbation measured in Figure 5), then the guest is
suspended through the temporal firewall, the dirty residue and device state
are saved, and the guest resumes.  From inside the guest, the suspend is
invisible except for the microsecond-scale firewall window.

The phases are the stages of the domain's pipeline provider
(:class:`~repro.checkpoint.pipeline.DomainProvider`), so benchmarks can
attribute every artifact: pre-copy contention, device drain, firewall
raise window, stop-and-copy downtime, NIC replay count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CheckpointError
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.units import MB, US
from repro.xen.hypervisor import Domain


@dataclass(frozen=True)
class CheckpointConfig:
    """Tunables of the live checkpoint."""

    #: memory copy rate to the snapshot sink (bytes/s)
    copy_rate_bps: int = 400 * MB
    #: fraction of memory still dirty at stop-and-copy
    dirty_fraction: float = 0.02
    #: CPU weight of dom0 copy work relative to the guest.  Calibrated to
    #: the paper's Figure 5: a full-overlap iteration stretches by
    #: work * weight, and the measured worst case is 27 ms on a 236.6 ms
    #: iteration (~11%).
    dom0_weight: float = 0.11
    #: fixed device suspend/resume overhead inside the downtime
    device_overhead_ns: int = 800 * US
    #: skip the live pre-copy phase (pure stop-and-copy, non-live)
    live: bool = True


@dataclass
class DomainSnapshot:
    """A saved domain image (memory + device state descriptor)."""

    snapshot_id: int
    domain_name: str
    memory_bytes: int
    taken_at_true_ns: int
    taken_at_virtual_ns: int


@dataclass
class CheckpointResult:
    """Everything one local checkpoint did, for analysis."""

    snapshot: DomainSnapshot
    started_at_ns: int
    precopy_ns: int
    downtime_ns: int
    freeze_window_ns: int
    thaw_window_ns: int
    clock_frozen_at_ns: int
    clock_thawed_at_ns: int
    memory_copied_bytes: int
    dirty_copied_bytes: int
    replayed_packets: int
    #: per-stage true-time totals from the driving pipeline (when known)
    stage_timings_ns: dict = field(default_factory=dict)


class LocalCheckpointer:
    """Checkpoints one domain transparently.

    The driver of a one-provider pipeline over the domain's
    :class:`~repro.checkpoint.pipeline.DomainProvider`, which owns the
    phases; a coordinated node agent registers the same provider in its
    own pipeline, and stateful swap drives this pipeline's stages.
    """

    def __init__(self, domain: Domain,
                 config: Optional[CheckpointConfig] = None,
                 tracer=None) -> None:
        # Imported lazily: repro.checkpoint pulls this module in at
        # package-import time, so a top-level import would cycle.
        from repro.checkpoint.pipeline import (CheckpointPipeline,
                                               DomainProvider)
        self.domain = domain
        self.sim: Simulator = domain.sim
        self.provider = DomainProvider(
            domain, config if config is not None else CheckpointConfig())
        self.pipeline = CheckpointPipeline(
            self.sim, [self.provider], tracer=tracer,
            session=f"local.{domain.name}")
        self.results: list[CheckpointResult] = []

    @property
    def config(self) -> CheckpointConfig:
        return self.provider.config

    @config.setter
    def config(self, config: CheckpointConfig) -> None:
        self.provider.config = config

    def checkpoint(self) -> Process:
        """Start a checkpoint; the returned process yields the result."""
        return self.sim.process(self.run())

    # The body is public so coordinators can drive it inside their own
    # processes (``yield from checkpointer.run()``).
    def run(self):
        if self.provider.in_flight is not None:
            raise CheckpointError(
                f"checkpoint of {self.domain.name} already in progress")
        yield from self.pipeline.run_local()
        result = self.provider.last_result
        result.stage_timings_ns = self.pipeline.timings_by_stage()
        self.results.append(result)
        return result

    # Single phases under their Xen names, each returning the domain
    # provider's stage: the end-to-end benchmark's span tracer
    # (benchmarks/e2e/spans.py) wraps these by name.

    def precopy(self):
        return self.provider.stage_precopy()

    def quiesce(self):
        return self.provider.stage_quiesce()

    def suspend(self):
        return self.provider.stage_suspend()

    def save(self):
        return self.provider.stage_save()

    def resume(self):
        return self.provider.stage_resume()
