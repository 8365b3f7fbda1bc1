"""Time travel over full testbed experiments, without boilerplate.

:class:`ReplayableExperiment` adapts any *builder* — a callable that
constructs a simulator, a testbed, an experiment, and its workload — into
the :class:`~repro.timetravel.controller.ReplayableRun` interface, with the
standard perturbation knobs (:mod:`repro.timetravel.knobs`) applied
automatically as the replay passes their timestamps.

The builder contract::

    def build(sim: Simulator, seed: int) -> ExperimentHandle:
        ...construct testbed, swap in an experiment, start workloads...
        return ExperimentHandle(experiment, digest=lambda: ...)

Determinism rules (enforced by the simulator): all randomness must come
from seeded streams derived from ``seed``; no wall-clock access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import TimeTravelError
from repro.sim.core import Simulator
from repro.timetravel.controller import Perturbation
from repro.timetravel.knobs import apply_standard_perturbation
from repro.units import MS


@dataclass
class ExperimentHandle:
    """What a builder returns: the experiment plus a state summary."""

    experiment: Any
    digest: Callable[[], Any]
    #: optional extra kernels/delay-nodes for knob targeting (defaults to
    #: the experiment's own)
    kernels: Optional[Dict[str, Any]] = None
    delay_nodes: Optional[Dict[str, Any]] = None


Builder = Callable[[Simulator, int], ExperimentHandle]


class ReplayableExperiment:
    """A testbed experiment as a deterministic, perturbable replay unit."""

    #: how often pending perturbations are checked against simulated time
    KNOB_POLL_NS = 5 * MS

    def __init__(self, builder: Builder, seed: int,
                 perturbations: Sequence[Perturbation] = ()) -> None:
        self.sim = Simulator()
        self.handle = builder(self.sim, seed)
        if self.handle.kernels is None:
            self.handle.kernels = {
                name: node.kernel
                for name, node in self.handle.experiment.nodes.items()}
        if self.handle.delay_nodes is None:
            self.handle.delay_nodes = dict(
                self.handle.experiment.delay_nodes)
        self._pending: List[Perturbation] = sorted(
            perturbations, key=lambda p: p.at_virtual_ns)
        self.applied: List[Perturbation] = []
        if self._pending:
            self.sim.process(self._knob_loop())

    @classmethod
    def factory(cls, builder: Builder) -> Callable:
        """A ``RunFactory`` for :class:`TimeTravelController`.

        Usage::

            controller = TimeTravelController(
                ReplayableExperiment.factory(build), seed=7)
        """
        return lambda seed, perturbations: cls(builder, seed, perturbations)

    # -- knob delivery -------------------------------------------------------------

    def _knob_loop(self):
        while self._pending:
            yield self.sim.timeout(self.KNOB_POLL_NS)
            while self._pending and \
                    self._pending[0].at_virtual_ns <= self.sim.now:
                perturbation = self._pending.pop(0)
                handled = apply_standard_perturbation(
                    perturbation, self.handle.kernels,
                    self.handle.delay_nodes, run=self)
                if not handled:
                    raise TimeTravelError(
                        f"unknown perturbation {perturbation.name!r}; use a "
                        f"standard knob or a state-mutate callable")
                self.applied.append(perturbation)

    # -- ReplayableRun ----------------------------------------------------------------

    def virtual_now(self) -> int:
        """True simulated time (perturbation timestamps use this base)."""
        return self.sim.now

    def advance_to(self, virtual_ns: int) -> None:
        if virtual_ns > self.sim.now:
            self.sim.run(until=virtual_ns)

    def state_digest(self) -> Any:
        return self.handle.digest()

    def snapshot_bytes(self) -> int:
        experiment = self.handle.experiment
        memory = sum(n.domain.memory_bytes for n in experiment.nodes.values())
        disk = sum(n.branch.current_delta_blocks * 4096
                   for n in experiment.nodes.values())
        return memory + disk

    def checkpointables(self) -> List[Any]:
        """Pipeline providers covering this run's checkpointable state.

        Each node's own domain provider plus a fresh branch provider
        per call (branch captures must not alias each other); nodes are
        walked in name order for determinism.  Experiments whose nodes
        lack a checkpointer or branch yield no providers, and the
        controller falls back to :meth:`snapshot_bytes`.
        """
        from repro.checkpoint.pipeline import BranchProvider
        providers: List[Any] = []
        experiment = self.handle.experiment
        for name in sorted(experiment.nodes):
            node = experiment.nodes[name]
            checkpointer = getattr(node, "checkpointer", None)
            if checkpointer is None:
                return []
            providers.append(checkpointer.provider)
            branch = getattr(node, "branch", None)
            if branch is not None:
                providers.append(BranchProvider(branch))
        return providers
