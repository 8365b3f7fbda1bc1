"""Checkpoint schedule drivers of the scenario compiler.

Each driver arms one simulation process that waits until ``start_at_ns``,
then takes ``count`` checkpoints ``period_ns`` apart, appending each
result to the returned list.  The scheduling shape (one leading timeout,
one trailing timeout per period, results appended in completion order)
is part of the golden-digest contract: the stored goldens were captured
with exactly these generators driving :mod:`repro.testbed.compile`.
"""

from __future__ import annotations

from typing import List

from repro.sim.core import Simulator


def periodic_coordinated_checkpoints(sim: Simulator, experiment,
                                     period_ns: int, count: int,
                                     start_at_ns: int) -> List:
    """Coordinated checkpoints through the experiment's coordinator."""
    results: List = []

    def loop():
        if start_at_ns > sim.now:
            yield sim.timeout(start_at_ns - sim.now)
        for _ in range(count):
            next_at = sim.now + period_ns
            result = yield experiment.coordinator.checkpoint_scheduled()
            results.append(result)
            if next_at > sim.now:
                yield sim.timeout(next_at - sim.now)

    sim.process(loop())
    return results


def periodic_local_checkpoints(sim: Simulator, checkpointer, period_ns: int,
                               count: int, start_at_ns: int) -> List:
    """Single-domain checkpoints through one ``LocalCheckpointer``."""
    results: List = []

    def loop():
        if start_at_ns > sim.now:
            yield sim.timeout(start_at_ns - sim.now)
        for _ in range(count):
            next_at = sim.now + period_ns
            result = yield from checkpointer.run()
            results.append(result)
            if next_at > sim.now:
                yield sim.timeout(next_at - sim.now)

    sim.process(loop())
    return results


def supervised_checkpoints(sim: Simulator, supervisor, delay_ns: int,
                           count: int = 1, period_ns: int = 0) -> List:
    """Supervised checkpoints (retry policies) after an initial delay.

    One leading timeout, then each checkpoint through the supervisor.
    Unlike the periodic drivers there is no trailing timeout after the
    final checkpoint — the storm's digests were captured with that
    exact shape.
    """
    results: List = []

    def drive():
        if delay_ns > 0:
            yield sim.timeout(delay_ns)
        for i in range(count):
            result = yield supervisor.checkpoint_scheduled()
            results.append(result)
            if i + 1 < count and period_ns > 0:
                yield sim.timeout(period_ns)

    sim.process(drive())
    return results
