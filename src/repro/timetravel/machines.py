"""Plain-method workload machines for true snapshot/restore.

A Python generator cannot be serialized, so a world that wants O(state)
restore must keep every bit of its workload state in plain attributes —
the DMTCP decomposition applied to the simulation itself.  Each machine
here is a self-rescheduling callback whose complete state is:

* a handful of counters and a running **hex-chain digest** (a sha256
  chained over every observable step, so two worlds agree on the digest
  iff they agree on the entire history of steps);
* its derived RNG position;
* the exact ``(when, priority, seq)`` triple of its one armed tick.

The triple is recorded at arming time via
:meth:`~repro.sim.core.Simulator.schedule_tracked` and re-inserted
verbatim on restore via :meth:`~repro.sim.core.Simulator.restore_call`
(after :class:`~repro.checkpoint.pipeline.FrontierProvider` has reset
the event store), so a restored world pops events — and draws sequence
numbers for *new* events — in exactly the order a replay-from-origin
would.  That is the mechanism behind the restore==replay digest gates in
``tests/test_snapshot_restore.py``.

Machines subclass :class:`~repro.checkpoint.pipeline.Checkpointable`,
so they slot both into the staged pipeline and into a
:class:`~repro.checkpoint.snapshot.SnapshotStore` provider registry;
the checkpoint-coverage lint rules (CKPT001-003) apply to them in full.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.checkpoint.pipeline import Checkpointable, check_payload
from repro.errors import CheckpointError
from repro.sim.core import NORMAL, Simulator
from repro.sim.random import derived_rng, decode_rng_state, \
    encode_rng_state
from repro.units import MS


def chain_digest(prev_hex: str, *parts) -> str:
    """Extend a running hex-chain digest with one observable step.

    Chaining means the final digest commits to the whole step history,
    not just the last state — a single divergent step anywhere changes
    every subsequent digest.

        >>> a = chain_digest("00" * 32, 1, "x")
        >>> chain_digest(a, 2) == chain_digest(chain_digest("00" * 32, 1, "x"), 2)
        True
        >>> a == chain_digest("00" * 32, 1, "y")
        False
    """
    h = hashlib.sha256()
    h.update(prev_hex.encode("ascii"))
    h.update(json.dumps(parts, sort_keys=True,
                        separators=(",", ":")).encode("utf-8"))
    return h.hexdigest()


class TickMachine(Checkpointable):
    """Base self-rescheduling machine with serializable arming state.

    Subclasses implement :meth:`_work`, which performs one tick's
    observable effects and returns the delay to the next tick (or
    ``None`` to stop).  State beyond the shared counters goes through
    :meth:`_extra_state` / :meth:`_apply_extra`.
    """

    kind = "tick"

    def __init__(self, sim: Simulator, name: str, seed: int = 0) -> None:
        self.sim = sim
        self.machine = name
        self.name = f"{self.kind}.{name}"
        self.seed = seed
        self.rng = derived_rng(f"timetravel.{self.kind}.{name}", seed)
        self.ticks = 0
        self.digest = hashlib.sha256(
            self.name.encode("utf-8")).hexdigest()
        self._armed_at = -1
        self._armed_seq = -1
        self._handle = None

    # -- driving ----------------------------------------------------------------

    def start(self) -> None:
        """Arm the first tick."""
        if self._handle is not None:
            raise CheckpointError(f"{self.name}: already started")
        self._arm(self._first_delay())

    def _first_delay(self) -> int:
        return self._work_delay()

    def _work_delay(self) -> int:
        raise NotImplementedError

    def _arm(self, delay_ns: int) -> None:
        when = self.sim.now + delay_ns
        self._handle, self._armed_seq = self.sim.schedule_tracked(
            when, self._tick)
        self._armed_at = when

    def _tick(self) -> None:
        self._handle = None
        self._armed_at = -1
        self._armed_seq = -1
        self.ticks += 1
        delay = self._work()
        if delay is not None:
            self._arm(delay)

    def _work(self) -> Optional[int]:
        raise NotImplementedError

    @property
    def armed(self) -> bool:
        """Whether the machine holds one pending event-store entry."""
        return self._handle is not None

    def note_perturbation(self, at_ns: int, payload) -> None:
        """Fold a user perturbation into the observable timeline."""
        self.digest = chain_digest(self.digest, "perturb", at_ns,
                                   self.machine, payload)

    # -- serialize/restore --------------------------------------------------------

    def _extra_state(self) -> dict:
        return {}

    def _apply_extra(self, extra: dict) -> None:
        if extra:
            raise CheckpointError(
                f"{self.name}: unexpected extra state {sorted(extra)}")

    def serialize(self) -> dict:
        armed = None
        if self._handle is not None:
            armed = [self._armed_at, self._armed_seq]
        return {"name": self.name, "ticks": self.ticks,
                "digest": self.digest,
                "rng": encode_rng_state(self.rng.getstate()),
                "armed": armed, "extra": self._extra_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot,
                      ("name", "ticks", "digest", "rng", "armed", "extra"))
        if snapshot["name"] != self.name:
            raise CheckpointError(
                f"{self.name}: payload belongs to {snapshot['name']!r}")
        if self._handle is not None or self.ticks:
            raise CheckpointError(
                f"{self.name}: restore requires a freshly built machine")
        self.ticks = snapshot["ticks"]
        self.digest = snapshot["digest"]
        self.rng.setstate(decode_rng_state(snapshot["rng"]))
        self._apply_extra(snapshot["extra"])
        if snapshot["armed"] is not None:
            self._armed_at, self._armed_seq = snapshot["armed"]
            self._handle = self.sim.restore_call(
                self._armed_at, NORMAL, self._armed_seq, self._tick)


class SleeperMachine(TickMachine):
    """The usleep-loop workload of Figure 4, as a plain-method machine.

    Each tick digests the instant it ran and draws the next interval
    from its own substream — the canonical "application code whose
    observable timeline must not notice a checkpoint".
    """

    kind = "sleeper"

    def __init__(self, sim: Simulator, name: str, seed: int = 0,
                 mean_ns: int = 10 * MS) -> None:
        super().__init__(sim, name, seed)
        self.mean_ns = mean_ns

    def _work_delay(self) -> int:
        return self.mean_ns // 2 + self.rng.randint(0, self.mean_ns)

    def _work(self) -> int:
        delay = self._work_delay()
        self.digest = chain_digest(self.digest, self.sim.now, delay)
        return delay


class StorageWriterMachine(TickMachine):
    """The Bonnie-style write load of Figure 8 against branching storage.

    Each tick issues one random COW write to its
    :class:`~repro.storage.branching.BranchStore` (whose state is
    serialized by its own provider) and digests what it asked for.  Tick
    period must comfortably exceed the write's service time: the write
    runs as a simulation coroutine, and snapshots may only be taken at
    instants where no coroutine is in flight.
    """

    kind = "storage"

    def __init__(self, sim: Simulator, name: str, branch,
                 span_blocks: int = 2048, period_ns: int = 40 * MS,
                 seed: int = 0) -> None:
        super().__init__(sim, name, seed)
        self.branch = branch
        self.span_blocks = span_blocks
        self.period_ns = period_ns

    def _work_delay(self) -> int:
        return self.period_ns + self.rng.randint(0, self.period_ns // 4)

    def _work(self) -> int:
        vba = self.rng.randrange(self.span_blocks)
        nblocks = 1 + self.rng.randrange(4)
        self.branch.write(vba, nblocks)
        self.digest = chain_digest(self.digest, self.sim.now, vba, nblocks)
        return self._work_delay()


class LossyChannelMachine(TickMachine):
    """A control-bus client hammered by a seeded fault injector.

    Each tick asks the injector for a delivery verdict and an ack-loss
    decision (consuming the injector's fault substreams exactly as the
    reliable bus would) and digests the outcome, so the digest proves
    the restored injector's future decisions match the replayed ones.
    """

    kind = "channel"

    def __init__(self, sim: Simulator, name: str, injector,
                 period_ns: int = 15 * MS, seed: int = 0) -> None:
        super().__init__(sim, name, seed)
        self.injector = injector
        self.period_ns = period_ns

    def _work_delay(self) -> int:
        return self.period_ns + self.rng.randint(0, self.period_ns // 3)

    def _work(self) -> int:
        verdict = self.injector.bus_delivery(
            f"storm.{self.machine}", "rx", attempt=self.ticks)
        ack_lost = self.injector.bus_ack_lost(f"storm.{self.machine}", "rx")
        self.digest = chain_digest(
            self.digest, self.sim.now, verdict.drop, verdict.duplicate,
            verdict.extra_delay_ns, ack_lost)
        return self._work_delay()


class WheelSleeperMachine(Checkpointable):
    """A sleeper whose ticks run through a guest virtual timer wheel.

    Unlike :class:`SleeperMachine`, the armed call belongs to the wheel
    (tagged, so the wheel's own serialize/restore carries it); this
    machine serializes only its counters, digest, and RNG.  Restore the
    machine *before* its wheel provider: the wheel's resolver maps the
    tag back to :meth:`_tick`.
    """

    kind = "wheelsleeper"

    def __init__(self, sim: Simulator, name: str, wheel, seed: int = 0,
                 mean_ns: int = 10 * MS) -> None:
        self.sim = sim
        self.machine = name
        self.name = f"{self.kind}.{name}"
        self.wheel = wheel
        self.mean_ns = mean_ns
        self.tag = f"{self.name}.tick"
        self.rng = derived_rng(f"timetravel.{self.kind}.{name}", seed)
        self.ticks = 0
        self.digest = hashlib.sha256(
            self.name.encode("utf-8")).hexdigest()

    def start(self) -> None:
        self.wheel.call_in(self._next_delay(), self._tick, tag=self.tag)

    def _next_delay(self) -> int:
        return self.mean_ns // 2 + self.rng.randint(0, self.mean_ns)

    def _tick(self) -> None:
        self.ticks += 1
        self.digest = chain_digest(self.digest, self.sim.now,
                                   self.wheel.now())
        self.wheel.call_in(self._next_delay(), self._tick, tag=self.tag)

    def note_perturbation(self, at_ns: int, payload) -> None:
        """Fold a user perturbation into the observable timeline."""
        self.digest = chain_digest(self.digest, "perturb", at_ns,
                                   self.machine, payload)

    def resolver_entries(self) -> dict:
        """Tag-to-callback entries for the owning wheel's restore."""
        return {self.tag: self._tick}

    def serialize(self) -> dict:
        return {"name": self.name, "ticks": self.ticks,
                "digest": self.digest,
                "rng": encode_rng_state(self.rng.getstate())}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot,
                      ("name", "ticks", "digest", "rng"))
        if snapshot["name"] != self.name:
            raise CheckpointError(
                f"{self.name}: payload belongs to {snapshot['name']!r}")
        self.ticks = snapshot["ticks"]
        self.digest = snapshot["digest"]
        self.rng.setstate(decode_rng_state(snapshot["rng"]))


class WheelProvider(Checkpointable):
    """Provider wrapping a guest timer wheel plus its tag resolver."""

    def __init__(self, wheel, resolver: dict) -> None:
        self.wheel = wheel
        self.resolver = dict(resolver)
        self.name = f"wheel.{wheel.name}"

    def serialize(self) -> dict:
        return {"wheel": self.wheel.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("wheel",))
        self.wheel.restore_state(snapshot["wheel"],
                                 self.resolver.__getitem__)


class PerturbationProvider(Checkpointable):
    """Pending user perturbations, with their exact event triples.

    A perturbation armed for a future instant is a pending event like
    any other: it must survive the serialize/restore boundary with its
    ``(when, priority, seq)`` triple intact, or the restored world's
    event order diverges from the replayed one's the moment it fires.
    """

    def __init__(self, sim: Simulator, apply_fn) -> None:
        self.sim = sim
        self.name = "world.perturbations"
        self._apply = apply_fn
        #: unfired perturbations: {"at", "target", "payload", "seq"}
        self.pending: list = []

    def arm(self, at_ns: int, target: str, payload) -> None:
        """Schedule a perturbation; fires at ``at_ns`` (or now, if past)."""
        when = max(self.sim.now, at_ns)
        rec = {"at": when, "target": target, "payload": payload}
        _handle, seq = self.sim.schedule_tracked(when, self._make_fire(rec))
        rec["seq"] = seq
        self.pending.append(rec)

    def _make_fire(self, rec: dict):
        def fire() -> None:
            self.pending.remove(rec)
            self._apply(rec["target"], rec["payload"], rec["at"])
        return fire

    def serialize(self) -> dict:
        return {"pending": sorted(
            ({"at": r["at"], "target": r["target"],
              "payload": r["payload"], "seq": r["seq"]}
             for r in self.pending),
            key=lambda r: (r["at"], r["seq"]))}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("pending",))
        self.pending = []
        for spec in snapshot["pending"]:
            rec = {"at": spec["at"], "target": spec["target"],
                   "payload": spec["payload"], "seq": spec["seq"]}
            self.sim.restore_call(rec["at"], NORMAL, rec["seq"],
                                  self._make_fire(rec))
            self.pending.append(rec)


class DiskProvider(Checkpointable):
    """Provider wrapping a :class:`~repro.hw.disk.Disk`'s head/counters."""

    def __init__(self, disk) -> None:
        self.disk = disk
        self.name = f"disk.{disk.name}"

    def serialize(self) -> dict:
        return {"disk": self.disk.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("disk",))
        self.disk.restore_state(snapshot["disk"])


class InjectorProvider(Checkpointable):
    """Provider wrapping a fault injector's consumable state."""

    def __init__(self, injector) -> None:
        self.injector = injector
        self.name = "faults.injector"

    def serialize(self) -> dict:
        return {"injector": self.injector.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("injector",))
        self.injector.restore_state(snapshot["injector"])


class VClockProvider(Checkpointable):
    """Provider wrapping a guest virtual clock's hidden-time accounting."""

    def __init__(self, vclock, name: str) -> None:
        self.vclock = vclock
        self.name = f"vclock.{name}"

    def serialize(self) -> dict:
        return {"vclock": self.vclock.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("vclock",))
        self.vclock.restore_state(snapshot["vclock"])
