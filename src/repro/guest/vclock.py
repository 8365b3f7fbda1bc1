"""Guest virtual clocks.

A guest never reads true time: it reads a virtual clock that the hypervisor
and the temporal firewall can freeze.  While frozen, the clock holds its
value; on thaw, the downtime is added to the clock's *hidden* total, so
virtual time is continuous across a checkpoint.  This is the model of the
paper's time virtualization (§4.2): suspending shared-info-page updates,
restricting the TSC, and stopping ``xtime``/``jiffies`` accounting all
collapse to "the guest's time sources hold still".
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ClockError
from repro.sim.core import Simulator
from repro.sim.random import derived_rng


class VirtualClock:
    """Monotonic guest time: true time minus all concealed downtime.

    ``rebase_jitter_ns`` models the imprecision of re-basing the guest's
    time sources at resume (re-programming the TSC offset and rewriting
    the shared-info page is accurate only to tens of microseconds on the
    paper's hardware).  Each thaw leaks up to that much downtime into
    guest-visible time — the residual error Figure 4 measures at
    checkpoints.  The clock stays monotonic: the leak only ever makes
    virtual time jump slightly *forward*.
    """

    def __init__(self, sim: Simulator, epoch_wall_ns: int = 0,
                 rng: Optional[random.Random] = None,
                 rebase_jitter_ns: int = 0) -> None:
        self.sim = sim
        self.epoch_wall_ns = epoch_wall_ns
        self.rng = rng or derived_rng("vclock")
        self.rebase_jitter_ns = rebase_jitter_ns
        self._hidden = 0
        self._frozen = False
        self._frozen_value = 0
        self.freezes = 0
        self.total_hidden_ns = 0
        self.total_rebase_error_ns = 0

    @property
    def frozen(self) -> bool:
        return self._frozen

    def now(self) -> int:
        """Virtual nanoseconds since guest boot."""
        if self._frozen:
            return self._frozen_value
        return self.sim.now - self._hidden

    def wall_time(self) -> int:
        """Virtual wall-clock time (epoch + virtual time)."""
        return self.epoch_wall_ns + self.now()

    def at(self, t: int) -> int:
        """Unfrozen virtual time at true time ``t`` under the current offset
        (exact for any ``t`` since the last thaw)."""
        return t - self._hidden

    def freeze(self) -> None:
        """Stop the clock at its current value."""
        if self._frozen:
            raise ClockError("virtual clock already frozen")
        self._frozen_value = self.now()
        self._frozen = True
        self.freezes += 1

    def thaw(self) -> int:
        """Resume the clock; returns the downtime just concealed (true ns)."""
        if not self._frozen:
            raise ClockError("virtual clock is not frozen")
        downtime = (self.sim.now - self._hidden) - self._frozen_value
        leak = 0
        if self.rebase_jitter_ns > 0:
            leak = min(downtime, self.rng.randint(0, self.rebase_jitter_ns))
            self.total_rebase_error_ns += leak
        self._hidden += downtime - leak
        self.total_hidden_ns += downtime - leak
        self._frozen = False
        return downtime

    # -- snapshot/restore ------------------------------------------------------

    def serialize_state(self) -> dict:
        """Hidden-time accounting and rebase-RNG position, JSON-safe.

        The rebase RNG state rides along so a restored clock's *next*
        jitter draw matches the snapshotted world's next draw (the
        determinism contract of every serialize/restore pair).
        """
        from repro.sim.random import encode_rng_state

        return {"hidden": self._hidden, "frozen": self._frozen,
                "frozen_value": self._frozen_value,
                "freezes": self.freezes,
                "total_hidden_ns": self.total_hidden_ns,
                "total_rebase_error_ns": self.total_rebase_error_ns,
                "rng": encode_rng_state(self.rng.getstate())}

    def restore_state(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload (same sim instant)."""
        from repro.sim.random import decode_rng_state

        expected = ("hidden", "frozen", "frozen_value", "freezes",
                    "total_hidden_ns", "total_rebase_error_ns", "rng")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise ClockError("malformed virtual-clock payload")
        self._hidden = state["hidden"]
        self._frozen = state["frozen"]
        self._frozen_value = state["frozen_value"]
        self.freezes = state["freezes"]
        self.total_hidden_ns = state["total_hidden_ns"]
        self.total_rebase_error_ns = state["total_rebase_error_ns"]
        self.rng.setstate(decode_rng_state(state["rng"]))
