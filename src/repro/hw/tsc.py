"""Hardware time-stamp counter (TSC) oscillator model.

Every machine owns an oscillator with a nominal frequency and a small
per-part frequency error (drift, in parts per million).  The TSC is the raw
tick count of that oscillator; system clocks and the guest's virtualized
time sources are derived from it.

The paper's transparency argument depends on controlling exactly this
resource: during a checkpoint the hypervisor restricts guest access to the
TSC so no real time can leak inside the temporal firewall.
"""

from __future__ import annotations

from repro.errors import ClockError
from repro.sim.core import Simulator
from repro.units import SECOND


class Oscillator:
    """A free-running counter with frequency error.

    The tick count at true time ``t`` is ``t * f * (1 + drift_ppm/1e6) / 1e9``
    plus an arbitrary boot offset.  Reads are monotonic by construction.
    """

    def __init__(self, sim: Simulator, freq_hz: int = 3_000_000_000,
                 drift_ppm: float = 0.0, boot_ticks: int = 0) -> None:
        if freq_hz <= 0:
            raise ClockError(f"oscillator frequency must be positive: {freq_hz}")
        self.sim = sim
        self.freq_hz = freq_hz
        self.drift_ppm = drift_ppm
        self.boot_ticks = boot_ticks
        self._effective_hz = freq_hz * (1.0 + drift_ppm * 1e-6)

    def ticks_at(self, t: int) -> int:
        """Tick count at true time ``t`` (pure: reads no simulator state)."""
        return self.boot_ticks + int(t * self._effective_hz / SECOND)

    def read(self) -> int:
        """Current tick count."""
        return self.ticks_at(self.sim.now)

    def ticks_to_ns(self, ticks: int) -> int:
        """Convert a tick interval to nanoseconds of *nominal* time.

        This mirrors what an OS does: it calibrates against the nominal
        frequency, so the drift error is inherited by derived clocks.
        """
        return int(ticks * SECOND / self.freq_hz)

    def ns_to_ticks(self, ns: int) -> int:
        """Convert nominal nanoseconds to a tick interval."""
        return int(ns * self.freq_hz / SECOND)


class GuestTSC:
    """The guest-visible view of the host oscillator.

    The hypervisor can *restrict* access during a checkpoint: while
    restricted, reads return the frozen value captured at restriction time,
    so time interpolation inside the guest cannot observe checkpoint
    downtime.  (On real Xen this is done by trapping RDTSC; the observable
    contract is identical.)
    """

    def __init__(self, oscillator: Oscillator) -> None:
        self.oscillator = oscillator
        self._restricted = False
        self._frozen_value = 0
        self._hidden = 0

    @property
    def restricted(self) -> bool:
        """True while the hypervisor has fenced off the raw counter."""
        return self._restricted

    def restrict(self) -> None:
        """Freeze the guest-visible counter at its current value."""
        if self._restricted:
            raise ClockError("guest TSC already restricted")
        self._frozen_value = self.oscillator.read()
        self._restricted = True

    def unrestrict(self) -> None:
        """Resume pass-through reads, continuing from the frozen value.

        The hypervisor applies a TSC offset on real hardware so the guest
        never sees the gap; we model that by re-basing the counter.
        """
        if not self._restricted:
            raise ClockError("guest TSC is not restricted")
        self._restricted = False
        # Everything the hardware counted while frozen becomes invisible.
        self._hidden += self.oscillator.read() - self._frozen_value

    def read(self) -> int:
        """Guest RDTSC."""
        if self._restricted:
            return self._frozen_value
        return self.read_at(self.oscillator.sim.now)

    def read_at(self, t: int) -> int:
        """What an unrestricted read at true time ``t`` returns under the
        current offset (exact for any ``t`` since the last unrestrict)."""
        return self.oscillator.ticks_at(t) - self._hidden
