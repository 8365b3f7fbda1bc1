"""Network interfaces (NICs).

An interface hands outbound packets to its attached link and delivers
inbound packets to the host stack.  It supports *freezing*: while frozen
(its owner is being checkpointed), arriving packets accumulate in the
receive ring instead of being delivered.  These buffered packets are exactly
the per-endpoint replay log of the paper's design — with coordinated
checkpoints and delay-node capture their number is bounded by the clock
synchronization error.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.obs.trace import Tracer, maybe_record


class Interface:
    """One NIC with a string address."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.name = name
        self.address = address
        self.tracer = tracer
        self.link: Optional["object"] = None  # set by Link
        self._handler: Optional[Callable[[Packet], None]] = None
        #: if set, outbound packets are offered here first; a True return
        #: means the interceptor consumed the packet (used by buffered-I/O
        #: checkpointers such as the Remus baseline)
        self.tx_interceptor: Optional[Callable[[Packet], bool]] = None
        self._frozen = False
        self._rx_ring: list[Packet] = []
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.frozen_arrivals = 0

    def attach(self, handler: Callable[[Packet], None]) -> None:
        """Register the upper-layer receive handler."""
        self._handler = handler

    # -- data path -------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` on the attached link."""
        if self.tx_interceptor is not None and self.tx_interceptor(packet):
            return
        self.send_raw(packet)

    def send_raw(self, packet: Packet) -> None:
        """Transmit bypassing any interceptor (interceptors flush with this)."""
        if self.link is None:
            raise NetworkError(f"interface {self.name} has no link")
        self.tx_packets += 1
        self.tx_bytes += packet.wire_bytes
        if self.tracer is not None and self.tracer.enabled_for("if.tx"):
            # inline maybe_record: hot path, verdict checked pre-kwargs
            self.tracer.record("if.tx", iface=self.name, packet=packet)
        self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a packet arrives."""
        if self._frozen:
            self._rx_ring.append(packet)
            self.frozen_arrivals += 1
            maybe_record(self.tracer, "if.rx_frozen", iface=self.name,
                         packet=packet)
            return
        self.rx_packets += 1
        self.rx_bytes += packet.wire_bytes
        if self.tracer is not None and self.tracer.enabled_for("if.rx"):
            # inline maybe_record: hot path, verdict checked pre-kwargs
            self.tracer.record("if.rx", iface=self.name, packet=packet)
        if self._handler is not None:
            self._handler(packet)

    # -- checkpoint support -------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Buffer all arrivals until :meth:`thaw`."""
        if self._frozen:
            raise NetworkError(f"interface {self.name} already frozen")
        self._frozen = True

    def thaw(self) -> int:
        """Resume delivery; replays buffered packets in arrival order.

        Returns the number of packets that had to be replayed (the size of
        the in-flight log this endpoint accumulated).
        """
        if not self._frozen:
            raise NetworkError(f"interface {self.name} is not frozen")
        self._frozen = False
        replayed = len(self._rx_ring)
        ring, self._rx_ring = self._rx_ring, []
        for packet in ring:
            self.deliver(packet)
        return replayed

    def __repr__(self) -> str:
        return f"<Interface {self.name} addr={self.address}>"
