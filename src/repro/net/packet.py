"""Network packets.

Addressing is flat: every host interface has a string address; Emulab
experiments identify endpoints by node name, which maps 1:1 onto the
experiment-network interface in our topologies.  Headers beyond the common
fields live in a per-protocol ``headers`` dict so the shaping and
checkpointing layers (which are protocol-agnostic, like the paper's Layer-2
Dummynet) never need to parse them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

#: Ethernet + IP + TCP framing overhead charged per packet on the wire.
FRAME_OVERHEAD_BYTES = 66

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One network packet."""

    src: str
    dst: str
    protocol: str
    payload_bytes: int
    headers: Dict[str, Any] = field(default_factory=dict)
    created_at: int = 0
    uid: int = field(default_factory=_packet_ids.__next__)
    #: bytes occupied on the wire, including framing — precomputed because
    #: every shaping layer reads it (a property was a hot-path cost)
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.wire_bytes = self.payload_bytes + FRAME_OVERHEAD_BYTES

    def copy(self) -> "Packet":
        """An independent copy (fresh uid) — used by replay logs."""
        return Packet(self.src, self.dst, self.protocol, self.payload_bytes,
                      dict(self.headers), self.created_at)

    def __repr__(self) -> str:
        return (f"<Packet #{self.uid} {self.protocol} {self.src}->{self.dst} "
                f"{self.payload_bytes}B {self.headers}>")
