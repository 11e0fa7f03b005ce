"""Packets exchanged over the simulated wireless channel.

A :class:`Packet` is the unit the MAC/radio layer deals in.  Its ``payload``
is opaque to the network substrate (the outlier-detection application puts an
:class:`~repro.core.messages.OutlierMessage` there, the centralized baseline
puts window dumps and outlier replies there, AODV puts control structures
there); only the declared ``size_bytes`` matters for airtime and energy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Packet", "PacketKind", "BROADCAST_ADDRESS"]

#: Link-layer broadcast address: every node in range accepts the packet.
BROADCAST_ADDRESS = -1

_packet_ids = itertools.count(1)


class PacketKind:
    """Coarse packet classification used for tracing and statistics."""

    APP_BROADCAST = "app-broadcast"  # distributed detector packets
    APP_DATA = "app-data"            # centralized window uploads / replies
    APP_ACK = "app-ack"              # end-to-end acknowledgements
    AODV_RREQ = "aodv-rreq"
    AODV_RREP = "aodv-rrep"
    AODV_RERR = "aodv-rerr"

    CONTROL_KINDS = (AODV_RREQ, AODV_RREP, AODV_RERR)


@dataclass
class Packet:
    """A single link-layer frame.

    Attributes
    ----------
    kind:
        One of the :class:`PacketKind` constants.
    source:
        Node that created the packet (end-to-end source).
    destination:
        End-to-end destination node, or :data:`BROADCAST_ADDRESS`.
    link_source / link_destination:
        Per-hop sender and intended receiver; for single-hop traffic they
        coincide with ``source``/``destination``.
    size_bytes:
        On-the-wire size used for airtime and energy accounting.
    payload:
        Application or routing payload (opaque to the substrate).
    hop_count:
        Number of link transmissions this packet has undergone so far.
    """

    kind: str
    source: int
    destination: int
    size_bytes: int
    payload: Any = None
    link_source: Optional[int] = None
    link_destination: Optional[int] = None
    hop_count: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.link_source is None:
            self.link_source = self.source
        if self.link_destination is None:
            self.link_destination = self.destination

    @property
    def is_broadcast(self) -> bool:
        """True when the current hop is a link-layer broadcast."""
        return self.link_destination == BROADCAST_ADDRESS

    def next_hop_copy(self, link_source: int, link_destination: int) -> "Packet":
        """A copy prepared for relaying over the next link.

        The copy shares the payload and takes a fresh ``packet_id``.  The
        fields are already complete, so it copies them instead of running
        the constructor again.
        """
        fields = self.__dict__.copy()
        fields["link_source"] = link_source
        fields["link_destination"] = link_destination
        fields["hop_count"] = self.hop_count + 1
        fields["packet_id"] = next(_packet_ids)
        copy = object.__new__(self.__class__)
        copy.__dict__ = fields
        return copy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dest = "BCAST" if self.is_broadcast else str(self.link_destination)
        return (
            f"Packet(#{self.packet_id} {self.kind} {self.link_source}->{dest} "
            f"{self.size_bytes}B hop={self.hop_count})"
        )
