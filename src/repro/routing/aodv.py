"""Ad-hoc On-demand Distance Vector (AODV) routing.

The centralized baseline of the paper ships every node's sliding window to a
sink over multi-hop routes established with AODV (Perkins & Royer, 1999).
This module implements the subset of AODV the evaluation needs:

* route discovery by flooding route requests (RREQ) with duplicate
  suppression,
* reverse-route installation at every node a RREQ traverses,
* route replies (RREP) unicast hop-by-hop back along the reverse route,
  installing forward routes,
* hop-by-hop forwarding of data packets along installed routes,
* buffering of data packets while discovery for their destination is in
  flight.

Route maintenance (RERR, timeouts, sequence-number-driven refreshes) is not
required because the evaluation uses static, connected topologies; stale
routes therefore never arise.  The structures are nevertheless in place
(sequence numbers are tracked and monotone) so the protocol behaves correctly
if discovery is re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import RoutingError
from ..network.node import SimNode
from ..network.packet import BROADCAST_ADDRESS, Packet, PacketKind
from ..simulator.rng import RandomStreams

__all__ = ["AodvAgent", "RouteEntry", "RREQ_SIZE_BYTES", "RREP_SIZE_BYTES"]

#: On-the-wire sizes of AODV control packets (RFC 3561 formats, rounded).
RREQ_SIZE_BYTES = 24
RREP_SIZE_BYTES = 20


@dataclass(frozen=True)
class RreqPayload:
    """Route request: flooded until it reaches the target."""

    originator: int
    originator_seq: int
    request_id: int
    target: int
    hop_count: int


@dataclass(frozen=True)
class RrepPayload:
    """Route reply: unicast back towards the originator of the request."""

    originator: int
    target: int
    target_seq: int
    hop_count: int


@dataclass
class RouteEntry:
    """One row of the routing table."""

    destination: int
    next_hop: int
    hop_count: int
    destination_seq: int = 0


class AodvAgent:
    """AODV routing agent attached to a :class:`SimNode`.

    The agent registers itself as the node's first packet handler: it consumes
    AODV control traffic and relays data packets for which this node is an
    intermediate hop; data packets that terminate here are left to the
    application handlers further down the stack.
    """

    def __init__(
        self,
        node: SimNode,
        streams: Optional[RandomStreams] = None,
        rreq_jitter: float = 0.005,
    ) -> None:
        self.node = node
        self._rng = (streams or RandomStreams(node.node_id)).stream(
            f"aodv-{node.node_id}"
        )
        self.rreq_jitter = float(rreq_jitter)
        self.sequence_number = 0
        self.request_id = 0
        self.routing_table: Dict[int, RouteEntry] = {}
        self._seen_requests: set = set()
        self._pending: Dict[int, List[Packet]] = {}
        # Statistics, used by the experiments to split routing overhead from
        # application traffic.
        self.control_packets_sent = 0
        self.data_packets_forwarded = 0
        node.add_handler(self.handle_packet)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

    def has_route(self, destination: int) -> bool:
        return destination in self.routing_table or destination == self.node_id

    def route(self, destination: int) -> RouteEntry:
        try:
            return self.routing_table[destination]
        except KeyError:
            raise RoutingError(
                f"node {self.node_id} has no route to {destination}"
            ) from None

    def send_data(self, packet: Packet) -> None:
        """Send (or queue pending route discovery) an end-to-end data packet
        originated by this node."""
        if packet.destination == self.node_id:
            raise RoutingError("refusing to route a packet addressed to its own source")
        if packet.destination == BROADCAST_ADDRESS:
            raise RoutingError("AODV does not route link-layer broadcasts")
        self._forward_or_discover(packet)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def handle_packet(self, node: SimNode, packet: Packet) -> bool:
        kind = packet.kind
        if kind == PacketKind.AODV_RREQ:
            self._handle_rreq(packet)
            return True
        if kind == PacketKind.AODV_RREP:
            self._handle_rrep(packet)
            return True
        if packet.destination == node.node_id:
            # Terminates here: the application handler will take it.
            return False
        if packet.link_destination == BROADCAST_ADDRESS:
            # Application broadcasts are none of AODV's business.
            return False
        # Unicast data packet addressed elsewhere but link-delivered to us:
        # we are an intermediate hop and must relay it.
        self._relay(packet)
        return True

    # ------------------------------------------------------------------
    # Data forwarding
    # ------------------------------------------------------------------
    def _forward_or_discover(self, packet: Packet) -> None:
        destination = packet.destination
        entry = self.routing_table.get(destination)
        if entry is not None:
            node = self.node
            node.send(packet.next_hop_copy(node.node_id, entry.next_hop))
            return
        self._pending.setdefault(destination, []).append(packet)
        self._start_discovery(destination)

    def _relay(self, packet: Packet) -> None:
        destination = packet.destination
        entry = self.routing_table.get(destination)
        if entry is None:
            # No route (e.g. we never saw the RREP).  Re-discover and queue;
            # in a static connected network discovery always succeeds.
            self._pending.setdefault(destination, []).append(packet)
            self._start_discovery(destination)
            return
        self.data_packets_forwarded += 1
        node = self.node
        node.send(packet.next_hop_copy(node.node_id, entry.next_hop))

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------
    def _start_discovery(self, destination: int) -> None:
        self.sequence_number += 1
        self.request_id += 1
        payload = RreqPayload(
            originator=self.node_id,
            originator_seq=self.sequence_number,
            request_id=self.request_id,
            target=destination,
            hop_count=0,
        )
        self._seen_requests.add((self.node_id, self.request_id))
        self._broadcast_rreq(payload)

    def _broadcast_rreq(self, payload: RreqPayload) -> None:
        packet = Packet(
            kind=PacketKind.AODV_RREQ,
            source=payload.originator,
            destination=BROADCAST_ADDRESS,
            size_bytes=RREQ_SIZE_BYTES,
            payload=payload,
            link_source=self.node_id,
            link_destination=BROADCAST_ADDRESS,
        )
        self.control_packets_sent += 1
        # A small random jitter de-synchronises the flood so neighboring nodes
        # do not all rebroadcast at the exact same instant.
        delay = self._rng.uniform(0.0, self.rreq_jitter)
        self.node.simulator.schedule(delay, self.node.send, packet)

    def _handle_rreq(self, packet: Packet) -> None:
        payload: RreqPayload = packet.payload
        key = (payload.originator, payload.request_id)
        if payload.originator == self.node_id or key in self._seen_requests:
            return
        self._seen_requests.add(key)
        hops_to_origin = payload.hop_count + 1
        self._update_route(payload.originator, packet.link_source, hops_to_origin,
                           payload.originator_seq)
        if payload.target == self.node_id:
            self.sequence_number += 1
            reply = RrepPayload(
                originator=payload.originator,
                target=self.node_id,
                target_seq=self.sequence_number,
                hop_count=0,
            )
            self._send_rrep(reply)
            return
        forwarded = RreqPayload(
            originator=payload.originator,
            originator_seq=payload.originator_seq,
            request_id=payload.request_id,
            target=payload.target,
            hop_count=hops_to_origin,
        )
        self._broadcast_rreq(forwarded)

    def _send_rrep(self, payload: RrepPayload) -> None:
        entry = self.routing_table.get(payload.originator)
        if entry is None:
            raise RoutingError(
                f"node {self.node_id} generated a RREP without a reverse route "
                f"to {payload.originator}"
            )
        packet = Packet(
            kind=PacketKind.AODV_RREP,
            source=payload.target,
            destination=payload.originator,
            size_bytes=RREP_SIZE_BYTES,
            payload=payload,
            link_source=self.node_id,
            link_destination=entry.next_hop,
        )
        self.control_packets_sent += 1
        self.node.send(packet)

    def _handle_rrep(self, packet: Packet) -> None:
        payload: RrepPayload = packet.payload
        hops_to_target = payload.hop_count + 1
        self._update_route(payload.target, packet.link_source, hops_to_target,
                           payload.target_seq)
        if payload.originator == self.node_id:
            self._flush_pending(payload.target)
            return
        entry = self.routing_table.get(payload.originator)
        if entry is None:
            # The reverse route evaporated (should not happen on static
            # networks); drop the reply and let the originator retry.
            return
        forwarded = RrepPayload(
            originator=payload.originator,
            target=payload.target,
            target_seq=payload.target_seq,
            hop_count=hops_to_target,
        )
        out = Packet(
            kind=PacketKind.AODV_RREP,
            source=payload.target,
            destination=payload.originator,
            size_bytes=RREP_SIZE_BYTES,
            payload=forwarded,
            link_source=self.node_id,
            link_destination=entry.next_hop,
        )
        self.control_packets_sent += 1
        self.node.send(out)

    # ------------------------------------------------------------------
    # Routing table maintenance
    # ------------------------------------------------------------------
    def _update_route(
        self, destination: int, next_hop: int, hop_count: int, seq: int
    ) -> None:
        if destination == self.node_id:
            return
        current = self.routing_table.get(destination)
        if (
            current is None
            or seq > current.destination_seq
            or (seq == current.destination_seq and hop_count < current.hop_count)
        ):
            self.routing_table[destination] = RouteEntry(
                destination=destination,
                next_hop=next_hop,
                hop_count=hop_count,
                destination_seq=seq,
            )

    def _flush_pending(self, destination: int) -> None:
        waiting = self._pending.pop(destination, [])
        for packet in waiting:
            self._forward_or_discover(packet)
