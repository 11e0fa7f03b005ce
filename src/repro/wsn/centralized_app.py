"""Application layer of the centralized baseline.

Every sensor (client) periodically sends its complete sliding-window contents
to a designated *sink* over multi-hop unicast routes (AODV by default, or the
static shortest-path tables for the ablation).  The sink maintains a
:class:`~repro.baselines.centralized.CentralizedAggregator`, recomputes the
global outliers once per round, and unicasts the result back to every sensor.
End-to-end acknowledgements flow in both directions, as in the paper's setup
("a simple end-to-end acknowledgment mechanism was also used to reinforce
reliable communication").

The sink node is itself a sensor: its own window enters the aggregator
directly without consuming any radio energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..baselines.centralized import CentralizedAggregator
from ..core.messages import HEADER_WIRE_BYTES, POINT_WIRE_BYTES
from ..core.outliers import OutlierQuery
from ..core.points import DataPoint, sort_key
from ..core.sliding_window import SlidingWindow
from ..network.node import SimNode
from ..network.packet import Packet, PacketKind
from ..routing.aodv import AodvAgent
from ..routing.static import StaticRoutingAgent

__all__ = [
    "WindowUpload",
    "OutlierReply",
    "Acknowledgement",
    "ACK_SIZE_BYTES",
    "CentralizedClientApp",
    "CentralizedSinkApp",
]

#: Size of an end-to-end acknowledgement packet.
ACK_SIZE_BYTES = 14

RoutingAgent = Union[AodvAgent, StaticRoutingAgent]


@dataclass(frozen=True)
class WindowUpload:
    """A sensor's window shipped to the sink."""

    origin: int
    round_index: int
    points: Tuple[DataPoint, ...]

    def wire_size(self) -> int:
        return HEADER_WIRE_BYTES + POINT_WIRE_BYTES * len(self.points)


@dataclass(frozen=True)
class OutlierReply:
    """The sink's answer pushed back to a sensor."""

    round_index: int
    outliers: Tuple[DataPoint, ...]

    def wire_size(self) -> int:
        return HEADER_WIRE_BYTES + POINT_WIRE_BYTES * len(self.outliers)


@dataclass(frozen=True)
class Acknowledgement:
    """End-to-end acknowledgement of an upload or a reply."""

    origin: int
    round_index: int
    acknowledges: str  # "upload" or "reply"


class CentralizedClientApp:
    """Sensor-side application of the centralized baseline."""

    def __init__(
        self,
        node: SimNode,
        routing: RoutingAgent,
        sink_id: int,
        window_length: float,
    ) -> None:
        self.node = node
        self.routing = routing
        self.sink_id = int(sink_id)
        self.window = SlidingWindow(window_length)
        self.round_index = -1
        self.last_reply: Optional[OutlierReply] = None
        self.uploads_sent = 0
        self.replies_received = 0
        self.acks_received = 0
        node.add_handler(self.handle_packet)

    @property
    def node_id(self) -> int:
        return self.node.node_id

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, point: DataPoint) -> None:
        """One sampling round: refresh the window and ship it to the sink."""
        self.round_index += 1
        self.window.slide(point.timestamp, [point])
        upload = WindowUpload(
            origin=self.node_id,
            round_index=self.round_index,
            points=tuple(sorted(self.window.points, key=sort_key)),
        )
        packet = Packet(
            kind=PacketKind.APP_DATA,
            source=self.node_id,
            destination=self.sink_id,
            size_bytes=upload.wire_size(),
            payload=upload,
        )
        self.uploads_sent += 1
        self.routing.send_data(packet)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def handle_packet(self, node: SimNode, packet: Packet) -> bool:
        if packet.destination != self.node_id:
            return False
        payload = packet.payload
        if isinstance(payload, OutlierReply):
            self.last_reply = payload
            self.replies_received += 1
            ack = Acknowledgement(
                origin=self.node_id,
                round_index=payload.round_index,
                acknowledges="reply",
            )
            self.routing.send_data(
                Packet(
                    kind=PacketKind.APP_ACK,
                    source=self.node_id,
                    destination=self.sink_id,
                    size_bytes=ACK_SIZE_BYTES,
                    payload=ack,
                )
            )
            return True
        if isinstance(payload, Acknowledgement):
            self.acks_received += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def estimate(self) -> List[DataPoint]:
        """The sensor's view of the outliers: whatever the sink last told it."""
        if self.last_reply is None:
            return []
        return list(self.last_reply.outliers)


class CentralizedSinkApp:
    """Sink-side application of the centralized baseline."""

    def __init__(
        self,
        node: SimNode,
        routing: RoutingAgent,
        query: OutlierQuery,
        window_length: float,
    ) -> None:
        self.node = node
        self.routing = routing
        self.query = query
        self.aggregator = CentralizedAggregator(query)
        self.window = SlidingWindow(window_length)
        self.round_index = -1
        self.last_outliers: List[DataPoint] = []
        self.replies_sent = 0
        self.uploads_received = 0
        node.add_handler(self.handle_packet)

    @property
    def node_id(self) -> int:
        return self.node.node_id

    # ------------------------------------------------------------------
    # Sampling (the sink is a sensor too; no radio involved for itself)
    # ------------------------------------------------------------------
    def sample(self, point: DataPoint) -> None:
        self.round_index += 1
        self.window.slide(point.timestamp, [point])
        self.aggregator.update_window(self.node_id, self.window.points)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def handle_packet(self, node: SimNode, packet: Packet) -> bool:
        if packet.destination != self.node_id:
            return False
        payload = packet.payload
        if isinstance(payload, WindowUpload):
            self.uploads_received += 1
            self.aggregator.update_window(payload.origin, payload.points)
            ack = Acknowledgement(
                origin=self.node_id,
                round_index=payload.round_index,
                acknowledges="upload",
            )
            self.routing.send_data(
                Packet(
                    kind=PacketKind.APP_ACK,
                    source=self.node_id,
                    destination=payload.origin,
                    size_bytes=ACK_SIZE_BYTES,
                    payload=ack,
                )
            )
            return True
        if isinstance(payload, Acknowledgement):
            return True
        return False

    # ------------------------------------------------------------------
    # Periodic outlier publication (scheduled by the runner once per round)
    # ------------------------------------------------------------------
    def publish_outliers(self) -> None:
        """Compute the global outliers and unicast them to every sensor."""
        self.last_outliers = self.aggregator.compute_outliers()
        reply = OutlierReply(
            round_index=self.round_index,
            outliers=tuple(self.last_outliers),
        )
        for destination in self.aggregator.reporting_nodes:
            if destination == self.node_id:
                continue
            packet = Packet(
                kind=PacketKind.APP_DATA,
                source=self.node_id,
                destination=destination,
                size_bytes=reply.wire_size(),
                payload=reply,
            )
            self.replies_sent += 1
            self.routing.send_data(packet)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def estimate(self) -> List[DataPoint]:
        return list(self.last_outliers)
