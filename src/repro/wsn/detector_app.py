"""Application layer binding a distributed detector to a simulated node.

The :class:`DistributedDetectorApp` is what runs "on the mote" for the
Global-NN / Global-KNN / Semi-global configurations: it maintains the local
sliding window, feeds sampling and eviction events to the sans-IO detector,
wraps the detector's outgoing :class:`~repro.core.messages.OutlierMessage`
into broadcast packets (with a small random jitter so neighbors do not key up
simultaneously), and feeds received packets back into the detector.

Each sampling tick is delivered to the detector as *one* data-change event
(``update_local_data(added, expired)`` -- all of the tick's expirations plus
the fresh reading together), which is exactly the grouping the detectors
turn into one :class:`~repro.core.batch.EventBatch` per event: a
steady-state tick is a tiny batch, while crash resets (whole window evicted
at once) and window slides that expire points received from neighbors form
the large eviction batches the index strips in one pass.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.interfaces import OutlierDetector
from ..core.messages import OutlierMessage
from ..core.points import DataPoint
from ..core.sliding_window import SlidingWindow
from ..network.node import SimNode
from ..network.packet import BROADCAST_ADDRESS, Packet, PacketKind
from ..simulator.rng import RandomStreams

__all__ = ["DistributedDetectorApp"]


class DistributedDetectorApp:
    """Per-node application running the in-network detection protocol."""

    def __init__(
        self,
        node: SimNode,
        detector: OutlierDetector,
        window_length: float,
        broadcast_jitter: float = 0.05,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.node = node
        self.detector = detector
        self.window = SlidingWindow(window_length)
        self.broadcast_jitter = float(broadcast_jitter)
        self._rng = (streams or RandomStreams(node.node_id)).stream(
            f"app-{node.node_id}"
        )
        self.rounds_processed = 0
        self.packets_broadcast = 0
        node.add_handler(self.handle_packet)

    # ------------------------------------------------------------------
    # Sampling (driven by the runner's periodic schedule)
    # ------------------------------------------------------------------
    def sample(self, point: DataPoint) -> None:
        """Process one sampling round: expire old points, add the new one."""
        now = point.timestamp
        cutoff = self.window.cutoff(now)
        added, _local_expired = self.window.slide(now, [point])
        # The paper's window rule deletes *every* held point that fell out of
        # the window, regardless of where it originated.
        expired = self.detector.expired_holdings(cutoff)
        message = self.detector.update_local_data(added, expired)
        self.rounds_processed += 1
        self._broadcast(message)

    # ------------------------------------------------------------------
    # Fault model
    # ------------------------------------------------------------------
    def crash_reset(self) -> None:
        """Reboot after a crash: RAM is gone, so the sliding window, the
        detector's holdings and the per-link shared-knowledge bookkeeping
        are all cleared.

        The eviction goes through the detector's regular data-change event
        (so indexes and score caches stay consistent) and the neighborhood
        is emptied, but no message is broadcast -- a rebooting mote has
        nothing to say.  Repair happens through the protocol's own
        neighborhood-change event (iv): the fault runtime re-announces the
        links, which resets shared knowledge on both sides and triggers the
        re-negotiation the paper prescribes for churn.
        """
        self.window = SlidingWindow(self.window.length)
        expired = self.detector.expired_holdings(float("inf"))
        if expired:
            self.detector.update_local_data([], expired)
        self.detector.neighborhood_changed(())

    def neighborhood_changed(self, neighbors) -> None:
        """Protocol event (iv): the live immediate neighborhood changed.

        Delivered by the fault runtime when a neighbor crashes, sleeps or
        comes back (idealised link-layer failure detection).  The detector's
        repair message, if any, is broadcast like any other reply.
        """
        self._broadcast(self.detector.neighborhood_changed(neighbors))

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def handle_packet(self, node: SimNode, packet: Packet) -> bool:
        if packet.kind != PacketKind.APP_BROADCAST:
            return False
        message: OutlierMessage = packet.payload
        if not self.detector.is_neighbor(message.sender):
            # Under churn a packet can be in flight when its sender's link
            # is declared down; the detector would (rightly) treat points
            # from a non-neighbor as a protocol violation, so the stale
            # packet is dropped at the application boundary instead.
            return True
        reply = self.detector.receive(message)
        self._broadcast(reply)
        return True

    def _broadcast(self, message: Optional[OutlierMessage]) -> None:
        if message is None or message.is_empty():
            return
        packet = Packet(
            kind=PacketKind.APP_BROADCAST,
            source=self.node.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=message.wire_size_bytes(),
            payload=message,
        )
        self.packets_broadcast += 1
        delay = self._rng.uniform(0.0, self.broadcast_jitter)
        self.node.simulator.schedule(delay, self.node.broadcast, packet)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def estimate(self) -> List[DataPoint]:
        """The node's current outlier estimate."""
        return self.detector.estimate()

    @property
    def node_id(self) -> int:
        return self.node.node_id
