"""Abstract interface shared by the distributed outlier detectors.

Both :class:`~repro.core.global_detector.GlobalOutlierDetector` and
:class:`~repro.core.semiglobal_detector.SemiGlobalOutlierDetector` are
*sans-IO* protocol state machines: they never touch a network or a clock.
Every public method corresponds to one of the four event types of the paper
(initialisation, local data change, message reception, neighborhood change)
and returns either an :class:`~repro.core.messages.OutlierMessage` to be
broadcast or ``None`` when the sensor has nothing to say.

Keeping the protocol free of IO lets the same detector code run under the
discrete-event simulator, inside unit tests that drive events by hand, and in
the property-based convergence tests that explore arbitrary event orderings.

:class:`OutlierDetector` also holds the event template both detectors share:
events (i) and (ii) stage their index changes in one
:class:`~repro.core.batch.EventBatch`, commit it, and run the subclass's
``_process`` only when the sensor's state changed.  A subclass supplies the
hooks ``_apply_local_additions``, ``_apply_evictions`` and ``_process``,
plus the message and neighborhood events, and may follow each index
commit with ``_batch_committed``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from .batch import EventBatch
from .errors import ProtocolError
from .messages import OutlierMessage
from .outliers import OutlierQuery
from .points import DataPoint

__all__ = ["DetectorStatistics", "OutlierDetector"]


@dataclass
class DetectorStatistics:
    """Counters describing the work a detector has performed so far.

    These are protocol-level statistics (independent of any radio or energy
    model); the simulator layers its own energy accounting on top.
    """

    events_processed: int = 0
    messages_built: int = 0
    messages_received: int = 0
    points_sent: int = 0
    points_received: int = 0
    points_ignored: int = 0
    local_points_added: int = 0
    points_evicted: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view, convenient for report tables."""
        return {
            "events_processed": self.events_processed,
            "messages_built": self.messages_built,
            "messages_received": self.messages_received,
            "points_sent": self.points_sent,
            "points_received": self.points_received,
            "points_ignored": self.points_ignored,
            "local_points_added": self.local_points_added,
            "points_evicted": self.points_evicted,
        }


class OutlierDetector(ABC):
    """Common API of the global and semi-global detectors."""

    #: :class:`~repro.core.index.NeighborhoodIndex` over ``P_i``, which the
    #: shared query helpers below score against.  Both detectors set one in
    #: their constructor; ``None`` makes :meth:`estimate` a brute-force
    #: recompute.
    _index = None

    def __init__(
        self,
        sensor_id: int,
        query: OutlierQuery,
        neighbors: Iterable[int] = (),
    ) -> None:
        self.sensor_id = int(sensor_id)
        self.query = query
        self._neighbors: Set[int] = self._neighbor_set(neighbors)
        self.stats = DetectorStatistics()

    def _neighbor_set(self, neighbors: Iterable[int]) -> Set[int]:
        """``neighbors`` as a set of ids; listing this sensor raises
        :class:`~repro.core.errors.ProtocolError`."""
        result = {int(j) for j in neighbors}
        if self.sensor_id in result:
            raise ProtocolError(
                f"sensor {self.sensor_id} cannot be its own neighbor"
            )
        return result

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> Set[int]:
        """Current immediate neighborhood ``Γ_i`` (copy)."""
        return set(self._neighbors)

    def is_neighbor(self, sensor_id: int) -> bool:
        """Membership test without copying the neighbor set (hot path)."""
        return sensor_id in self._neighbors

    @property
    @abstractmethod
    def holdings(self) -> Set[DataPoint]:
        """``P_i``: every point the sensor currently holds."""

    @property
    @abstractmethod
    def local_data(self) -> Set[DataPoint]:
        """``D_i``: the points that originated at this sensor."""

    def estimate(self) -> List[DataPoint]:
        """The sensor's current outlier estimate ``O_n(P_i)`` (ordered)."""
        return self.query.outliers(self.holdings, index=self._index)

    def estimate_set(self) -> Set[DataPoint]:
        """The sensor's current outlier estimate as a set."""
        return set(self.estimate())

    # ------------------------------------------------------------------
    # Protocol events
    # ------------------------------------------------------------------
    def initialize(self) -> Optional[OutlierMessage]:
        """Event (i): the algorithm is initialised on this sensor."""
        self.stats.events_processed += 1
        return self._process()

    def add_local_points(
        self, points: Iterable[DataPoint]
    ) -> Optional[OutlierMessage]:
        """Event (ii): new locally-sampled points are appended to ``D_i``."""
        return self._local_change(points, ())

    def evict_points(self, points: Iterable[DataPoint]) -> Optional[OutlierMessage]:
        """Event (ii): points leave the sliding window and are deleted from
        ``P_i`` regardless of where they originated."""
        return self._local_change((), points)

    @abstractmethod
    def handle_message(
        self, sender: int, points: Iterable[DataPoint]
    ) -> Optional[OutlierMessage]:
        """Event (iii): the points tagged for this sensor in a neighbor's
        broadcast packet are delivered."""

    @abstractmethod
    def neighborhood_changed(
        self, neighbors: Iterable[int]
    ) -> Optional[OutlierMessage]:
        """Event (iv): a link went up or down; ``neighbors`` is the new
        immediate neighborhood ``Γ_i``."""

    def update_local_data(
        self,
        added: Iterable[DataPoint],
        evicted: Iterable[DataPoint],
    ) -> Optional[OutlierMessage]:
        """Event (ii) combined form: one sampling round both appends newly
        sampled points and expires old ones; treating the two changes as a
        single event avoids building two packets per round."""
        return self._local_change(added, evicted)

    def _local_change(
        self, added: Iterable[DataPoint], evicted: Iterable[DataPoint]
    ) -> Optional[OutlierMessage]:
        # One batch for the whole change: evictions and arrivals share a
        # single index application (apply_batch evicts first, in the order
        # staged here).
        batch = EventBatch()
        changed = self._apply_evictions(evicted, batch)
        if self._apply_local_additions(added, batch):
            changed = True
        self._commit_batch(batch)
        if not changed:
            return None
        self.stats.events_processed += 1
        return self._process()

    def _commit_batch(self, batch: EventBatch) -> None:
        if batch:
            self._index.apply_batch(batch)
            self._batch_committed(batch)

    # ------------------------------------------------------------------
    # Hooks of the event template
    # ------------------------------------------------------------------
    def _batch_committed(self, batch: EventBatch) -> None:
        """``batch`` is in the index, which has given each addition its
        slot; a subclass updates its slot-keyed state here."""

    def _apply_local_additions(
        self, points: Iterable[DataPoint], batch: EventBatch
    ) -> bool:
        """Add locally sampled points to the state and stage their index
        changes in ``batch``; True when the state changed."""
        raise NotImplementedError

    def _apply_evictions(
        self, points: Iterable[DataPoint], batch: EventBatch
    ) -> bool:
        """Drop expired points from the state and stage their index changes
        in ``batch``; True when the state changed."""
        raise NotImplementedError

    def _process(self) -> Optional[OutlierMessage]:
        """Run the algorithm's per-event loop and build its message."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def expired_holdings(self, cutoff: float) -> List[DataPoint]:
        """Held points whose timestamp is strictly below ``cutoff`` -- the
        sliding-window deletion rule of Section 5.3, applied to *every* held
        point regardless of where it originated."""
        return [p for p in self.holdings if p.timestamp < cutoff]

    def evict_older_than(self, cutoff: float) -> Optional[OutlierMessage]:
        """Evict every held point whose timestamp is strictly below
        ``cutoff`` (the sliding-window deletion rule of Section 5.3)."""
        expired = self.expired_holdings(cutoff)
        if not expired:
            return None
        return self.evict_points(expired)

    def receive(self, message: OutlierMessage) -> Optional[OutlierMessage]:
        """Deliver a full broadcast packet.

        Only the points tagged for this sensor are extracted; if there are
        none the packet is not an event and ``None`` is returned without any
        processing, exactly as the paper specifies.
        """
        payload = message.payload_for(self.sensor_id)
        if not payload:
            return None
        return self.handle_message(message.sender, payload)
