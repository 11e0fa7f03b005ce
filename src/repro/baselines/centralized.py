"""Centralized outlier detection (the paper's comparison baseline).

In the centralized configuration every sensor periodically ships its entire
sliding-window contents to a single collection point (the *sink*), which
computes the top-n outliers over the union of all windows and sends the
result back to the sensors.  The transport (multi-hop AODV routing with
end-to-end acknowledgements) lives in :mod:`repro.wsn.centralized_app`; this
module holds the transport-free aggregation logic so it can also be used as
an offline reference implementation.

Although each upload *replaces* a sensor's stored window wholesale, the
windows slide by one or two samples per round, so the aggregator diffs the
old and new contents and maintains a reference-counted
:class:`~repro.core.index.NeighborhoodIndex` over the union incrementally:
per round the sink pays ``O(Δ · N)`` for the few points that actually
entered or left the union instead of an ``O(N² · d)`` rebuild at every
outlier computation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set

from ..core.batch import EventBatch
from ..core.index import NeighborhoodIndex
from ..core.outliers import OutlierQuery
from ..core.points import DataPoint
from ..core.rescoring import ScoreCache

__all__ = ["CentralizedAggregator"]


class CentralizedAggregator:
    """Sink-side state of the centralized baseline.

    The aggregator keeps the most recent window reported by every sensor and
    recomputes the global outlier set on demand.  The union of all windows
    is mirrored in an incremental neighborhood index, and each window
    upload's diff reaches it as one :class:`~repro.core.batch.EventBatch`.
    """

    def __init__(self, query: OutlierQuery) -> None:
        self.query = query
        self._windows: Dict[int, Set[DataPoint]] = {}
        #: Number of reporting windows containing each union point; a point
        #: enters the index on 0 -> 1 and leaves it on 1 -> 0.
        self._multiplicity: Counter = Counter()
        self._index = NeighborhoodIndex(metric=query.ranking.metric)
        # Dirty-set rescoring over the union: the per-round outlier
        # publication becomes a tail read of the maintained (score, ≺) order
        # instead of a full rescore of every reported window.
        self._cache: Optional[ScoreCache] = ScoreCache.if_supported(
            self._index, query.ranking
        )
        self.updates_received = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_window(self, node_id: int, points: Iterable[DataPoint]) -> None:
        """Replace the stored window of ``node_id`` with ``points``.

        Only the symmetric difference against the previously stored window
        touches the union bookkeeping and the index.
        """
        fresh = {p for p in points}
        previous = self._windows.get(int(node_id), set())
        self._windows[int(node_id)] = fresh
        batch = EventBatch()
        for point in fresh - previous:
            self._multiplicity[point] += 1
            if self._multiplicity[point] == 1:
                batch.adds.append(point)
        for point in previous - fresh:
            self._release(point, batch)
        if batch:
            self._index.apply_batch(batch)
        self.updates_received += 1

    def forget(self, node_id: int) -> None:
        """Drop a sensor's contribution (e.g. when it leaves the network)."""
        previous = self._windows.pop(int(node_id), None)
        if previous:
            batch = EventBatch()
            for point in previous:
                self._release(point, batch)
            if batch:
                self._index.apply_batch(batch)

    def _release(self, point: DataPoint, batch: EventBatch) -> None:
        remaining = self._multiplicity[point] - 1
        if remaining > 0:
            self._multiplicity[point] = remaining
        else:
            del self._multiplicity[point]
            batch.evicts.append(point)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def reporting_nodes(self) -> List[int]:
        """Sensors that have reported at least one window."""
        return sorted(self._windows)

    def union(self) -> Set[DataPoint]:
        """The union of the most recent windows of every reporting sensor."""
        return set(self._multiplicity)

    def window_of(self, node_id: int) -> Set[DataPoint]:
        return set(self._windows.get(int(node_id), set()))

    def compute_outliers(self) -> List[DataPoint]:
        """``O_n`` over the union of all reported windows (ordered)."""
        cache = self._cache
        if cache is not None and not cache.degraded:
            return cache.top_n(self.query.n)
        return self.query.outliers(self.union(), index=self._index)

    def total_points(self) -> int:
        """Number of distinct points currently known to the sink."""
        return len(self._multiplicity)
