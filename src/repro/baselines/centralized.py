"""Centralized outlier detection (the paper's comparison baseline).

In the centralized configuration every sensor periodically ships its entire
sliding-window contents to a single collection point (the *sink*), which
computes the top-n outliers over the union of all windows and sends the
result back to the sensors.  The transport (multi-hop AODV routing with
end-to-end acknowledgements) lives in :mod:`repro.wsn.centralized_app`; this
module holds the transport-free aggregation logic so it can also be used as
an offline reference implementation.

Although each upload *replaces* a sensor's stored window wholesale, the
windows slide by one or two samples per round, so the aggregator keeps a
reference count per union point and mirrors the union in a
:class:`~repro.core.index.NeighborhoodIndex` that it brings up to date
lazily: uploads touch only the counts, and each outlier computation first
applies the union's net change since the previous one as a single
:class:`~repro.core.batch.EventBatch`.  Per publication the sink pays one
block write for the few points that actually entered or left the union
(about one per sensor) instead of one scalar index write per upload, or an
``O(N² · d)`` rebuild.
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
    is mirrored in an incremental neighborhood index, which
    :meth:`compute_outliers` synchronises with one
    :class:`~repro.core.batch.EventBatch` per call.

    Deferring the index writes is exact: at query time the index holds
    exactly the union, as eager per-upload writes would leave it.  Only
    slot numbers can differ, and they never reach an output: neighbor rows
    order by ``(distance, ≺ key)`` and the score cache by
    ``(score, ≺ key)``, and the index holds one copy per observation, so
    no two entries tie on both.
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
        touches the union bookkeeping; the index catches up at the next
        :meth:`compute_outliers`.
        """
        fresh = {p for p in points}
        previous = self._windows.get(int(node_id), set())
        self._windows[int(node_id)] = fresh
        for point in fresh - previous:
            self._multiplicity[point] += 1
        for point in previous - fresh:
            self._release(point)
        self.updates_received += 1

    def forget(self, node_id: int) -> None:
        """Drop a sensor's contribution (e.g. when it leaves the network)."""
        for point in self._windows.pop(int(node_id), ()):
            self._release(point)

    def _release(self, point: DataPoint) -> None:
        remaining = self._multiplicity[point] - 1
        if remaining > 0:
            self._multiplicity[point] = remaining
        else:
            del self._multiplicity[point]

    def _sync_index(self) -> None:
        """Apply the union's net change since the last query as one batch.

        Both scans walk insertion-ordered dicts, so the batch order is
        deterministic; a point that entered and left the union between two
        queries never reaches the index.
        """
        index = self._index
        union = self._multiplicity
        batch = EventBatch()
        batch.evicts.extend(p for p in index.points() if p not in union)
        batch.adds.extend(p for p in union if p not in index)
        if batch:
            index.apply_batch(batch)

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
        self._sync_index()
        cache = self._cache
        if cache is not None:
            return cache.top_n(self.query.n)
        return self.query.outliers(self.union(), index=self._index)

    def total_points(self) -> int:
        """Number of distinct points currently known to the sink."""
        return len(self._multiplicity)
