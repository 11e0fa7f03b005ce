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
reference count per union point and one pairwise distance matrix over the
union, which it brings up to date lazily: uploads touch only the counts,
and each outlier computation first applies the union's net change since
the previous one.  Per publication the sink computes distances only for the
few points that entered the union (about one per sensor), scores every
point from the matrix with the ranking's ``scores_from_distances`` -- the
kernel the brute-force oracle runs on a fresh matrix -- and takes the top
``n`` by ``(score, ≺)``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, List, Set

import numpy as np

from ..core.errors import RankingError
from ..core.outliers import OutlierQuery
from ..core.points import DataPoint, RestKey, sort_key
from ..core.ranking import _BUILTIN_RANKINGS

__all__ = ["CentralizedAggregator"]


class CentralizedAggregator:
    """Sink-side state of the centralized baseline.

    The aggregator keeps the most recent window reported by every sensor and
    recomputes the global outlier set on demand, from a distance matrix
    over the union that :meth:`compute_outliers` synchronises first.

    Deferring the matrix writes is exact: at query time the matrix holds
    the distances between exactly the union's points, each the float the
    metric's kernels give that pair, and the union holds one copy per
    observation, so ``(score, ≺)`` has no full ties and the matrix order
    never reaches an output.
    """

    def __init__(self, query: OutlierQuery) -> None:
        self.query = query
        self._windows: Dict[int, Set[DataPoint]] = {}
        #: Number of reporting windows containing each union point; a point
        #: enters the matrix on 0 -> 1 and leaves it on 1 -> 0.
        self._multiplicity: Counter = Counter()
        #: The union's points in matrix order, their ``≺`` keys, and their
        #: pairwise distances with ``+inf`` on the diagonal.
        self._points: List[DataPoint] = []
        self._keys: List[RestKey] = []
        self._distances = np.zeros((0, 0))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_window(self, node_id: int, points: Iterable[DataPoint]) -> None:
        """Replace the stored window of ``node_id`` with ``points``.

        Only the symmetric difference against the previously stored window
        touches the union bookkeeping; the matrix catches up at the next
        :meth:`compute_outliers`.
        """
        fresh = {p for p in points}
        previous = self._windows.get(int(node_id), set())
        self._windows[int(node_id)] = fresh
        for point in fresh - previous:
            self._multiplicity[point] += 1
        for point in previous - fresh:
            self._release(point)

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

    def _sync(self) -> None:
        """Apply the union's net change since the last query to the matrix.

        The points still in the union keep their rows and columns (one
        gather); the arrivals are appended in the union's insertion order,
        so the matrix order is deterministic.  A point that entered and left
        the union between two queries never reaches the matrix, and an
        arrival that would be a second copy of a held observation raises
        :class:`~repro.core.errors.RankingError` before anything changes.
        """
        union = self._multiplicity
        points = self._points
        kept = [i for i, point in enumerate(points) if point in union]
        held = set(points)
        arrivals = [point for point in union if point not in held]
        if not arrivals and len(kept) == len(points):
            return
        keys = [self._keys[i] for i in kept]
        fresh_keys = [sort_key(point) for point in arrivals]
        seen = set(keys)
        for point, key in zip(arrivals, fresh_keys):
            if key in seen:
                raise RankingError(
                    f"{point!r} would be a second copy of its observation; "
                    f"the sink holds one copy per observation"
                )
            seen.add(key)
        survivors = [points[i] for i in kept]
        size = len(kept)
        matrix = np.empty((size + len(arrivals),) * 2)
        matrix[:size, :size] = self._distances[np.ix_(kept, kept)]
        if arrivals:
            metric = self.query.ranking.metric
            values = [point.values for point in arrivals]
            block = metric.cross(values, [point.values for point in survivors])
            matrix[size:, :size] = block
            matrix[:size, size:] = block.T
            among = metric.pairwise(values)
            np.fill_diagonal(among, np.inf)
            matrix[size:, size:] = among
        self._points = survivors + arrivals
        self._keys = keys + fresh_keys
        self._distances = matrix

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
        self._sync()
        ranking = self.query.ranking
        if type(ranking) not in _BUILTIN_RANKINGS:
            return self.query.outliers(self.union())
        scores = ranking.scores_from_distances(self._distances)
        top = heapq.nlargest(
            self.query.n, zip(scores, self._keys, range(len(scores)))
        )
        return [self._points[position] for _, _, position in top]

    def total_points(self) -> int:
        """Number of distinct points currently known to the sink."""
        return len(self._multiplicity)
