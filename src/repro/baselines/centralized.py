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
union in fixed slots, which it brings up to date lazily: uploads touch only
the counts, and each outlier computation first applies the union's net
change since the previous one.  A departed point's slot gets an ``+inf``
row and column and joins a free list; the arrivals fill free slots, and the
matrix grows only past the largest union seen.  Per publication the sink
computes distances only for the few points that entered the union (about
one per sensor), scores every slot from the matrix with the ranking's
``scores_from_distances`` -- the kernel the brute-force oracle runs on a
fresh matrix, which counts ``+inf`` entries as non-neighbors -- and takes
the top ``n`` occupied slots by ``(score, ≺)``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..core.errors import RankingError
from ..core.outliers import OutlierQuery
from ..core.points import DataPoint, RestKey, sort_key
from ..core.ranking import _BUILTIN_RANKINGS

__all__ = ["CentralizedAggregator"]


class CentralizedAggregator:
    """Sink-side state of the centralized baseline.

    The aggregator keeps the most recent window reported by every sensor and
    recomputes the global outlier set on demand, from a slotted distance
    matrix over the union that :meth:`compute_outliers` synchronises first.

    Deferring the matrix writes is exact: at query time the occupied slots
    hold exactly the union's points, their entries are the floats the
    metric's kernels give each pair, and every free row and column is
    ``+inf``, which no ranking counts as a neighbor.  The union holds one
    copy per observation, so ``(score, ≺)`` has no full ties and the slot
    order never reaches an output.
    """

    def __init__(self, query: OutlierQuery) -> None:
        self.query = query
        self._windows: Dict[int, Set[DataPoint]] = {}
        #: Number of reporting windows containing each union point; a point
        #: enters the matrix on 0 -> 1 and leaves it on 1 -> 0.
        self._multiplicity: Counter = Counter()
        #: The point in each slot (``None`` when free), the key map from
        #: each held point's ``≺`` key to its slot, the free slots, and the
        #: slots' pairwise distances: ``+inf`` on the diagonal and in every
        #: free row and column.
        self._points: List[Optional[DataPoint]] = []
        self._slot_of: Dict[RestKey, int] = {}
        self._free: List[int] = []
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

        A point that entered and left the union between two queries never
        reaches the matrix, and an arrival that would be a second copy of a
        held observation raises :class:`~repro.core.errors.RankingError`
        before any slot changes.  Then each departed point's slot gets an
        ``+inf`` row and column and joins the free list, and the arrivals
        take free slots (the matrix grows by the rest) and get their
        distances from one ``cross`` against the held points and one
        ``pairwise`` among themselves, written in place.
        """
        union = self._multiplicity
        points = self._points
        slot_of = self._slot_of
        held = set(points)
        arrivals = [point for point in union if point not in held]
        departed = [
            (key, slot) for key, slot in slot_of.items() if points[slot] not in union
        ]
        if not arrivals and not departed:
            return
        fresh_keys = [sort_key(point) for point in arrivals]
        seen = set()
        for point, key in zip(arrivals, fresh_keys):
            slot = slot_of.get(key)
            if key in seen or (slot is not None and points[slot] in union):
                raise RankingError(
                    f"{point!r} would be a second copy of its observation; "
                    f"the sink holds one copy per observation"
                )
            seen.add(key)
        matrix = self._distances
        free = self._free
        if departed:
            gone = [slot for _, slot in departed]
            matrix[gone, :] = np.inf
            matrix[:, gone] = np.inf
            for key, slot in departed:
                del slot_of[key]
                points[slot] = None
            free.extend(gone)
        if not arrivals:
            return
        kept = list(slot_of.values())
        slots = [free.pop() for _ in range(min(len(arrivals), len(free)))]
        if len(slots) < len(arrivals):
            size = len(points)
            capacity = size + len(arrivals) - len(slots)
            grown = np.full((capacity, capacity), np.inf)
            grown[:size, :size] = matrix
            self._distances = matrix = grown
            slots.extend(range(size, capacity))
            points.extend([None] * (capacity - size))
        metric = self.query.ranking.metric
        values = [point.values for point in arrivals]
        block = metric.cross(values, [points[slot].values for slot in kept])
        matrix[np.ix_(slots, kept)] = block
        matrix[np.ix_(kept, slots)] = block.T
        among = metric.pairwise(values)
        np.fill_diagonal(among, np.inf)
        matrix[np.ix_(slots, slots)] = among
        for point, key, slot in zip(arrivals, fresh_keys, slots):
            points[slot] = point
            slot_of[key] = slot

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
        slot_of = self._slot_of
        slots = slot_of.values()
        top = heapq.nlargest(
            self.query.n, zip(map(scores.__getitem__, slots), slot_of, slots)
        )
        return [self._points[slot] for _, _, slot in top]

    def total_points(self) -> int:
        """Number of distinct points currently known to the sink."""
        return len(self._multiplicity)
