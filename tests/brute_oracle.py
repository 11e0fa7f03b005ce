"""Brute-force oracles for the lockstep suites.

The production detectors (:class:`~repro.core.GlobalOutlierDetector`,
:class:`~repro.core.SemiGlobalOutlierDetector`) keep an incremental
:class:`~repro.core.index.NeighborhoodIndex`, dirty-set rescoring caches
and per-event memos, and they skip work they can prove redundant; the
centralized sink's
:class:`~repro.baselines.centralized.CentralizedAggregator` keeps a
distance matrix over the union that it updates by the union's net change.
The classes here keep none of that: every event recomputes ``O_n(P_i)``,
the supports and each neighbor's eq. 2 fixpoint through the index-free
paths of the query layer, the sink oracle builds a fresh matrix over the
union on every query, and the global oracle reruns the fixpoint even on a
delivery of points it already holds.  The lockstep suites drive a
production object and its oracle through identical event streams and
require identical messages, holdings and estimates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.core import (
    DataPoint,
    OutlierDetector,
    OutlierMessage,
    OutlierQuery,
    compute_sufficient_set,
)
from repro.core.errors import ProtocolError
from repro.core.points import RestKey, sort_key


class BruteGlobalDetector(OutlierDetector):
    """Algorithm 1, recomputed from scratch on every event."""

    def __init__(
        self, sensor_id: int, query: OutlierQuery, neighbors: Iterable[int] = ()
    ) -> None:
        super().__init__(sensor_id, query, neighbors)
        self._local: Set[DataPoint] = set()
        self._holdings: Set[DataPoint] = set()
        self._sent: Dict[int, Set[DataPoint]] = {j: set() for j in self._neighbors}
        self._received: Dict[int, Set[DataPoint]] = {j: set() for j in self._neighbors}

    @property
    def holdings(self) -> Set[DataPoint]:
        return set(self._holdings)

    @property
    def local_data(self) -> Set[DataPoint]:
        return set(self._local)

    def sent_to(self, neighbor: int) -> Set[DataPoint]:
        return set(self._sent.get(neighbor, set()))

    def received_from(self, neighbor: int) -> Set[DataPoint]:
        return set(self._received.get(neighbor, set()))

    def initialize(self) -> Optional[OutlierMessage]:
        return self._process()

    def add_local_points(self, points):
        return self.update_local_data(points, ())

    def evict_points(self, points):
        return self.update_local_data((), points)

    def update_local_data(self, added, evicted) -> Optional[OutlierMessage]:
        removal = set(evicted)
        changed = bool(removal & self._holdings)
        self._holdings -= removal
        self._local -= removal
        for bucket in (*self._sent.values(), *self._received.values()):
            bucket -= removal
        for point in added:
            if point not in self._holdings:
                self._local.add(point)
                self._holdings.add(point)
                changed = True
        return self._process() if changed else None

    def handle_message(self, sender, points) -> Optional[OutlierMessage]:
        if sender not in self._neighbors:
            raise ProtocolError(f"points from non-neighbor {sender}")
        delivered = list(points)
        if not delivered:
            return None
        for point in delivered:
            if point not in self._holdings:
                self._holdings.add(point)
                self._received[sender].add(point)
        return self._process()

    def neighborhood_changed(self, neighbors) -> Optional[OutlierMessage]:
        new_neighbors = {int(j) for j in neighbors}
        if new_neighbors == self._neighbors:
            return None
        for gone in self._neighbors - new_neighbors:
            del self._sent[gone], self._received[gone]
        for fresh in new_neighbors - self._neighbors:
            self._sent[fresh] = set()
            self._received[fresh] = set()
        self._neighbors = new_neighbors
        return self._process()

    def _process(self) -> Optional[OutlierMessage]:
        holdings = list(self._holdings)
        payloads = {}
        for neighbor in sorted(self._neighbors):
            shared = self._sent[neighbor] | self._received[neighbor]
            to_send = compute_sufficient_set(self.query, holdings, shared) - shared
            if to_send:
                payloads[neighbor] = frozenset(to_send)
                self._sent[neighbor] |= to_send
        return OutlierMessage(self.sensor_id, payloads) if payloads else None


class BruteSemiGlobalDetector(OutlierDetector):
    """Algorithm 2 (both variants), recomputed from scratch on every event."""

    def __init__(
        self,
        sensor_id: int,
        query: OutlierQuery,
        hop_diameter: int,
        neighbors: Iterable[int] = (),
        variant: str = "refined",
    ) -> None:
        super().__init__(sensor_id, query, neighbors)
        self.hop_diameter = hop_diameter
        self.variant = variant
        self._local: Dict[RestKey, DataPoint] = {}
        self._holdings: Dict[RestKey, DataPoint] = {}
        self._sent: Dict[int, Dict[RestKey, DataPoint]] = {
            j: {} for j in self._neighbors
        }
        self._received: Dict[int, Dict[RestKey, DataPoint]] = {
            j: {} for j in self._neighbors
        }

    @property
    def holdings(self) -> Set[DataPoint]:
        return set(self._holdings.values())

    @property
    def local_data(self) -> Set[DataPoint]:
        return set(self._local.values())

    def initialize(self) -> Optional[OutlierMessage]:
        return self._process()

    def add_local_points(self, points):
        return self.update_local_data(points, ())

    def evict_points(self, points):
        return self.update_local_data((), points)

    def update_local_data(self, added, evicted) -> Optional[OutlierMessage]:
        keys = {point.rest for point in evicted}
        changed = False
        for key in keys:
            if self._holdings.pop(key, None) is not None:
                self._local.pop(key, None)
                changed = True
        for bucket in (*self._sent.values(), *self._received.values()):
            for key in keys:
                bucket.pop(key, None)
        for point in added:
            previous = self._holdings.get(point.rest)
            if previous is None or previous.hop > 0:
                self._local[point.rest] = point
                self._holdings[point.rest] = point
                changed = True
        return self._process() if changed else None

    def handle_message(self, sender, points) -> Optional[OutlierMessage]:
        if sender not in self._neighbors:
            raise ProtocolError(f"points from non-neighbor {sender}")
        changed = False
        for point in points:
            current = self._holdings.get(point.rest)
            if current is None or point.hop < current.hop:
                self._holdings[point.rest] = point
                _keep_min_hop(self._received[sender], point)
                changed = True
        return self._process() if changed else None

    def neighborhood_changed(self, neighbors) -> Optional[OutlierMessage]:
        new_neighbors = {int(j) for j in neighbors}
        if new_neighbors == self._neighbors:
            return None
        for gone in self._neighbors - new_neighbors:
            del self._sent[gone], self._received[gone]
        for fresh in new_neighbors - self._neighbors:
            self._sent[fresh] = {}
            self._received[fresh] = {}
        self._neighbors = new_neighbors
        return self._process()

    def _process(self) -> Optional[OutlierMessage]:
        levels = [
            [p for p in self._holdings.values() if p.hop <= level]
            for level in range(self.hop_diameter)
        ]
        payloads = {}
        for neighbor in sorted(self._neighbors):
            outgoing = self._outgoing(neighbor, levels)
            if outgoing:
                payloads[neighbor] = frozenset(outgoing)
                for point in outgoing:
                    _keep_min_hop(self._sent[neighbor], point)
        return OutlierMessage(self.sensor_id, payloads) if payloads else None

    def _outgoing(
        self, neighbor: int, levels: List[List[DataPoint]]
    ) -> List[DataPoint]:
        sent, received = self._sent[neighbor], self._received[neighbor]
        known = [*sent.values(), *received.values()]
        merged: Set[DataPoint] = set()
        for level, holdings in enumerate(levels):
            if not holdings:
                continue
            if self.variant == "paper":
                visible = [p for p in known if p.hop <= level]
            else:
                visible = known
            merged |= compute_sufficient_set(
                self.query, holdings, self._canonical(visible)
            )
        # A point is forwarded at hop + 1, unless the neighbor is already
        # known to hold it at that hop or less.
        outgoing = []
        for point in merged:
            copies = (sent.get(point.rest), received.get(point.rest))
            hops = [copy.hop for copy in copies if copy is not None]
            if not hops or min(hops) > point.hop + 1:
                outgoing.append(point.incremented())
        return outgoing

    def _canonical(self, points: Iterable[DataPoint]) -> List[DataPoint]:
        """The held copy of each observation, else its smallest-hop copy."""
        best: Dict[RestKey, DataPoint] = {}
        for point in points:
            candidate = self._holdings.get(point.rest, point)
            current = best.get(point.rest)
            if current is None or candidate.hop < current.hop:
                best[point.rest] = candidate
        return list(best.values())


def _keep_min_hop(bucket: Dict[RestKey, DataPoint], point: DataPoint) -> None:
    current = bucket.get(point.rest)
    if current is None or point.hop < current.hop:
        bucket[point.rest] = point


class BruteAggregator:
    """The centralized sink's state: the latest window of every sensor,
    with ``O_n`` recomputed over their union on every query."""

    def __init__(self, query: OutlierQuery) -> None:
        self.query = query
        self._windows: Dict[int, Set[DataPoint]] = {}

    def update_window(self, node_id: int, points: Iterable[DataPoint]) -> None:
        self._windows[int(node_id)] = set(points)

    def forget(self, node_id: int) -> None:
        self._windows.pop(int(node_id), None)

    def union(self) -> Set[DataPoint]:
        return set().union(*self._windows.values())

    def compute_outliers(self) -> List[DataPoint]:
        return self.query.outliers(self.union())

    def total_points(self) -> int:
        return len(self.union())


def assert_sink_slots_are_pairwise(sink) -> None:
    """The slot layout of a synced
    :class:`~repro.baselines.centralized.CentralizedAggregator`.

    The occupied slots hold one copy of every union point, and the key map
    sends each one's ``≺`` key to its slot.  The free list holds every
    other slot, once.  The occupied slots' submatrix, in slot order, is
    exactly ``metric.pairwise`` over their points with a ``+inf``
    diagonal, bit for bit, and every free row and column is ``+inf``.
    """
    points = sink._points
    occupied = [slot for slot, point in enumerate(points) if point is not None]
    held = [points[slot] for slot in occupied]
    assert len(held) == sink.total_points() and set(held) == sink.union()
    assert sink._slot_of == {sort_key(points[slot]): slot for slot in occupied}
    free = sink._free
    assert sorted(free) == [slot for slot, point in enumerate(points) if point is None]
    matrix = sink._distances
    assert matrix.shape == (len(points), len(points))
    expected = sink.query.ranking.metric.pairwise([point.values for point in held])
    np.fill_diagonal(expected, np.inf)
    occupied_block = matrix[np.ix_(occupied, occupied)]
    assert np.array_equal(occupied_block.view(np.int64), expected.view(np.int64))
    assert (matrix[free, :] == np.inf).all() and (matrix[:, free] == np.inf).all()
