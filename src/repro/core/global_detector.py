"""Global distributed outlier detection (Algorithm 1 of the paper).

Every sensor ``p_i`` runs the same event-driven protocol and converges to the
exact global answer ``O_n(D)`` where ``D = ∪_i D_i``, provided the network is
connected and data/links eventually stop changing (Theorems 1 and 2).

State kept by each sensor:

* ``D_i``            -- the points sampled locally (``local_data``),
* ``P_i``            -- every point the sensor holds (``holdings``),
* ``D_{i,j}``        -- per neighbor ``j``: points sent to ``j`` (``_sent``),
* ``D_{j,i}``        -- per neighbor ``j``: points received from ``j``
  (``_received``).

Both bookkeeping sets hold index slot ids: every recorded point is held, so
each names the slot of its held copy.

On every event the sensor recomputes, for each neighbor, a *sufficient set*
``Z_j`` (see :mod:`repro.core.sufficient`), transmits the part of it the
neighbor is not already known to hold, and records the transmission in
``D_{i,j}``.  When no sensor has anything left to send, all estimates agree
and equal the correct answer.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set

from .batch import EventBatch
from .errors import ProtocolError
from .index import NeighborhoodIndex
from .interfaces import OutlierDetector
from .messages import OutlierMessage
from .outliers import OutlierQuery
from .points import DataPoint
from .rescoring import ScoreCache
from .sufficient import SlotFixpoint, index_free_fixpoint
# perfbench's tracer patches these two names in this module.
from .sufficient import compute_sufficient_set  # noqa: F401
from .support import support_of_set  # noqa: F401

__all__ = ["GlobalOutlierDetector"]


class GlobalOutlierDetector(OutlierDetector):
    """Sans-IO implementation of the paper's Algorithm 1.

    Parameters
    ----------
    sensor_id:
        Identifier of this sensor.
    query:
        The ``(R, n)`` outlier query, shared by every sensor in the network.
    neighbors:
        Initial immediate neighborhood ``Γ_i``.

    The detector owns a :class:`~repro.core.index.NeighborhoodIndex` over
    ``P_i``.  Each protocol event's additions and evictions reach it as one
    :class:`~repro.core.batch.EventBatch`
    (:meth:`~repro.core.index.NeighborhoodIndex.apply_batch`), and every
    estimate, support-set and sufficient-set computation runs against its
    cached sorted-neighbor lists.

    Examples
    --------
    >>> from repro.core import (GlobalOutlierDetector, OutlierQuery,
    ...                         NearestNeighborDistance, make_point)
    >>> query = OutlierQuery(NearestNeighborDistance(), n=1)
    >>> a = GlobalOutlierDetector(0, query, neighbors=[1])
    >>> b = GlobalOutlierDetector(1, query, neighbors=[0])
    >>> _ = a.add_local_points([make_point([0.5], 0, 0), make_point([3.0], 0, 1)])
    >>> msg = a.initialize()
    >>> sorted(p.values[0] for p in msg.payload_for(1))
    [0.5, 3.0]
    """

    def __init__(
        self,
        sensor_id: int,
        query: OutlierQuery,
        neighbors: Iterable[int] = (),
    ) -> None:
        super().__init__(sensor_id, query, neighbors)
        self._local: Set[DataPoint] = set()
        self._holdings: Set[DataPoint] = set()
        # D_{i,j} and D_{j,i} as slots of the held copies.
        self._sent: Dict[int, Set[int]] = {j: set() for j in self._neighbors}
        self._received: Dict[int, Set[int]] = {j: set() for j in self._neighbors}
        # The index must sort its neighbor lists under the same metric the
        # query's ranking function scores in.
        self._index = NeighborhoodIndex(metric=query.ranking.metric)
        # Dirty-set rescoring over the whole index: P_i mirrors the index
        # exactly, so the per-event estimate is a tail read of the cache's
        # maintained (score, ≺) order instead of a full rescore.  Rankings
        # without a frontier structure leave the cache unsupported and the
        # legacy full path is used.
        self._cache: Optional[ScoreCache] = ScoreCache.if_supported(
            self._index, query.ranking
        )

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def holdings(self) -> Set[DataPoint]:
        return set(self._holdings)

    @property
    def local_data(self) -> Set[DataPoint]:
        return set(self._local)

    def sent_to(self, neighbor: int) -> Set[DataPoint]:
        """``D_{i,j}``: the points this sensor has sent to ``neighbor``."""
        return set(map(self._index.point_at, self._sent.get(neighbor, ())))

    def received_from(self, neighbor: int) -> Set[DataPoint]:
        """``D_{j,i}``: the points this sensor has received from ``neighbor``."""
        return set(map(self._index.point_at, self._received.get(neighbor, ())))

    def known_shared_with(self, neighbor: int) -> Set[DataPoint]:
        """``D_{i,j} ∪ D_{j,i}``: points known to be common with ``neighbor``."""
        return self.sent_to(neighbor) | self.received_from(neighbor)

    # ------------------------------------------------------------------
    # Protocol events
    # ------------------------------------------------------------------
    def _apply_local_additions(
        self, points: Iterable[DataPoint], batch: EventBatch
    ) -> bool:
        added = False
        for point in points:
            if point.hop != 0:
                raise ProtocolError(
                    f"locally sampled points must have hop 0, got {point!r}"
                )
            if point not in self._holdings:
                self._local.add(point)
                self._holdings.add(point)
                batch.adds.append(point)
                self.stats.local_points_added += 1
                added = True
        return added

    def _apply_evictions(
        self, points: Iterable[DataPoint], batch: EventBatch
    ) -> bool:
        removal = set(points)
        if not removal:
            return False
        evicted = removal & self._holdings
        self._holdings -= evicted
        self._local -= evicted
        batch.evicts.extend(evicted)
        # Departed slots leave every bucket before the batch commits: the
        # same batch's additions reuse freed slots.
        slots = set(map(self._index.slot_for, evicted))
        for bucket in self._sent.values():
            bucket -= slots
        for bucket in self._received.values():
            bucket -= slots
        self.stats.points_evicted += len(evicted)
        return bool(evicted)

    def handle_message(
        self, sender: int, points: Iterable[DataPoint]
    ) -> Optional[OutlierMessage]:
        if sender not in self._neighbors:
            raise ProtocolError(
                f"sensor {self.sensor_id} received points from non-neighbor {sender}"
            )
        delivered = list(points)
        # The global algorithm forwards held points unchanged, so every
        # point on the wire was sampled at hop 0 -- and a copy of a held
        # observation at another hop would be a second copy in the index.
        for point in delivered:
            if point.hop != 0:
                raise ProtocolError(
                    f"the global algorithm only exchanges hop-0 points, "
                    f"got {point!r} from sensor {sender}"
                )
        self.stats.messages_received += 1
        if not delivered:
            return None
        # Only points not already in P_i are added to D_{j,i}; duplicates are
        # ignored exactly as in the paper's update step.
        batch = EventBatch()
        for point in delivered:
            if point in self._holdings:
                self.stats.points_ignored += 1
                continue
            self._holdings.add(point)
            batch.adds.append(point)
            self.stats.points_received += 1
        self._commit_batch(batch)
        self.stats.events_processed += 1
        if not batch.adds:
            # A delivery of points already held changes no state, and every
            # state change is followed by ``_process``.  That call left each
            # neighbor's shared set at S = S0 ∪ Z, where Z contains
            # Z0 = O_n(P) ∪ [P|O_n(P)] and [P|O_n(S0 ∪ Z)] ⊆ Z.  Rerun now,
            # the fixpoint starts from Z0 ⊆ S, so every iteration scores S
            # itself and adds only points of Z: it ends inside S and sends
            # nothing.  The test-suite's brute-force oracle still reruns the
            # fixpoint, so the transcript suites check this skip.
            return None
        # The batch has given each new point its slot.
        self._received[sender].update(map(self._index.slot_for, batch.adds))
        return self._process()

    def neighborhood_changed(
        self, neighbors: Iterable[int]
    ) -> Optional[OutlierMessage]:
        new_neighbors = self._neighbor_set(neighbors)
        if new_neighbors == self._neighbors:
            return None
        # Links that went down: the exchanged points remain held (they will
        # age out of the window naturally) but the shared-knowledge
        # bookkeeping is dropped, so if the link comes back everything
        # relevant is re-negotiated from scratch.
        for gone in self._neighbors - new_neighbors:
            self._sent.pop(gone, None)
            self._received.pop(gone, None)
        for fresh in new_neighbors - self._neighbors:
            self._sent.setdefault(fresh, set())
            self._received.setdefault(fresh, set())
        self._neighbors = new_neighbors
        self.stats.events_processed += 1
        return self._process()

    # ------------------------------------------------------------------
    # Core: the main for-loop of Algorithm 1
    # ------------------------------------------------------------------
    def _process(self) -> Optional[OutlierMessage]:
        payloads: Dict[int, frozenset] = {}
        if not self._neighbors:
            return None
        sufficient = None
        held = len(self._holdings)
        point_at = self._index.point_at
        for neighbor in sorted(self._neighbors):
            sent = self._sent[neighbor]
            # D_{i,j} ∪ D_{j,i} ⊆ P_i: every recorded point is held, since
            # evictions drop it from the buckets too.
            shared = frozenset(sent | self._received[neighbor])
            if len(shared) == held:
                # Z ⊆ P_i = shared: nothing is left to send.
                continue
            if sufficient is None:
                sufficient = self._sufficient_slots()
            unsent = sufficient(shared) - shared
            if unsent:
                payloads[neighbor] = frozenset(map(point_at, unsent))
                sent |= unsent
                self.stats.points_sent += len(unsent)
        if not payloads:
            return None
        self.stats.messages_built += 1
        return OutlierMessage(sender=self.sensor_id, payloads=payloads)

    def _sufficient_slots(self) -> Callable[[FrozenSet[int]], FrozenSet[int]]:
        """This event's eq. 2 fixpoint, from a neighbor's shared slots to
        ``Z``'s slots; :meth:`_process` builds it on the event's first run.

        P_i is exactly the index content, so with a built-in ranking the
        slot kernel starts every neighbor's run from the cache's
        ``O_n(P_i)``.  Other rankings take
        :func:`~repro.core.sufficient.index_free_fixpoint`.
        """
        cache = self._cache
        if cache is not None and SlotFixpoint.handles(self.query.ranking):
            estimate = cache.top_slots(self.query.n)
            return SlotFixpoint(self.query, self._index, None, estimate, {}).run
        return partial(
            index_free_fixpoint, self.query, self._index, list(self._holdings)
        )
