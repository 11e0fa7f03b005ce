"""Semi-global ("localized") distributed outlier detection (Algorithm 2).

Each sensor ``p_i`` converges to ``O_n(D_i^{<=d})``: the top-n outliers over
the data sampled by sensors within *hop distance* ``d`` of ``p_i`` (``d`` is
the ``epsilon`` of the paper's plots).  Setting ``d = ∞`` recovers the global
algorithm.

Every data point carries a ``hop`` field, set to 0 at birth and incremented
each time the point is forwarded.  A sensor partitions its holdings by hop
level and, for each neighbor, runs the sufficient-set computation of the
global algorithm *per hop level* ``h = 0 .. d-1`` (a point at hop ``h`` may
still influence sensors up to ``d - h`` hops away, so only levels below ``d``
may propagate further).  The per-level sets are merged with the ``[·]^min``
operator (keep the smallest hop per distinct point) and filtered against what
the neighbor is already known to hold at an equal-or-smaller hop.

So only a neighbor's *sendable* points can reach its payload: held points
below hop ``d`` that it is not known to hold at hop + 1 or less.  The
detector keeps that set per neighbor, updated where its inputs change
(index commits, arrivals, sends, evictions, link changes), and runs level
``h``'s fixpoint only until its ``Z`` holds the sendable points at hop
``<= h`` that no lower level's ``Z`` holds.

Each sensor's estimate ``O_n(P_i)`` is taken over everything it holds, i.e.
over points that originated at most ``d`` hops away.

Unlike the global algorithm, the paper gives no exactness theorem for the
semi-global variant, and indeed exact convergence to ``O_n(D_i^{<=d})`` is
not always attainable: a point originating ``d`` hops away from ``p_i`` may
need to be refuted by data the refuting sensor can never learn ``p_i`` holds
(the refutation would have to travel further than the hop budget allows the
triggering point to be advertised).  The algorithm is therefore a
communication-efficient heuristic; the paper reports (and our accuracy
experiments confirm) that on spatially-correlated sensor data over
reasonably dense topologies the estimates are correct for the vast majority
of sensors, while the worst cases occur on sparse chain-like topologies.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from .batch import EventBatch
from .errors import ConfigurationError, ProtocolError
from .index import NeighborhoodIndex
from .interfaces import OutlierDetector
from .messages import OutlierMessage
from .outliers import OutlierQuery
from .points import DataPoint, RestKey
from .rescoring import ScoreCache
from .sufficient import SlotFixpoint, index_free_fixpoint
# perfbench's tracer patches these two names in this module.
from .sufficient import compute_sufficient_set  # noqa: F401
from .support import support_of_set  # noqa: F401

__all__ = ["SemiGlobalOutlierDetector"]

#: The recorded hop of a point the neighbor is not known to hold.
_UNKNOWN = float("inf")


class SemiGlobalOutlierDetector(OutlierDetector):
    """Sans-IO implementation of the paper's Algorithm 2.

    Parameters
    ----------
    sensor_id:
        Identifier of this sensor.
    query:
        The ``(R, n)`` outlier query, shared by every sensor in the network.
    hop_diameter:
        The spatial extent ``d`` (``epsilon``): outliers are computed over the
        data of sensors at hop distance at most ``d``.
    neighbors:
        Initial immediate neighborhood ``Γ_i``.
    variant:
        ``"refined"`` (default) or ``"paper"``.  The paper's pseudo-code
        restricts the shared-knowledge set ``D_{i,j} ∪ D_{j,i}`` of the
        level-``h`` sufficiency fixpoint to entries whose *recorded* hop is at
        most ``h``.  Recorded hops are always at least 1 (points are
        incremented before they are recorded as sent, and arrive already
        incremented), so at the lowest levels that restriction leaves the
        shared set empty and the fixpoint can never ask a sensor to forward
        the points that would refute a neighbor's wrong estimate.  The
        ``"refined"`` variant keeps the per-level candidate generation (a
        point at hop ``h`` is still only forwarded by levels ``>= h``) but
        lets the fixpoint see the whole shared set, which restores the
        refutation path and markedly improves accuracy at no change in
        message complexity.  ``"paper"`` reproduces the literal pseudo-code.

    The detector maintains an incremental
    :class:`~repro.core.index.NeighborhoodIndex` over its holdings.  The
    ``[·]^min`` merge is index-aware: replacing a held copy by a smaller-hop
    copy of the same observation relabels the index slot in ``O(1)`` without
    invalidating any cached distance (the geometry only depends on the
    ``rest`` fields), and the per-hop-level estimates of Algorithm 2 become
    masked walks over the cached sorted-neighbor lists.  Each protocol
    event's additions, evictions and hop relabels reach the index as one
    :class:`~repro.core.batch.EventBatch`, so the per-hop-level rescoring
    caches see one batch mark per event instead of one per point.

    Per neighbor ``j`` the detector keeps the sendable slots: held slots
    below hop ``d`` whose recorded hop for ``j`` is unknown or above the
    slot's hop + 1.  Only these can be sent, and level ``h``'s ``Z`` lies in
    ``P_i^{<=h}``, so :meth:`_process` skips a neighbor with none and a
    level whose sendable slots at hop ``<= h`` a lower level's ``Z``
    already holds, and passes the rest to the level's fixpoint as the
    ``target`` it may stop at (:meth:`~repro.core.sufficient.SlotFixpoint.run`).
    Every payload equals the one the full fixpoints give.
    """

    VARIANTS = ("refined", "paper")

    def __init__(
        self,
        sensor_id: int,
        query: OutlierQuery,
        hop_diameter: int,
        neighbors: Iterable[int] = (),
        variant: str = "refined",
    ) -> None:
        super().__init__(sensor_id, query, neighbors)
        if hop_diameter < 1:
            raise ConfigurationError(
                f"hop_diameter must be >= 1, got {hop_diameter}"
            )
        if variant not in self.VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {self.VARIANTS}, got {variant!r}"
            )
        self.hop_diameter = int(hop_diameter)
        self.variant = variant
        # Keyed by the point's ``rest`` fields; the stored value is the copy
        # with the smallest known hop for that key.
        self._local: Dict[RestKey, DataPoint] = {}
        self._holdings: Dict[RestKey, DataPoint] = {}
        # Per neighbor, the smallest hop recorded in D_{i,j} (``_sent``, the
        # hop on the wire), in D_{j,i} (``_received``) and in their union
        # (``_known``), keyed by the index slot of the held copy: every
        # recorded observation is held, and a hop relabel keeps its slot.
        self._sent: Dict[int, Dict[int, int]] = {j: {} for j in self._neighbors}
        self._received: Dict[int, Dict[int, int]] = {
            j: {} for j in self._neighbors
        }
        self._known: Dict[int, Dict[int, int]] = {j: {} for j in self._neighbors}
        # Per neighbor, the held slots below hop d it is not known to hold
        # at hop + 1 or less: the only slots a payload to it may carry.
        self._sendable: Dict[int, Set[int]] = {j: set() for j in self._neighbors}
        # The index must sort its neighbor lists under the same metric the
        # query's ranking function scores in.
        self._index = NeighborhoodIndex(metric=query.ranking.metric)
        # One dirty-set rescoring cache per hop level: level ``h`` maintains
        # the (score, ≺) order over the sub-population with ``hop <= h``
        # together with its membership mask, so each per-level estimate of
        # Algorithm 2 is a tail read and the sufficient-set fixpoints reuse
        # the mask instead of rebuilding it per neighbor via try_subset.
        self._caches: Optional[List[ScoreCache]] = None
        caches = [
            ScoreCache.if_supported(self._index, query.ranking, max_hop=level)
            for level in range(self.hop_diameter)
        ]
        if None not in caches:
            self._caches = caches

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def holdings(self) -> Set[DataPoint]:
        return set(self._holdings.values())

    @property
    def local_data(self) -> Set[DataPoint]:
        return set(self._local.values())

    def sent_to(self, neighbor: int) -> Set[DataPoint]:
        """``D_{i,j}``: points sent to ``neighbor`` (with the hop they carried
        on the wire)."""
        return self._recorded(self._sent.get(neighbor, {}))

    def received_from(self, neighbor: int) -> Set[DataPoint]:
        """``D_{j,i}``: points received from ``neighbor``."""
        return self._recorded(self._received.get(neighbor, {}))

    def known_shared_with(self, neighbor: int) -> Set[DataPoint]:
        """``D_{i,j} ∪ D_{j,i}``: the smallest-hop recorded copy of each
        observation known to be common with ``neighbor``."""
        return self._recorded(self._known.get(neighbor, {}))

    def _recorded(self, hops: Dict[int, int]) -> Set[DataPoint]:
        point_at = self._index.point_at
        return {point_at(slot).with_hop(hop) for slot, hop in hops.items()}

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
            previous = self._holdings.get(point.rest)
            if previous is not None and previous.hop == 0:
                continue
            self._local[point.rest] = point
            self._holdings[point.rest] = point
            batch.stage_put(previous, point)
            self.stats.local_points_added += 1
            added = True
        return added

    def _apply_evictions(
        self, points: Iterable[DataPoint], batch: EventBatch
    ) -> bool:
        slots = []
        for key in {point.rest for point in points}:
            previous = self._holdings.pop(key, None)
            if previous is not None:
                self._local.pop(key, None)
                batch.evicts.append(previous)
                slots.append(self._index.slot_for(previous))
                self.stats.points_evicted += 1
        # Departed slots leave every map before the batch commits: the same
        # batch's additions reuse freed slots.
        for maps in (self._sent, self._received, self._known):
            for hops in maps.values():
                for slot in slots:
                    hops.pop(slot, None)
        for sendable in self._sendable.values():
            sendable.difference_update(slots)
        return bool(slots)

    def _batch_committed(self, batch: EventBatch) -> None:
        # A new slot or a smaller-hop relabel may become sendable to any
        # neighbor; nothing else a commit does can make a slot sendable.
        depth = self.hop_diameter
        slot_for_key = self._index.slot_for_key
        keys = {point.rest for point in batch.adds}
        keys.update(new.rest for _, new in batch.replaces)
        for key in keys:
            hop = self._holdings[key].hop
            if hop < depth:
                slot = slot_for_key(key)
                for neighbor, sendable in self._sendable.items():
                    if self._known[neighbor].get(slot, _UNKNOWN) > hop + 1:
                        sendable.add(slot)

    def handle_message(
        self, sender: int, points: Iterable[DataPoint]
    ) -> Optional[OutlierMessage]:
        if sender not in self._neighbors:
            raise ProtocolError(
                f"sensor {self.sensor_id} received points from non-neighbor {sender}"
            )
        self.stats.messages_received += 1
        arrived: Dict[RestKey, int] = {}
        batch = EventBatch()
        for point in points:
            current = self._holdings.get(point.rest)
            if current is None or point.hop < current.hop:
                # A new observation, or a shorter path to a held one: the
                # held copy is replaced (it may now influence more distant
                # hop levels) and its index slot relabelled in O(1) -- the
                # geometry is untouched by a hop change.
                self._holdings[point.rest] = point
                batch.stage_put(current, point)
                arrived[point.rest] = point.hop
                self.stats.points_received += 1
            else:
                self.stats.points_ignored += 1
        self._commit_batch(batch)
        if not arrived:
            return None
        # Recorded after the commit, which gives each new point its slot.  A
        # point is accepted only below the held copy's hop, and no recorded
        # hop is below the held one, so the arrival is the smallest record.
        received = self._received[sender]
        known = self._known[sender]
        sendable = self._sendable[sender]
        slot_for_key = self._index.slot_for_key
        for key, hop in arrived.items():
            slot = slot_for_key(key)
            received[slot] = known[slot] = hop
            sendable.discard(slot)
        self.stats.events_processed += 1
        return self._process()

    def neighborhood_changed(
        self, neighbors: Iterable[int]
    ) -> Optional[OutlierMessage]:
        new_neighbors = self._neighbor_set(neighbors)
        if new_neighbors == self._neighbors:
            return None
        for maps in (self._sent, self._received, self._known):
            for gone in self._neighbors - new_neighbors:
                maps.pop(gone, None)
            for fresh in new_neighbors - self._neighbors:
                maps.setdefault(fresh, {})
        # A fresh neighbor is known to hold nothing.
        slot_for = self._index.slot_for
        below = [
            slot_for(point)
            for point in self._holdings.values()
            if point.hop < self.hop_diameter
        ]
        self._sendable = {
            j: self._sendable[j] if j in self._neighbors else set(below)
            for j in new_neighbors
        }
        self._neighbors = new_neighbors
        self.stats.events_processed += 1
        return self._process()

    # ------------------------------------------------------------------
    # Core: the nested for-loops of Algorithm 2
    # ------------------------------------------------------------------
    def _process(self) -> Optional[OutlierMessage]:
        payloads: Dict[int, frozenset] = {}
        if not self._neighbors:
            return None
        depth = self.hop_diameter
        levels: List[Optional[Callable]] = [None] * depth
        outlier_memo: dict = {}
        paper = self.variant == "paper"
        index = self._index
        point_at = index.point_at
        for neighbor in sorted(self._neighbors):
            sendable = self._sendable[neighbor]
            if not sendable:
                continue
            known = self._known[neighbor]
            shared = frozenset(known)
            at_hop: List[List[int]] = [[] for _ in range(depth)]
            for slot in sendable:
                at_hop[point_at(slot).hop].append(slot)
            # Level h's Z lies in P_i^{<=h}, so it reaches the payload only
            # through the sendable slots at hop <= h that no lower level's
            # Z holds: the level runs only until its Z covers them.  Every
            # level's Z holds slots of held copies, one per observation, so
            # the ``[·]^min`` merge of the levels' sets is their union.
            target: FrozenSet[int] = frozenset()
            outgoing: List[int] = []
            for level in range(depth):
                target = target.union(at_hop[level])
                if not target:
                    continue
                sufficient = levels[level]
                if sufficient is None:
                    sufficient = levels[level] = self._level_fixpoint(
                        level, outlier_memo
                    )
                if paper:
                    shared = frozenset(
                        slot for slot, hop in known.items() if hop <= level
                    )
                Z = sufficient(shared, target)
                outgoing.extend(target & Z)
                target -= Z
            if outgoing:
                # The payload set iterates in insertion order among hash
                # collisions, and the receiver's index batch follows it.
                outgoing.sort(key=index.key_at)
                sent = self._sent[neighbor]
                copies = []
                for slot in outgoing:
                    copy = point_at(slot).incremented()
                    copies.append(copy)
                    sent[slot] = known[slot] = copy.hop
                sendable.difference_update(outgoing)
                payloads[neighbor] = frozenset(copies)
                self.stats.points_sent += len(copies)
        if not payloads:
            return None
        self.stats.messages_built += 1
        return OutlierMessage(sender=self.sensor_id, payloads=payloads)

    def _level_fixpoint(
        self, level: int, outlier_memo: dict
    ) -> Callable[[FrozenSet[int], FrozenSet[int]], FrozenSet[int]]:
        """Hop level ``h``'s eq. 2 fixpoint for this event, over
        ``P_i^{<=h}``, from a neighbor's shared slots and target slots to
        ``Z``'s slots; :meth:`_process` builds it on the level's first run.

        With a built-in ranking, the slot kernel starts from the level
        cache's ``O_n(P_i^{<=h})`` and walks its membership mask, and
        ``outlier_memo`` is the event's one ``O_n`` memo for every level
        and neighbor.  Other rankings take
        :func:`~repro.core.sufficient.index_free_fixpoint`.
        """
        query = self.query
        caches = self._caches
        if caches is not None and SlotFixpoint.handles(query.ranking):
            cache = caches[level]
            return SlotFixpoint(
                query, self._index, cache.subset(), cache.top_slots(query.n),
                outlier_memo,
            ).run
        return partial(
            index_free_fixpoint, query, self._index,
            [point for point in self._holdings.values() if point.hop <= level],
        )
