"""Dirty-set rescoring: maintain ``O_n(Q)`` under churn without rescoring Q.

Every protocol event re-ranks the sensor's holdings to produce the estimate
``O_n(P_i)``, but a single data change only perturbs the scores of points
whose *k-neighbor frontier* it enters: for the k-NN ranking family, adding
``z`` changes ``R(x, ·)`` only when ``dist(x, z)`` is at most ``x``'s
current k-th-neighbor distance (``x``'s frontier radius ``τ_x``), and for
the count-within-radius family only when ``dist(x, z) <= α``.  Everyone
else's score -- and hence their position in the ranking -- is untouched.

:class:`ScoreCache` exploits this.  It registers as a mutation observer on a
:class:`~repro.core.index.NeighborhoodIndex` and, for every structural
change, consumes the distance row the index already computed: an ``O(1)``
``dist <= τ`` comparison per neighbor marks the *dirty set*, and the next
ranking query rescores only those points (each an ``O(k)`` head read of the
flat arrays) and repairs a persistently sorted ``(score, ≺)`` order by
bisection.  The top-n estimate becomes an ``O(n_outliers)`` tail read
instead of an ``O(n·k)`` full rescore plus ``O(n log n)`` sort per event.

Exactness is preserved by construction: a clean point's score is the very
float the last rescore produced, rescoring goes through the same
``score_indexed`` walks the non-cached path uses, and the index holds one
copy per observation, so ``(score, ≺)`` has no full ties to break.

A cache can cover the whole index (the global detector's estimate) or the
sub-population with ``hop <= max_hop`` (one per hop level of the
semi-global detector); in the latter case it also maintains the level's
:class:`~repro.core.index.IndexSubset` membership mask incrementally, so
the per-event sufficient-set fixpoints reuse it instead of rebuilding it
via ``try_subset``.

Dirty-set soundness invariant
-----------------------------
The whole scheme is correct iff the dirty marking *over-approximates* the
set of points whose score a mutation can change.  That reduction is exact
for the supported frontier shapes: a k-NN score depends only on the k
nearest neighbors, so inserting ``z`` changes ``R(x, ·)`` only if
``dist(x, z) <= τ_x`` (the cached k-th-neighbor distance -- anything
farther can never enter the head), and a radius count changes only if
``dist(x, z) <= α``.  Deletions mark by the same test against the row the
index computed before the splice, and any point whose τ is not yet cached
is dirty by definition.  Rankings without a frontier characterisation
return ``frontier_spec() = None`` and the detectors simply skip the cache
-- a missing fast path degrades to the oracle, never to a wrong answer.
The randomized equivalence suites (``tests/test_index_equivalence.py``)
hold this invariant under adversarial churn for every registered metric.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import inf
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .index import SLOT_DTYPE, IndexSubset, NeighborhoodIndex
from .points import DataPoint, RestKey
from .ranking import RankingFunction, _masked_head

__all__ = ["ScoreCache"]


class ScoreCache:
    """Incrementally maintained ``(score, ≺)`` ranking over an index.

    Parameters
    ----------
    index:
        The :class:`~repro.core.index.NeighborhoodIndex` to observe.  The
        cache attaches itself as a mutation observer when supported.
    ranking:
        The ranking function scores are maintained under.  Must score in the
        index's metric and expose a
        :meth:`~repro.core.ranking.RankingFunction.frontier_spec`; rankings
        without one (``None``) leave the cache :attr:`unsupported
        <supported>` and callers use the legacy full path.
    max_hop:
        ``None`` covers the entire index; an integer restricts membership to
        points with ``hop <= max_hop`` (a semi-global hop level).
    """

    __slots__ = (
        "_index",
        "_ranking",
        "_max_hop",
        "_kind",
        "_param",
        "_order",
        "_score",
        "_tau",
        "_dirty",
        "_mask",
        "_members",
        "supported",
    )

    def __init__(
        self,
        index: NeighborhoodIndex,
        ranking: RankingFunction,
        max_hop: Optional[int] = None,
    ) -> None:
        self._index = index
        self._ranking = ranking
        self._max_hop = max_hop
        spec = ranking.frontier_spec()
        self.supported = spec is not None and ranking.metric.compatible_with(
            index.metric
        )
        self._kind, self._param = spec if spec is not None else ("knn", 1)
        #: Scored members as ``(score, ≺-key, slot)``, sorted ascending --
        #: the exact (reversed) order of the oracle's ranked triples.
        self._order: List[Tuple[float, RestKey, int]] = []
        #: slot -> cached score (exactly the scored, i.e. clean, members).
        self._score: Dict[int, float] = {}
        #: slot -> frontier radius τ (k-th member distance, or α), as a flat
        #: float buffer so one vectorized compare marks a whole distance row.
        #: ``-inf`` encodes "not a scored member" (distances are
        #: non-negative, so such slots can never be marked through it);
        #: ``+inf`` is a scored member with a neighbor deficit (any change
        #: perturbs it).
        self._tau = np.full(16, -inf)
        #: members whose score must be recomputed before the next query.
        self._dirty: Set[int] = set()
        #: membership mask (level caches only; ``None`` = whole index).
        self._mask: Optional[bytearray] = None if max_hop is None else bytearray()
        self._members = 0
        if not self.supported:
            # Fully initialized but inert: queries answer over an empty
            # membership, so a caller that skips the :meth:`if_supported`
            # factory still gets defined behavior.
            return
        for point in index.points():
            slot = index.slot_for(point)
            self._ensure_capacity(slot)
            if self._is_member(point):
                self._join(slot, point)
        index.attach(self)

    @classmethod
    def if_supported(
        cls,
        index: NeighborhoodIndex,
        ranking: RankingFunction,
        max_hop: Optional[int] = None,
    ) -> Optional["ScoreCache"]:
        """Build a cache, or return ``None`` when the ranking exposes no
        frontier structure (the detectors then keep the legacy full path)."""
        cache = cls(index, ranking, max_hop=max_hop)
        return cache if cache.supported else None

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._members

    def _is_member(self, point: DataPoint) -> bool:
        return self._max_hop is None or point.hop <= self._max_hop

    # ------------------------------------------------------------------
    # Membership bookkeeping
    # ------------------------------------------------------------------
    def _ensure_capacity(self, slot: int) -> None:
        if slot >= len(self._tau):
            grown = np.full(max(slot + 1, 2 * len(self._tau)), -inf)
            grown[: len(self._tau)] = self._tau
            self._tau = grown
        mask = self._mask
        if mask is not None and slot >= len(mask):
            mask.extend(b"\x00" * (slot + 1 - len(mask)))

    def _join(self, slot: int, point: DataPoint) -> None:
        self._ensure_capacity(slot)
        if self._mask is not None:
            self._mask[slot] = 1
        self._members += 1
        self._dirty.add(slot)

    def _leave(self, slot: int) -> None:
        if self._mask is not None:
            self._mask[slot] = 0
        self._members -= 1
        self._dirty.discard(slot)
        self._tau[slot] = -inf
        score = self._score.pop(slot, None)
        if score is not None:
            self._order_remove(score, self._index.key_at(slot), slot)

    def _order_remove(self, score: float, key: RestKey, slot: int) -> None:
        entry = (score, key, slot)
        order = self._order
        position = bisect_left(order, entry)
        if position < len(order) and order[position] == entry:
            del order[position]
        else:  # pragma: no cover - defensive (cache invariant violated)
            order.remove(entry)

    def _mark_row_dirty(self, nbr_slots, nbr_dists) -> None:
        """Mark every member whose frontier the changed point perturbs.

        One vectorized compare of the distance row against the τ buffer:
        slots whose τ is ``-inf`` (non-members and unscored-hence-already-
        dirty members) can never satisfy ``d <= τ``, so no membership test
        is needed.
        """
        if not nbr_dists:
            return
        dists = np.frombuffer(nbr_dists)
        slots = np.frombuffer(nbr_slots, dtype=SLOT_DTYPE)
        hits = slots[dists <= self._tau[slots]]
        if hits.size:
            self._dirty.update(hits.tolist())

    # ------------------------------------------------------------------
    # NeighborhoodIndex observer callbacks
    # ------------------------------------------------------------------
    def point_added(self, slot, point, nbr_slots, nbr_dists) -> None:
        self._ensure_capacity(slot)
        if not self._is_member(point):
            return
        self._join(slot, point)
        self._mark_row_dirty(nbr_slots, nbr_dists)

    def point_removed(self, slot, point, nbr_slots, nbr_dists) -> None:
        if not self._is_member(point):
            return
        self._leave(slot)
        self._mark_row_dirty(nbr_slots, nbr_dists)

    def points_added_batch(self, records) -> None:
        """:meth:`point_added` for each ``(slot, point, nbr_slots,
        nbr_dists)`` record, in order.  The index no longer calls it;
        ``perfbench/bench_trace.py`` wraps it by name, so the name stays
        until that tracer drops it."""
        for record in records:
            self.point_added(*record)

    def points_removed_batch(self, records) -> None:
        """Block-eviction hook: :meth:`point_removed` for each ``(slot,
        point, nbr_slots, nbr_dists)`` record, in eviction order, while the
        index still labels every departing slot.  A departing slot that an
        earlier record marks dirty leaves the dirty set when its own record
        is applied, so the result equals sequential ``discard`` calls."""
        for record in records:
            self.point_removed(*record)

    def point_relabeled(self, slot, old, new) -> None:
        # A hop-only relabel never moves distances, so a whole-index cache
        # is untouched; a level cache changes only when the relabel crosses
        # its hop boundary.  The index computes no distance row for a
        # relabel, so a boundary crossing conservatively rescores the whole
        # level -- ``[·]^min`` promotions are rare relative to data events.
        if self._max_hop is None:
            return
        was = old.hop <= self._max_hop
        now = new.hop <= self._max_hop
        if was == now:
            return
        if now:
            self._join(slot, new)
        else:
            self._leave(slot)
        self._dirty.update(entry[2] for entry in self._order)

    # ------------------------------------------------------------------
    # Rescoring
    # ------------------------------------------------------------------
    def subset(self) -> Optional[IndexSubset]:
        """The membership mask as an :class:`IndexSubset` (``None`` for a
        whole-index cache, matching ``try_subset``'s full-index contract).

        The mask is the live internal buffer: callers use it for the current
        event's queries and must not hold it across mutations.
        """
        if self._mask is None:
            return None
        return IndexSubset(self._mask, self._members)

    def _frontier_radius(self, slot: int, subset) -> float:
        if self._kind == "radius":
            return self._param
        k = self._param
        head = _masked_head(*self._index.row_at(slot), subset, k)
        return head[-1] if len(head) == k else inf

    def _rescore_dirty(self) -> None:
        dirty = self._dirty
        if not dirty:
            return
        index = self._index
        ranking = self._ranking
        subset = self.subset()
        order = self._order
        score_of = self._score
        tau_of = self._tau
        for slot in dirty:
            key = index.key_at(slot)
            previous = score_of.get(slot)
            if previous is not None:
                self._order_remove(previous, key, slot)
            score = ranking.score_indexed(index, index.point_at(slot), subset)
            score_of[slot] = score
            tau_of[slot] = self._frontier_radius(slot, subset)
            insort(order, (score, key, slot))
        dirty.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def top_slots(self, n: int) -> List[int]:
        """The slots of ``O_n(members)``, most outlying first."""
        self._rescore_dirty()
        if n <= 0:
            return []
        order = self._order
        tail = order[-n:] if n < len(order) else order
        return [entry[2] for entry in reversed(tail)]

    def top_n(self, n: int) -> List[DataPoint]:
        """``O_n(members)``, ordered most to least outlying -- identical to
        ``top_n_outliers(ranking, members, n, index=index)``."""
        return [self._index.point_at(slot) for slot in self.top_slots(n)]
