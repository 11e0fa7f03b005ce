"""Incremental neighborhood index: the detector hot-path engine.

Every event of the paper's protocols (data arrival, window eviction, message
reception, link change) re-evaluates ``O_n(P_i)``, the support sets
``[P_i|x]`` and the per-neighbor sufficient-set fixpoint.  All of those
reduce to *nearest-neighbor geometry* over the sensor's holdings: which
points of some ``Q ⊆ P_i`` are closest to ``x``, and how many lie within a
radius.  Recomputing that geometry from scratch costs ``O(n² · d)`` per
event; this module maintains it *incrementally*.

:class:`NeighborhoodIndex` is a **flat-array engine**: for every indexed
point it keeps two parallel, contiguous buffers -- an ``array('d')`` of
neighbor distances and an ``array('i')`` of the matching slot ids -- sorted
by ``(distance, ≺)``, the exact order the brute-force ranking paths use (the
configured :class:`~repro.core.metrics.Metric`, Euclidean by default, for
the distance; the fixed total order ``≺`` for ties).  Indexed answers are
therefore *identical* to the reference computations under every registered
metric, not approximations, while the per-entry cost drops from a boxed
``(float, key, slot)`` tuple (~100 bytes plus allocator churn on every
insertion) to 12 bytes of raw C doubles/ints moved by ``memmove``:

* :meth:`add` computes one distance row with a single ``metric.rows`` kernel
  call over the maintained *parallel value buffer* (no per-event walk of the
  point→slot dict), sorts it once into the new point's own arrays, and
  splices ``(distance, slot)`` into every existing pair of arrays by
  distance-only bisection -- ``O(n · d)`` distance work plus ``O(n²)``
  C-``memmove`` bytes in the worst case, with no Python object allocation
  per entry;
* :meth:`discard` walks the departing point's own distance array to locate
  its entry in every counterpart array by bisection and deletes it (no
  distance recomputation);
* :meth:`replace` swaps a held point for a copy with a different ``hop``
  field in ``O(1)`` -- the semi-global detector's ``[·]^min`` merge changes
  hop counters but never geometry, so the index only relabels the slot;
* :meth:`apply_batch` applies one :class:`~repro.core.batch.EventBatch`
  (a whole protocol event's evictions, additions and relabels): a batch of
  many evictions becomes one boolean-mask rebuild per surviving array
  instead of one bisected memmove per pair, and every addition goes through
  :meth:`add`, after a check that makes a batch's additions all-or-nothing.
  The resulting structure is *identical* -- entry for entry, slot for slot
  -- to applying the same mutations one at a time.

Queries never mutate the index.  Scoring a point against the *full* index
reads the head of its distance array in ``O(k)`` (``O(1)`` for the k-th
distance); a radius count is one ``O(log n)`` bisection.  Scoring against a
*subset* ``Q ⊆ P`` -- the shape of every sufficient-set fixpoint iteration
-- walks the parallel arrays and filters by a precomputed membership mask
(:class:`IndexSubset`), i.e. set algebra over cached ranks instead of
re-sorting distances.

Mutation *observers* (see :meth:`NeighborhoodIndex.attach`) receive each
structural change together with the already-computed distance row, which is
what lets the dirty-set rescoring engine
(:class:`~repro.core.rescoring.ScoreCache`) decide in ``O(1)`` per neighbor
whose k-neighbor frontier the change perturbed.

The index holds at most one copy of each observation: adding a point whose
``≺`` key is already indexed (a hop variant, say) raises
:class:`~repro.core.errors.RankingError`, and :meth:`replace` is the way to
swap one copy for another.  So every neighbor array holds every other
indexed point, and ``(distance, ≺)`` orders it strictly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .batch import EventBatch
from .errors import RankingError
from .metrics import EUCLIDEAN, Metric
from .points import DataPoint, RestKey, sort_key

__all__ = [
    "NeighborhoodIndex",
    "IndexSubset",
    "NeighborEntry",
    "SLOT_DTYPE",
    "SLOT_TYPECODE",
    "BATCH_BLOCK_THRESHOLD",
]

#: Typecode of the slot-id buffers.  C ``int`` (4 bytes on every supported
#: platform) rather than ``long``: slot ids are bounded by the window size
#: plus one batch, so 32 bits halves the neighbor-array traffic of the
#: splices and strips, which are memory-bound at the paper's window sizes.
SLOT_TYPECODE = "i"

#: Numpy dtype matching the ``array(SLOT_TYPECODE)`` slot buffers (used to
#: view them without copying, e.g. by the dirty-set rescoring engine).
SLOT_DTYPE = np.dtype(f"i{array(SLOT_TYPECODE).itemsize}")

#: ``apply_batch`` routes batches with at most this many evictions through
#: :meth:`NeighborhoodIndex.discard`: the block strip costs a fixed number
#: of numpy dispatches per surviving array regardless of batch size, which
#: only pays for itself once several departures share them.  A typical
#: sampling tick (one expiry) stays on ``discard``; crash resets and
#: window slides that also expire the points received from neighbors take
#: the block strip.
BATCH_BLOCK_THRESHOLD = 4

#: One neighbor-list entry as exposed by :meth:`NeighborhoodIndex.entries`:
#: ``(distance, ≺-key of the neighbor, slot)``.  Sequences of these are
#: ordered exactly like the brute-force ``_sorted_by_distance`` (distance
#: first, then the fixed total order).
NeighborEntry = Tuple[float, RestKey, int]


def _second_copy(point: DataPoint) -> RankingError:
    return RankingError(
        f"{point!r} would be a second copy of its observation; the index "
        f"holds one copy per observation (replace() swaps copies)"
    )


def _dimension_mismatch(dimension: int, point: DataPoint) -> RankingError:
    return RankingError(
        f"dimension mismatch: index holds {dimension}-dimensional points, "
        f"got {point.dimension}-dimensional {point!r}"
    )


class IndexSubset:
    """Membership mask for scoring against a subset ``Q`` of an index.

    Built once per bulk operation via :meth:`NeighborhoodIndex.try_subset`
    (or maintained incrementally by a
    :class:`~repro.core.rescoring.ScoreCache`) and shared by every per-point
    query so the ``O(|Q|)`` mask construction is not repeated.
    """

    __slots__ = ("mask", "size")

    def __init__(self, mask: bytearray, size: int) -> None:
        self.mask = mask
        self.size = size

    def __contains__(self, slot: int) -> bool:
        return bool(self.mask[slot])


class NeighborhoodIndex:
    """Persistent sorted-neighbor structure over a dynamic set of points.

    Examples
    --------
    >>> from repro.core import NeighborhoodIndex, NearestNeighborDistance, make_point
    >>> pts = [make_point([float(v)], 0, i) for i, v in enumerate([0.0, 1.0, 5.0])]
    >>> index = NeighborhoodIndex(pts)
    >>> NearestNeighborDistance().score_indexed(index, pts[2])
    4.0
    >>> _ = index.discard(pts[1])
    >>> NearestNeighborDistance().score_indexed(index, pts[2])
    5.0
    """

    __slots__ = (
        "_slot_of",
        "_points",
        "_keys",
        "_dists",
        "_nbrs",
        "_free",
        "_slot_of_key",
        "_dimension",
        "_metric",
        "_occ_slots",
        "_occ_values",
        "_occ_pos",
        "_observers",
    )

    def __init__(
        self,
        points: Iterable[DataPoint] = (),
        metric: Optional[Metric] = None,
    ) -> None:
        #: The metric space the neighbor arrays are sorted in.  Must match
        #: the metric of every ranking function queried against this index
        #: (the detectors construct both from the same configuration).
        self._metric = EUCLIDEAN if metric is None else metric
        #: point -> slot (points hash/compare including ``hop``).
        self._slot_of: Dict[DataPoint, int] = {}
        #: slot -> point (``None`` for free slots).
        self._points: List[Optional[DataPoint]] = []
        #: slot -> cached ``sort_key`` (``None`` for free slots).
        self._keys: List[Optional[RestKey]] = []
        #: slot -> neighbor distances, sorted ascending (``None`` if free).
        self._dists: List[Optional[array]] = []
        #: slot -> neighbor slot ids, parallel to ``_dists``.
        self._nbrs: List[Optional[array]] = []
        #: recycled slot numbers.
        self._free: List[int] = []
        #: ``≺`` key -> the slot holding that observation's one copy.
        self._slot_of_key: Dict[RestKey, int] = {}
        #: Compact parallel buffers over the *occupied* slots: ``add`` feeds
        #: ``metric.rows`` straight from ``_occ_values`` instead of walking
        #: the point->slot dict per event.  Maintained by O(1) swap-removal;
        #: ``_occ_pos[slot]`` is the slot's position (-1 when free).
        self._occ_slots: array = array(SLOT_TYPECODE)
        self._occ_values: List[Tuple[float, ...]] = []
        self._occ_pos: List[int] = []
        #: Mutation observers (dirty-set rescoring caches).
        self._observers: List = []
        self._dimension: Optional[int] = None
        for point in points:
            self.add(point)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, point: DataPoint) -> bool:
        return point in self._slot_of

    def points(self) -> Iterator[DataPoint]:
        """Iterate over the indexed points, in the order they were indexed
        (a :meth:`replace` moves the new copy to the end)."""
        return iter(self._slot_of)

    @property
    def dimension(self) -> Optional[int]:
        """Dimensionality of the indexed points (``None`` while empty)."""
        return self._dimension

    @property
    def metric(self) -> Metric:
        """The metric the cached neighbor arrays are sorted under."""
        return self._metric

    def point_at(self, slot: int) -> DataPoint:
        """The point currently stored in ``slot`` (internal ids exposed by
        the parallel slot arrays)."""
        point = self._points[slot]
        if point is None:  # pragma: no cover - defensive
            raise RankingError(f"slot {slot} is free")
        return point

    def key_at(self, slot: int) -> RestKey:
        """The cached ``≺`` key of the point in ``slot``."""
        key = self._keys[slot]
        if key is None:  # pragma: no cover - defensive
            raise RankingError(f"slot {slot} is free")
        return key

    def slot_for(self, point: DataPoint) -> int:
        """The slot holding ``point`` (:class:`RankingError` if absent)."""
        slot = self._slot_of.get(point)
        if slot is None:
            raise RankingError(f"{point!r} is not indexed")
        return slot

    def slot_for_key(self, key: RestKey) -> int:
        """The slot holding the indexed copy of the observation with ``≺``
        key ``key`` (:class:`RankingError` if none is indexed)."""
        slot = self._slot_of_key.get(key)
        if slot is None:
            raise RankingError(f"no indexed copy of {key!r}")
        return slot

    def slot_tables(
        self,
    ) -> Tuple[List[Optional[array]], List[Optional[array]], List[Optional[RestKey]]]:
        """The live per-slot tables ``(distances, neighbor slots, ≺ keys)``:
        entry ``s`` of each is what :meth:`row_at` and :meth:`key_at` return
        for slot ``s`` (``None`` for a free slot).  Same read-only contract
        as :meth:`row_for`: a mutation may replace the entries."""
        return self._dists, self._nbrs, self._keys

    def occupied_slots(self) -> FrozenSet[int]:
        """The slots currently holding a point."""
        return frozenset(self._occ_slots)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def attach(self, observer) -> None:
        """Register a mutation observer.

        Observers implement all four callbacks below, each invoked *after*
        the index structures are consistent:

        * ``point_added(slot, point, nbr_slots, nbr_dists)`` -- the new
          point's own parallel arrays (sorted);
        * ``point_removed(slot, point, nbr_slots, nbr_dists)`` -- the
          departed point's arrays, passed before they are freed;
        * ``point_relabeled(slot, old, new)`` -- a hop-only replace;
        * ``points_removed_batch(records)`` -- the block eviction of
          :meth:`apply_batch` above :data:`BATCH_BLOCK_THRESHOLD`, with
          ``records`` a sequence of ``(slot, point, nbr_slots, nbr_dists)``
          tuples in eviction order, delivered while the departing slots are
          still labelled (``key_at`` works) and before the strip of the
          surviving arrays.

        The arrays are the live internals: observers must only read them and
        must not retain them past the callback.  An observer that is
        already attached raises :class:`~repro.core.errors.RankingError`:
        it would see every mutation twice.
        """
        if observer in self._observers:
            raise RankingError(
                f"{type(observer).__name__} is already attached to this index"
            )
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(self, point: DataPoint) -> bool:
        """Index ``point``.  Returns ``False`` if it is already present;
        raises :class:`RankingError` if another copy of its observation is
        indexed (:meth:`replace` swaps copies).

        Cost: one ``metric.rows`` kernel call over the parallel value buffer
        (``O(n · d)`` distance work, the only Python-level arithmetic) plus
        one distance-bisected splice per neighbor array.  The splices are
        ``O(n²)`` *bytes* of C ``memmove`` in the worst case with zero
        Python-object allocation -- the point is replacing ``O(n² · d)``
        arithmetic per event with a single ``O(n · d)`` distance row.
        """
        if point in self._slot_of:
            return False
        if self._dimension is None:
            self._dimension = point.dimension
        elif point.dimension != self._dimension:
            raise _dimension_mismatch(self._dimension, point)
        key = sort_key(point)
        if key in self._slot_of_key:
            raise _second_copy(point)

        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self._points)
            self._points.append(None)
            self._keys.append(None)
            self._dists.append(None)
            self._nbrs.append(None)
            self._occ_pos.append(-1)

        occ_slots = self._occ_slots
        if occ_slots:
            # One kernel call for the whole distance row: for the default
            # Euclidean metric that is the same per-pair ``math.dist``
            # arithmetic as the oracle, and for the vectorized metrics it
            # amortises the numpy dispatch over the row.
            row = self._metric.rows(point.values, self._occ_values)
            slot_row = np.frombuffer(occ_slots, dtype=SLOT_DTYPE)
            own_dists, own_nbrs = self._ordered_arrays(row, slot_row)
            # Splice (distance, slot) into every neighbor's parallel arrays.
            keys = self._keys
            dists_tbl = self._dists
            nbrs_tbl = self._nbrs
            insert_at = bisect_right
            for d, s in zip(own_dists, own_nbrs):
                od = dists_tbl[s]
                on = nbrs_tbl[s]
                pos = insert_at(od, d)
                while pos and od[pos - 1] == d and keys[on[pos - 1]] > key:
                    pos -= 1
                od.insert(pos, d)
                on.insert(pos, slot)
            # Release the no-copy view before the buffer is resized below.
            del slot_row
        else:
            own_dists = array("d")
            own_nbrs = array(SLOT_TYPECODE)
        self._slot_of[point] = slot
        self._points[slot] = point
        self._keys[slot] = key
        self._dists[slot] = own_dists
        self._nbrs[slot] = own_nbrs
        self._occ_pos[slot] = len(occ_slots)
        occ_slots.append(slot)
        self._occ_values.append(point.values)
        self._slot_of_key[key] = slot
        for observer in self._observers:
            observer.point_added(slot, point, own_nbrs, own_dists)
        return True

    def discard(self, point: DataPoint) -> bool:
        """Remove ``point`` from the index.  Returns ``False`` if absent.

        The departing point's own arrays already record its distance to
        every other point, so no distance is recomputed: each entry is
        located in the counterpart arrays by bisection and deleted.
        """
        slot = self._slot_of.pop(point, None)
        if slot is None:
            return False
        key = self._keys[slot]
        own_dists = self._dists[slot]
        own_nbrs = self._nbrs[slot]
        dists_tbl = self._dists
        nbrs_tbl = self._nbrs
        for d, other in zip(own_dists, own_nbrs):
            od = dists_tbl[other]
            on = nbrs_tbl[other]
            # The counterpart entry has the same distance; bisect to the end
            # of the equal-distance run and walk back to our slot id.
            pos = bisect_right(od, d) - 1
            while pos >= 0 and on[pos] != slot:
                pos -= 1
            if pos < 0:  # pragma: no cover - defensive (invariant violated)
                raise RankingError(
                    f"index invariant violated: slot {slot} missing from "
                    f"the neighbor arrays of slot {other}"
                )
            del od[pos]
            del on[pos]
        for observer in self._observers:
            observer.point_removed(slot, point, own_nbrs, own_dists)
        self._points[slot] = None
        self._keys[slot] = None
        self._dists[slot] = None
        self._nbrs[slot] = None
        self._free.append(slot)
        pos = self._occ_pos[slot]
        last_slot = self._occ_slots.pop()
        last_values = self._occ_values.pop()
        if last_slot != slot:
            self._occ_slots[pos] = last_slot
            self._occ_values[pos] = last_values
            self._occ_pos[last_slot] = pos
        self._occ_pos[slot] = -1
        del self._slot_of_key[key]
        return True

    def replace(self, old: DataPoint, new: DataPoint) -> bool:
        """Swap ``old`` for ``new``, another copy of the same observation
        (equal ``≺`` keys, hence equal value vectors; only the hop differs).

        This is the min-hop-merge invalidation hook of the semi-global
        detector: ``[·]^min`` keeps the smallest-hop copy of each
        observation, which changes the stored :class:`DataPoint` but not the
        geometry, so the slot is relabelled in ``O(1)`` and every cached
        distance and neighbor array stays valid.
        """
        if old == new:
            return old in self._slot_of
        if sort_key(old) != sort_key(new):
            raise RankingError(
                f"replace() requires copies of the same observation; "
                f"got {old!r} and {new!r}"
            )
        slot = self._slot_of.pop(old, None)
        if slot is None:
            return False
        self._slot_of[new] = slot
        self._points[slot] = new
        for observer in self._observers:
            observer.point_relabeled(slot, old, new)
        return True

    # ------------------------------------------------------------------
    # Batched mutations
    # ------------------------------------------------------------------
    def apply_batch(self, batch: EventBatch) -> Tuple[int, int]:
        """Apply one :class:`~repro.core.batch.EventBatch` as a unit.

        Order of application is evictions, then additions, then hop
        relabels (see the batch-formation rules in
        :mod:`repro.core.batch`); the resulting index -- slot assignments,
        array contents, free-list order, observer-visible rows -- is
        *identical* to applying the same mutations one at a time in that
        order.  Returns ``(points added, points evicted)``.

        Batches of more than :data:`BATCH_BLOCK_THRESHOLD` evictions take
        the block strip (:meth:`_evict_block`); smaller ones go through
        :meth:`discard`.  Every addition goes through :meth:`add`.  A batch
        of two or more additions is all-or-nothing: each addition is
        checked -- its dimension, and that no other copy of its observation
        is indexed once the evictions are applied or listed earlier in the
        batch -- before any is added, so a bad batch raises with every
        eviction applied and no addition made.  A single addition needs no
        such check, because :meth:`add` checks before it changes anything.
        """
        evicts = batch.evicts
        if len(evicts) > BATCH_BLOCK_THRESHOLD:
            evicted = self._evict_block(evicts)
        else:
            evicted = 0
            for point in evicts:
                evicted += self.discard(point)
        adds = batch.adds
        if len(adds) > 1:
            self._check_additions(adds)
        added = 0
        for point in adds:
            added += self.add(point)
        for old, new in batch.replaces:
            self.replace(old, new)
        return added, evicted

    def _check_additions(self, adds: Sequence[DataPoint]) -> None:
        """Raise :class:`RankingError` if some point of ``adds``, added in
        order, would make :meth:`add` raise; change nothing.

        A point already indexed, or listed earlier in ``adds``, is skipped
        as :meth:`add` skips it.
        """
        dimension = self._dimension
        listed: Dict[RestKey, DataPoint] = {}
        for point in adds:
            if point in self._slot_of:
                continue
            if dimension is None:
                dimension = point.dimension
            elif point.dimension != dimension:
                raise _dimension_mismatch(dimension, point)
            key = sort_key(point)
            earlier = listed.get(key)
            if earlier is None and key not in self._slot_of_key:
                listed[key] = point
            elif earlier != point:
                raise _second_copy(point)

    def _evict_block(self, evicts: Sequence[DataPoint]) -> int:
        """Remove a batch of points and return how many were indexed.

        The bookkeeping (observer notification, slot freeing, occupied-buffer
        compaction) replays sequential :meth:`discard` calls exactly.  The
        sequential path then pays one bisect-and-memmove per (departing
        point, surviving array) pair; here every surviving array is rebuilt
        once under a boolean keep-mask over the departing slots, so the
        per-pair cost collapses into C-level fancy indexing.
        """
        departing: List[Tuple[int, DataPoint, array, array]] = []
        for point in evicts:
            slot = self._slot_of.pop(point, None)
            if slot is None:
                continue
            departing.append((slot, point, self._nbrs[slot], self._dists[slot]))
        if not departing:
            return 0
        # Observers see the departing rows while the slots are still
        # labelled (the rescoring cache reads ``key_at`` during `_leave`).
        for observer in self._observers:
            observer.points_removed_batch(departing)
        # Free the bookkeeping in eviction order so the free-list and the
        # compact occupied buffers end up exactly as after sequential
        # ``discard`` calls (slot reuse must replay identically).
        keep_lut = np.ones(len(self._points), dtype=bool)
        for slot, point, _on, _od in departing:
            keep_lut[slot] = False
            key = self._keys[slot]
            self._points[slot] = None
            self._keys[slot] = None
            self._dists[slot] = None
            self._nbrs[slot] = None
            self._free.append(slot)
            pos = self._occ_pos[slot]
            last_slot = self._occ_slots.pop()
            last_values = self._occ_values.pop()
            if last_slot != slot:
                self._occ_slots[pos] = last_slot
                self._occ_values[pos] = last_values
                self._occ_pos[last_slot] = pos
            self._occ_pos[slot] = -1
            del self._slot_of_key[key]
        dists_tbl = self._dists
        nbrs_tbl = self._nbrs
        for survivor in self._occ_slots:
            slot_view = np.frombuffer(nbrs_tbl[survivor], dtype=SLOT_DTYPE)
            keep = keep_lut[slot_view]
            new_dists = array("d")
            new_dists.frombytes(
                np.frombuffer(dists_tbl[survivor])[keep].tobytes()
            )
            new_nbrs = array(SLOT_TYPECODE)
            new_nbrs.frombytes(slot_view[keep].tobytes())
            dists_tbl[survivor] = new_dists
            nbrs_tbl[survivor] = new_nbrs
        return len(departing)

    def _ordered_arrays(
        self, row: np.ndarray, slot_row: np.ndarray
    ) -> Tuple[array, array]:
        """Sort one distance row into a point's own parallel arrays.

        Distance-first order; ties (equal doubles) must then be re-ordered
        by ``≺`` key so the arrays match the brute-force ``(distance, ≺)``
        order exactly -- :meth:`_repair_tie_runs` re-sorts just the tied
        runs, so a row without ties is a pure C argsort.
        """
        # Introsort, not a stable sort: without ties the order is unique
        # anyway, and the repair re-sorts every tied run by ≺ key -- so
        # sort stability buys nothing at ~2x the sort cost.
        order = row.argsort()
        sorted_dists = row[order]
        sorted_slots = slot_row[order]
        self._repair_tie_runs(sorted_dists, sorted_slots)
        own_dists = array("d")
        own_nbrs = array(SLOT_TYPECODE)
        own_dists.frombytes(sorted_dists.tobytes())
        own_nbrs.frombytes(sorted_slots.tobytes())
        return own_dists, own_nbrs

    def _repair_tie_runs(self, dists: np.ndarray, slots: np.ndarray) -> None:
        """Re-sort every equal-distance run of ``slots`` by ``≺`` key, in
        place.

        ``dists``/``slots`` are one row sorted by distance.  One vectorized
        compare finds the tied adjacent pairs; pairs at consecutive
        positions chain into one run, and a jump of two or more starts the
        next.  Only the runs' slots are re-sorted: their distances are
        equal, and entries outside a run stay put.
        """
        pairs = np.flatnonzero(dists[1:] == dists[:-1])
        if not len(pairs):
            return
        breaks = np.flatnonzero(np.diff(pairs) != 1)
        starts = np.concatenate((pairs[:1], pairs[breaks + 1]))
        ends = np.concatenate((pairs[breaks], pairs[-1:])) + 2
        keys = self._keys
        for start, end in zip(starts.tolist(), ends.tolist()):
            run = slots[start:end].tolist()
            run.sort(key=keys.__getitem__)
            slots[start:end] = run

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def row_for(self, point: DataPoint) -> Tuple[Sequence[float], Sequence[int]]:
        """``point``'s parallel neighbor arrays ``(distances, slots)``,
        sorted by ``(distance, ≺)``.

        These are the live internal buffers, exposed for the ranking
        functions' indexed fast paths: callers must treat them as read-only
        and must not hold them across mutations.  External callers should
        prefer :meth:`entries`, which returns an immutable snapshot.
        """
        slot = self._slot_of.get(point)
        if slot is None:
            raise RankingError(f"{point!r} is not indexed")
        return self._dists[slot], self._nbrs[slot]

    def row_at(self, slot: int) -> Tuple[Sequence[float], Sequence[int]]:
        """Slot-addressed variant of :meth:`row_for` (same read-only
        contract)."""
        dists = self._dists[slot]
        if dists is None:  # pragma: no cover - defensive
            raise RankingError(f"slot {slot} is free")
        return dists, self._nbrs[slot]

    def entries(self, point: DataPoint) -> Tuple[NeighborEntry, ...]:
        """``point``'s neighbor list, sorted by ``(distance, ≺)``.

        Returns an immutable snapshot (a fresh tuple of
        :data:`NeighborEntry` triples) built from the internal flat arrays:
        callers cannot corrupt the index through it, and it stays valid --
        as a snapshot -- across later mutations.  Hot paths use the raw
        parallel arrays via :meth:`row_for` instead.
        """
        dists, nbrs = self.row_for(point)
        keys = self._keys
        return tuple((d, keys[s], s) for d, s in zip(dists, nbrs))

    def try_subset(
        self, points: Sequence[DataPoint]
    ) -> Tuple[bool, Optional[IndexSubset]]:
        """Prepare a subset mask for scoring against ``points``.

        Returns ``(True, None)`` when ``points`` is exactly the full index
        (the fast full-index query path applies), ``(True, mask)`` when it is
        a proper indexed subset, and ``(False, None)`` when some point is not
        indexed (callers fall back to the brute-force oracle).
        """
        slots = []
        for point in points:
            slot = self._slot_of.get(point)
            if slot is None:
                return False, None
            slots.append(slot)
        distinct = set(slots)
        if len(distinct) == len(self._slot_of):
            return True, None
        mask = bytearray(len(self._points))
        for slot in distinct:
            mask[slot] = 1
        return True, IndexSubset(mask, len(distinct))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborhoodIndex(len={len(self)}, dimension={self._dimension}, "
            f"metric={self._metric.name!r})"
        )
