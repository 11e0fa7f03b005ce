"""Block-vs-scalar equivalence: the block event path is an exact
re-implementation, not an approximation.

The batched tick machinery -- ``NeighborhoodIndex.apply_batch`` block
evictions/insertions and the ``ScoreCache`` batch dirty-marking and bulk
rescore -- must be *byte-identical* to applying the same events one at a
time through the per-point mutations.  These tests force the block
machinery on at degenerate sizes (``BATCH_BLOCK_THRESHOLD = -1``), sweep
the splice chunk width across its boundary cases, and drive randomized
tie-heavy streams through every registered metric, comparing full
structural snapshots against the sequential oracle.  At the detector
level, the one batched path runs twice on the same stream: once with
every batch forced onto the block path and once with every batch forced
onto the scalar path (a threshold above any batch size).  The centralized
sink applies each publication's net change to a distance matrix, not to
an index; its window-replacement and churn script runs against the
brute-force sink.
"""

from __future__ import annotations

import random

import pytest

import repro.core.index as index_mod
import repro.core.rescoring as rescoring_mod
from repro.baselines.centralized import CentralizedAggregator
from repro.core.batch import EventBatch
from repro.core.global_detector import GlobalOutlierDetector
from repro.core.index import NeighborhoodIndex
from repro.core.metrics import metric_from_name, registered_metrics
from repro.core.points import DataPoint
from repro.core.outliers import OutlierQuery
from repro.core.ranking import (
    AverageKNNDistance,
    KthNearestNeighborDistance,
    NearestNeighborDistance,
)
from repro.core.rescoring import ScoreCache
from repro.core.semiglobal_detector import SemiGlobalOutlierDetector

from brute_oracle import BruteAggregator, assert_sink_slots_are_pairwise

#: Every registered metric with the parameters it needs in 2-d.
METRICS = [
    ("euclidean", {}),
    ("manhattan", {}),
    ("chebyshev", {}),
    ("weighted-euclidean", {"weights": (0.5, 2.0)}),
    ("mahalanobis", {"cov": ((1.0, 0.2), (0.2, 2.0))}),
]

assert sorted(name for name, _ in METRICS) == registered_metrics()


def _make_point(rng: random.Random, epoch: int) -> DataPoint:
    # Grid-heavy coordinates so equal-distance ties (the hard case of the
    # block splice) actually occur.
    values = (
        rng.choice([0.0, 1.0, 2.0, rng.random() * 4]),
        rng.choice([0.0, 1.0, rng.random() * 4]),
    )
    return DataPoint(values, origin=rng.randrange(3), epoch=epoch)


def _index_snapshot(ix: NeighborhoodIndex):
    """Full structural state: per-slot arrays (bytes + typecodes), free
    list, occupied buffer -- anything the sequential path could differ in."""
    slots = []
    for slot, point in enumerate(ix._points):
        if point is None:
            slots.append(None)
        else:
            slots.append(
                (
                    point,
                    ix._dists[slot].typecode,
                    ix._dists[slot].tobytes(),
                    ix._nbrs[slot].typecode,
                    ix._nbrs[slot].tobytes(),
                )
            )
    return slots, list(ix._free), ix._occ_slots.tobytes()


def _drive_batches(metric_name, params, monkeypatch, *, seed, trials, steps):
    """Randomized mixed batches through the forced block path vs the
    sequential oracle, comparing full snapshots after every tick."""
    monkeypatch.setattr(index_mod, "BATCH_BLOCK_THRESHOLD", -1)
    rng = random.Random(seed)
    for trial in range(trials):
        size = rng.choice([6, 15, 31, 32, 33, 48])
        epoch = [0]

        def mk():
            epoch[0] += 1
            return _make_point(rng, epoch[0])

        blocked = NeighborhoodIndex(metric=metric_from_name(metric_name, **params))
        oracle = NeighborhoodIndex(metric=metric_from_name(metric_name, **params))
        live = [mk() for _ in range(size)]
        for point in live:
            blocked.add(point)
            oracle.add(point)
        for step in range(steps):
            evicts = rng.sample(live, rng.randrange(0, min(8, len(live)) + 1))
            adds = [mk() for _ in range(rng.randrange(0, 9))]
            if evicts and rng.random() < 0.3:
                # The same point leaves and re-enters within one tick.
                adds.append(evicts[0])
            if len(evicts) > 1 and rng.random() < 0.3:
                # One copy of an observation leaves and another enters: the
                # evictions apply first, so this is no second copy.
                adds.append(evicts[-1].with_hop(evicts[-1].hop + 1))
            if adds and rng.random() < 0.2:
                adds.append(adds[0])  # duplicate add within the batch
            blocked.apply_batch(
                EventBatch(adds=list(adds), evicts=list(evicts), replaces=[])
            )
            for point in evicts:
                oracle.discard(point)
            for point in adds:
                oracle.add(point)
            assert _index_snapshot(blocked) == _index_snapshot(oracle), (
                f"divergence: metric={metric_name} trial={trial} step={step}"
            )
            live = [p for p in live if p not in evicts]
            for p in adds:
                if p not in live:
                    live.append(p)


@pytest.mark.parametrize("metric_name,params", METRICS)
def test_forced_block_matches_sequential(metric_name, params, monkeypatch):
    _drive_batches(metric_name, params, monkeypatch, seed=7, trials=6, steps=6)


def test_block_path_across_splice_chunk_boundaries(monkeypatch):
    """The chunked splice must be exact when the survivor count is below,
    equal to, above, and not a multiple of the chunk width."""
    for chunk in (1, 2, 3, 7):
        monkeypatch.setattr(index_mod, "SPLICE_CHUNK_ROWS", chunk)
        _drive_batches(
            "euclidean", {}, monkeypatch, seed=100 + chunk, trials=3, steps=5
        )


def test_single_event_batches_match(monkeypatch):
    """Degenerate one-event batches through the forced block path."""
    monkeypatch.setattr(index_mod, "BATCH_BLOCK_THRESHOLD", -1)
    rng = random.Random(11)
    blocked = NeighborhoodIndex()
    oracle = NeighborhoodIndex()
    live = []
    for epoch in range(60):
        point = _make_point(rng, epoch)
        if live and rng.random() < 0.4:
            victim = rng.choice(live)
            blocked.apply_batch(EventBatch(adds=[], evicts=[victim], replaces=[]))
            oracle.discard(victim)
            live.remove(victim)
        blocked.apply_batch(EventBatch(adds=[point], evicts=[], replaces=[]))
        oracle.add(point)
        live.append(point)
        assert _index_snapshot(blocked) == _index_snapshot(oracle)


def test_same_point_evicted_and_readded_in_one_tick(monkeypatch):
    monkeypatch.setattr(index_mod, "BATCH_BLOCK_THRESHOLD", -1)
    rng = random.Random(13)
    points = [_make_point(rng, e) for e in range(20)]
    blocked = NeighborhoodIndex()
    oracle = NeighborhoodIndex()
    for p in points:
        blocked.add(p)
        oracle.add(p)
    churn = points[:6]
    fresh = [_make_point(rng, 100 + e) for e in range(6)]
    blocked.apply_batch(
        EventBatch(adds=churn + fresh, evicts=list(churn), replaces=[])
    )
    for p in churn:
        oracle.discard(p)
    for p in churn + fresh:
        oracle.add(p)
    assert _index_snapshot(blocked) == _index_snapshot(oracle)


@pytest.mark.parametrize(
    "ranking_factory",
    [
        lambda: AverageKNNDistance(4),
        lambda: KthNearestNeighborDistance(3),
        lambda: NearestNeighborDistance(),
    ],
    ids=["avg-knn", "kth-nn", "nearest"],
)
def test_scorecache_bulk_rescore_matches_scalar(ranking_factory, monkeypatch):
    """The vectorized whole-dirty-set rescore must leave the cache in the
    same state -- order, scores, τ buffer -- as the scalar per-slot loop."""

    def cache_state(cache):
        return (
            list(cache._order),
            dict(cache._score),
            cache._tau[:96].tobytes(),
            set(cache._dirty),
        )

    rng = random.Random(29)
    for trial in range(12):
        index = NeighborhoodIndex()
        bulk = ScoreCache(index, ranking_factory(), max_hop=None)
        live = []
        for epoch in range(36):
            point = _make_point(rng, epoch)
            index.add(point)
            live.append(point)
        for _ in range(4):
            victim = live.pop(rng.randrange(len(live)))
            index.discard(victim)
        bulk._dirty.update(
            slot for slot, p in enumerate(index._points) if p is not None
        )
        scalar = ScoreCache(index, ranking_factory(), max_hop=None)
        scalar._order = list(bulk._order)
        scalar._score = dict(bulk._score)
        scalar._tau = bulk._tau.copy()
        scalar._dirty = set(bulk._dirty)
        scalar._members = bulk._members
        monkeypatch.setattr(rescoring_mod, "BULK_RESCORE_MIN", 1)
        bulk._rescore_dirty()
        monkeypatch.setattr(rescoring_mod, "BULK_RESCORE_MIN", 10**9)
        scalar._rescore_dirty()
        assert cache_state(bulk) == cache_state(scalar), f"trial {trial}"


#: ``BATCH_BLOCK_THRESHOLD`` values forcing every batch onto the block path
#: and onto the scalar path, respectively.
FORCED_PATHS = (-1, 10**9)


def _transcript(detector, ticks):
    out = []
    for adds, evicts in ticks:
        out.append(detector.update_local_data(adds, evicts))
    return out


def _make_ticks(rng, warm, count):
    """A tick schedule mixing multi-event, single-event and churn ticks."""
    epoch = [1000]

    def mk():
        epoch[0] += 1
        return _make_point(rng, epoch[0])

    live = list(warm)
    ticks = []
    for t in range(count):
        if t % 3 == 2:
            adds = [mk()]  # degenerate single-event tick
            evicts = [live[0]] if live else []
        else:
            evicts = rng.sample(live, min(len(live), rng.randrange(0, 5)))
            adds = [mk() for _ in range(rng.randrange(1, 6))]
            if evicts and rng.random() < 0.4:
                adds.append(evicts[0])  # same-point churn within the tick
        ticks.append((adds, evicts))
        live = [p for p in live if p not in evicts] + [
            p for p in adds if p not in live
        ]
    return ticks


@pytest.mark.parametrize("metric_name,params", METRICS)
def test_global_detector_transcripts_identical(metric_name, params, monkeypatch):
    """Same tick sequence, block path vs scalar path: every emitted
    message, the holdings and the estimate must be identical."""
    rng = random.Random(31)
    ranking = AverageKNNDistance(3, metric=metric_from_name(metric_name, **params))
    warm = [_make_point(rng, e) for e in range(24)]
    ticks = _make_ticks(rng, warm, 8)
    transcripts = []
    states = []
    for threshold in FORCED_PATHS:
        monkeypatch.setattr(index_mod, "BATCH_BLOCK_THRESHOLD", threshold)
        detector = GlobalOutlierDetector(
            0, OutlierQuery(ranking, n=3), neighbors=[1, 2]
        )
        detector.add_local_points(warm)
        detector.initialize()
        transcripts.append(_transcript(detector, ticks))
        states.append((detector.holdings, detector.estimate()))
    assert transcripts[0] == transcripts[1]
    assert states[0] == states[1]


def test_semiglobal_detector_transcripts_identical(monkeypatch):
    for metric_name, params in (("euclidean", {}), ("manhattan", {})):
        rng = random.Random(37)
        ranking = AverageKNNDistance(
            3, metric=metric_from_name(metric_name, **params)
        )
        warm = [_make_point(rng, e) for e in range(20)]
        ticks = _make_ticks(rng, warm, 8)
        transcripts = []
        states = []
        for threshold in FORCED_PATHS:
            monkeypatch.setattr(index_mod, "BATCH_BLOCK_THRESHOLD", threshold)
            detector = SemiGlobalOutlierDetector(
                0, OutlierQuery(ranking, n=3), hop_diameter=2, neighbors=[1, 2]
            )
            detector.add_local_points(warm)
            detector.initialize()
            transcripts.append(_transcript(detector, ticks))
            states.append((detector.holdings, detector.estimate()))
        assert transcripts[0] == transcripts[1], metric_name
        assert states[0] == states[1], metric_name


def test_centralized_aggregator_batched_matches():
    """Window replacement and node churn through the aggregator: each
    publication applies several uploads' net change to the sink's matrix
    at once, and must publish the brute-force sink's outliers from exactly
    the pairwise matrix over the union."""
    rng = random.Random(41)
    query = OutlierQuery(AverageKNNDistance(3), n=4)
    sink = CentralizedAggregator(query)
    oracle = BruteAggregator(query)

    def update(node, points):
        for aggregator in (sink, oracle):
            aggregator.update_window(node, points)

    def assert_same_outliers():
        assert sink.compute_outliers() == oracle.compute_outliers()
        assert sink.union() == oracle.union()
        assert_sink_slots_are_pairwise(sink)

    windows = {
        node: [_make_point(rng, node * 100 + e) for e in range(12)]
        for node in range(3)
    }
    for node, points in windows.items():
        update(node, points)
    for round_no in range(5):
        node = rng.randrange(3)
        current = windows[node]
        # Overlapping replacement: some points persist across windows (and
        # across nodes via shared epochs), some churn.
        kept = [p for p in current if rng.random() < 0.6]
        fresh = [
            _make_point(rng, 1000 + round_no * 50 + e)
            for e in range(rng.randrange(1, 6))
        ]
        windows[node] = kept + fresh
        update(node, windows[node])
        assert_same_outliers()
    for aggregator in (sink, oracle):
        aggregator.forget(1)
    assert_same_outliers()
