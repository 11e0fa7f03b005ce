"""Randomized equivalence suite: the incremental index vs the brute oracle.

Theorems 1-2 of the paper hold only if every sensor computes ``O_n(P_i)``,
the support sets ``[P|x]`` and the sufficient sets *exactly*; an index that
is merely "approximately right" would silently break convergence.  These
tests therefore drive the :class:`~repro.core.index.NeighborhoodIndex`
engine and the full-recompute reference implementations through identical
randomized workloads -- scores, minimal support sets, sufficient-set
fixpoints and complete detector protocol transcripts -- across all four
ranking functions and arbitrary add/evict/message/neighborhood-change
interleavings, asserting set-level identity (not approximate closeness).
The protocol-level oracles (brute-force detectors and sink) live in
``tests/brute_oracle.py``.

Two data regimes are exercised:

* *continuous* Gaussian clouds (the generic case);
* *integer grids*, where many pairwise distances collide exactly and every
  floating-point path (scalar ``math.dist``, the numpy matrix oracle, the
  cached index lists) is provably bit-identical, so the ``≺`` tie-breaking
  logic is stressed hard.

The final section replays the same workloads for *every registered metric*
(Manhattan, Chebyshev, weighted Euclidean, Mahalanobis): the index sorts its
neighbor lists under whatever metric it is configured with, and the
equivalence guarantee -- indexed == brute-force oracle, bitwise -- must hold
per geometry, not only for the Euclidean default.
"""

from __future__ import annotations

import random

import pytest

import repro.core.global_detector as global_detector_module
import repro.core.semiglobal_detector as semiglobal_detector_module
from repro.baselines.centralized import CentralizedAggregator
from repro.core import (
    AverageKNNDistance,
    GlobalOutlierDetector,
    InMemoryNetwork,
    KthNearestNeighborDistance,
    NearestNeighborDistance,
    NeighborCountWithinRadius,
    NeighborhoodIndex,
    OutlierQuery,
    ScoreCache,
    SemiGlobalOutlierDetector,
    compute_sufficient_set,
    global_reference,
    make_point,
    satisfies_sufficiency,
    support_of_set,
    top_n_outliers,
)
from repro.core.errors import RankingError
from repro.core.metrics import metric_from_name, registered_metrics

from brute_oracle import BruteAggregator, BruteGlobalDetector, BruteSemiGlobalDetector


def random_connected_adjacency(rng: random.Random, sensors: int):
    """A random connected graph: a random tree plus a few extra edges.

    (Local copy of the helper in ``tests/conftest.py`` -- importing the
    ``conftest`` module by name would collide with ``benchmarks/conftest.py``
    when the whole repository is collected in one pytest run.)
    """
    adjacency = {i: set() for i in range(sensors)}
    order = list(range(sensors))
    rng.shuffle(order)
    for index in range(1, sensors):
        other = rng.choice(order[:index])
        adjacency[order[index]].add(other)
        adjacency[other].add(order[index])
    for _ in range(rng.randint(0, sensors)):
        a, b = rng.sample(range(sensors), 2)
        adjacency[a].add(b)
        adjacency[b].add(a)
    return {node: sorted(neighbors) for node, neighbors in adjacency.items()}


RANKINGS = [
    NearestNeighborDistance(),
    KthNearestNeighborDistance(k=3),
    AverageKNNDistance(k=4),
    # k >= 8 matters: numpy switches to pairwise summation there, so this
    # regime guards the left-to-right summation agreement between the bulk
    # oracle and the scalar/indexed paths.
    AverageKNNDistance(k=9),
    NeighborCountWithinRadius(alpha=6.0),
]
RANKING_IDS = ["nn", "kth-nn", "knn", "knn9", "count"]


def _cloud(rng: random.Random, count: int, dim: int = 2, origin: int = 0,
           start_epoch: int = 0, grid: str = "continuous"):
    """Random dataset in one of three regimes.

    ``"continuous"`` -- Gaussian coordinates (generic position, no ties);
    ``"int-grid"``   -- integer coordinates (exact arithmetic, many ties);
    ``"tenth-grid"`` -- integers scaled by 0.1, i.e. quantised sensor
    readings: distances tie *mathematically* but the coordinates are not
    exactly representable, so any code path computing distances with a
    different floating-point recipe rounds the ties apart and flips the
    ``≺`` tie-break.  This regime is what caught the ``math.dist`` vs
    vectorised-numpy divergence.
    """
    points = []
    for i in range(count):
        if grid == "int-grid":
            values = [float(rng.randint(-8, 8)) for _ in range(dim)]
        elif grid == "tenth-grid":
            values = [rng.randint(-40, 40) * 0.1 for _ in range(dim)]
        else:
            values = [rng.gauss(0.0, 10.0) for _ in range(dim)]
        points.append(make_point(values, origin=origin, epoch=start_epoch + i))
    return points


GRID_REGIMES = ["continuous", "int-grid", "tenth-grid"]


def _metric_for(name: str, dim: int = 2):
    """A registered metric instance with parameters sized for ``dim``."""
    if name == "weighted-euclidean":
        return metric_from_name(
            name, weights=tuple(0.5 + 0.5 * i for i in range(dim))
        )
    if name == "mahalanobis":
        # Diagonally dominant SPD matrix with off-diagonal correlation.
        cov = tuple(
            tuple(
                float(dim) + 2.0 + i if i == j else 0.4
                for j in range(dim)
            )
            for i in range(dim)
        )
        return metric_from_name(name, cov=cov)
    return metric_from_name(name)


def _metric_rankings(metric):
    """One representative of every ranking family, on ``metric``.  The COUNT
    radius is metric-scale dependent, so it is chosen per geometry."""
    alpha = {"chebyshev": 5.0, "mahalanobis": 3.0}.get(metric.name, 8.0)
    return [
        NearestNeighborDistance(metric=metric),
        KthNearestNeighborDistance(k=3, metric=metric),
        AverageKNNDistance(k=4, metric=metric),
        NeighborCountWithinRadius(alpha=alpha, metric=metric),
    ]


# ----------------------------------------------------------------------
# Index mechanics
# ----------------------------------------------------------------------
class TestIndexMechanics:
    def test_add_discard_roundtrip(self):
        rng = random.Random(7)
        pts = _cloud(rng, 20)
        index = NeighborhoodIndex(pts)
        assert len(index) == 20
        assert index.covers(pts)
        assert index.add(pts[0]) is False  # already present
        assert index.discard(pts[3]) is True
        assert index.discard(pts[3]) is False
        assert pts[3] not in index
        assert len(index) == 19

    def test_slot_reuse_after_eviction(self):
        rng = random.Random(8)
        pts = _cloud(rng, 10)
        index = NeighborhoodIndex(pts)
        for p in pts[:5]:
            index.discard(p)
        fresh = _cloud(rng, 5, origin=1)
        for p in fresh:
            index.add(p)
        ranking = NearestNeighborDistance()
        remaining = pts[5:] + fresh
        for x in remaining:
            assert ranking.score_indexed(index, x) == ranking.score(x, remaining)

    def test_replace_is_hop_only(self):
        rng = random.Random(9)
        pts = _cloud(rng, 6)
        index = NeighborhoodIndex(pts)
        promoted = pts[2].with_hop(3)
        assert index.replace(pts[2], promoted) is True
        assert promoted in index and pts[2] not in index
        # Geometry is untouched: scores still match the oracle.
        mirror = pts[:2] + [promoted] + pts[3:]
        ranking = AverageKNNDistance(k=2)
        for x in mirror:
            assert ranking.score_indexed(index, x) == ranking.score(x, mirror)

    def test_replace_rejects_different_observation(self):
        rng = random.Random(10)
        pts = _cloud(rng, 3)
        index = NeighborhoodIndex(pts)
        with pytest.raises(RankingError):
            index.replace(pts[0], make_point([99.0, 99.0], origin=5, epoch=77))

    def test_dimension_mismatch_rejected(self):
        index = NeighborhoodIndex([make_point([1.0, 2.0], 0, 0)])
        with pytest.raises(RankingError):
            index.add(make_point([1.0], 0, 1))

    def test_same_observation_copies_are_not_neighbors(self):
        base = make_point([0.0], origin=0, epoch=0)
        twin = base.with_hop(2)           # same ``rest``, different hop
        far = make_point([5.0], origin=0, epoch=1)
        index = NeighborhoodIndex([base, twin, far])
        ranking = NearestNeighborDistance()
        # The hop twin must not count as base's nearest neighbor.
        assert ranking.score_indexed(index, base) == 5.0
        assert ranking.score(base, [base, twin, far]) == 5.0

    def test_try_subset_full_vs_partial(self):
        rng = random.Random(11)
        pts = _cloud(rng, 12)
        index = NeighborhoodIndex(pts)
        covered, subset = index.try_subset(pts)
        assert covered and subset is None
        covered, subset = index.try_subset(pts[:5])
        assert covered and subset is not None and subset.size == 5
        covered, subset = index.try_subset(pts[:2] + [make_point([0.0, 0.0], 9, 9)])
        assert not covered

    def test_entries_is_readonly_snapshot(self):
        """``entries()`` must not hand out the live internals: it returns an
        immutable tuple, so callers cannot corrupt the index, and the
        snapshot stays intact across later mutations."""
        rng = random.Random(14)
        pts = _cloud(rng, 8)
        index = NeighborhoodIndex(pts)
        entries = index.entries(pts[0])
        assert isinstance(entries, tuple)
        with pytest.raises(TypeError):
            entries[0] = (0.0, None, 0)  # type: ignore[index]
        before = list(entries)
        assert index.discard(pts[3])
        assert list(entries) == before  # snapshot untouched
        assert len(index.entries(pts[0])) == len(before) - 1  # index moved on
        # The snapshot is ordered by (distance, ≺) like the brute oracle.
        ranking = NearestNeighborDistance()
        remaining = [p for p in pts if p != pts[3]]
        assert index.entries(pts[0])[0][0] == ranking.score(pts[0], remaining)


# ----------------------------------------------------------------------
# Scores and minimal support sets under churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", GRID_REGIMES)
@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_scores_and_supports_match_oracle_under_churn(ranking, grid):
    rng = random.Random(hash((type(ranking).__name__, grid)) & 0xFFFF)
    mirror = _cloud(rng, 30, grid=grid)
    index = NeighborhoodIndex(mirror)
    next_epoch = 1000
    for step in range(120):
        roll = rng.random()
        if roll < 0.45 and len(mirror) > 4:
            victim = rng.choice(mirror)
            mirror.remove(victim)
            assert index.discard(victim)
        else:
            fresh = _cloud(rng, 1, origin=1, start_epoch=next_epoch, grid=grid)[0]
            next_epoch += 1
            mirror.append(fresh)
            assert index.add(fresh)
        if step % 10 != 0:
            continue
        # Full-index scoring: indexed walk vs scalar oracle, bit-exact.
        for x in rng.sample(mirror, min(6, len(mirror))):
            assert ranking.score_indexed(index, x) == ranking.score(x, mirror)
            assert ranking.support_indexed(index, x) == ranking.support(x, mirror)
        # Subset scoring: masked walk vs scalar oracle on the subset.
        sub = rng.sample(mirror, max(3, len(mirror) // 2))
        covered, subset = index.try_subset(sub)
        assert covered
        for x in rng.sample(sub, min(5, len(sub))):
            assert ranking.score_indexed(index, x, subset) == ranking.score(x, sub)
            assert ranking.support_indexed(index, x, subset) == ranking.support(x, sub)
        # Ranked outliers (the detectors' estimate path), order included.
        assert (
            top_n_outliers(ranking, mirror, 5, index=index)
            == top_n_outliers(ranking, mirror, 5)
        )


@pytest.mark.parametrize("grid", GRID_REGIMES)
@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_all_scoring_paths_bitwise_identical(ranking, grid):
    """The scalar oracle, the vectorised bulk oracle and the indexed walks
    must agree *bitwise*, not approximately: a single last-ulp disagreement
    on a mathematically tied distance flips the ``≺`` tie-break and the
    detector transcripts diverge.  (Regression test for ``math.dist`` vs
    vectorised-numpy rounding on quantised readings.)"""
    rng = random.Random(hash((type(ranking).__name__, grid, "bitwise")) & 0xFFFF)
    for _ in range(6):
        pts = _cloud(rng, rng.randint(5, 24), grid=grid)
        index = NeighborhoodIndex(pts)
        bulk = ranking.bulk_scores(pts)
        for i, x in enumerate(pts):
            scalar = ranking.score(x, pts)
            assert bulk[i] == scalar
            assert ranking.score_indexed(index, x) == scalar
        assert (
            top_n_outliers(ranking, pts, 4, index=index)
            == top_n_outliers(ranking, pts, 4)
        )


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_support_of_set_matches_oracle(ranking):
    rng = random.Random(21)
    P = _cloud(rng, 40)
    index = NeighborhoodIndex(P)
    Q = rng.sample(P, 8)
    assert (
        support_of_set(ranking, Q, P, index=index)
        == support_of_set(ranking, Q, P)
    )
    sub = rng.sample(P, 17)
    Qs = rng.sample(sub, 5)
    assert (
        support_of_set(ranking, Qs, sub, index=index)
        == support_of_set(ranking, Qs, sub)
    )


# ----------------------------------------------------------------------
# Sufficient-set fixpoint
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", GRID_REGIMES)
@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_sufficient_sets_match_oracle(ranking, grid):
    rng = random.Random(hash((type(ranking).__name__, grid, "zfix")) & 0xFFFF)
    query = OutlierQuery(ranking, n=3)
    for _ in range(10):
        P = _cloud(rng, rng.randint(6, 35), grid=grid)
        index = NeighborhoodIndex(P)
        shared = set(rng.sample(P, rng.randint(0, len(P) // 2)))
        fast = compute_sufficient_set(query, P, shared, index=index)
        slow = compute_sufficient_set(query, P, shared)
        assert fast == slow
        assert satisfies_sufficiency(query, fast, P, shared)


# ----------------------------------------------------------------------
# Full protocol transcripts: production and oracle detectors in lockstep
# ----------------------------------------------------------------------
def _twin_global_networks(query, adjacency, seed):
    nets = []
    for detector_class in (GlobalOutlierDetector, BruteGlobalDetector):
        detectors = {
            i: detector_class(i, query, neighbors=adjacency[i]) for i in adjacency
        }
        nets.append(InMemoryNetwork(detectors, adjacency, seed=seed))
    return nets


def _transcript(net):
    return [(m.sender, dict(m.payloads)) for m in net.log.messages]


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_global_detector_transcripts_match_oracle(ranking):
    rng = random.Random(hash(type(ranking).__name__) & 0xFFFF)
    sensors = 5
    adjacency = random_connected_adjacency(rng, sensors)
    query = OutlierQuery(ranking, n=3)
    fast_net, slow_net = _twin_global_networks(query, adjacency, seed=42)

    datasets = {i: _cloud(rng, 8, origin=i) for i in range(sensors)}
    for net in (fast_net, slow_net):
        net.inject_local_data(datasets)
        net.run_to_quiescence()

    # Interleave evictions, fresh data and deliveries for a few rounds.  As
    # in the paper's sliding-window rule, an expired point is deleted by
    # *every* sensor holding it, so each round's expired set is evicted
    # network-wide.
    for round_index in range(4):
        expired = [
            p
            for points in datasets.values()
            for p in points
            if p.epoch % 4 == round_index % 4
        ]
        evictions = {i: expired for i in range(sensors)}
        fresh = {
            i: _cloud(rng, 2, origin=i, start_epoch=100 + 10 * round_index)
            for i in range(sensors)
        }
        for net in (fast_net, slow_net):
            net.evict(evictions)
            net.inject_local_data(fresh)
            net.run_to_quiescence()

    assert _transcript(fast_net) == _transcript(slow_net)
    assert fast_net.estimates() == slow_net.estimates()
    assert fast_net.estimates_agree() and slow_net.estimates_agree()

    # Both converge to the omniscient answer (Theorem 1).
    final = {
        i: fast_net.detectors[i].local_data for i in range(sensors)
    }
    reference = set(global_reference(query, final))
    for estimate in fast_net.estimates().values():
        assert estimate == reference


def test_global_detector_neighborhood_changes_match_oracle(nn_query):
    """Link churn: drop and re-add edges mid-run, transcripts stay equal."""
    rng = random.Random(77)
    adjacency = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    fast_net, slow_net = _twin_global_networks(nn_query, adjacency, seed=5)
    datasets = {i: _cloud(rng, 6, origin=i) for i in range(4)}
    for net in (fast_net, slow_net):
        net.inject_local_data(datasets)
        net.run_to_quiescence()

    # Bring up a shortcut link 0-3, then drop 1-2, on both twins.
    for net in (fast_net, slow_net):
        net.adjacency[0].add(3)
        net.adjacency[3].add(0)
        net.submit(net.detectors[0].neighborhood_changed({1, 3}))
        net.submit(net.detectors[3].neighborhood_changed({2, 0}))
        net.run_to_quiescence()
        net.adjacency[1].discard(2)
        net.adjacency[2].discard(1)
        net.submit(net.detectors[1].neighborhood_changed({0}))
        net.submit(net.detectors[2].neighborhood_changed({3}))
        net.run_to_quiescence()

    assert _transcript(fast_net) == _transcript(slow_net)
    assert fast_net.estimates() == slow_net.estimates()


@pytest.mark.parametrize("variant", ["refined", "paper"])
@pytest.mark.parametrize("ranking", [RANKINGS[0], RANKINGS[2]], ids=["nn", "knn"])
def test_semiglobal_detector_transcripts_match_oracle(ranking, variant):
    """Chain topology forces multi-hop forwarding, so the min-hop merge and
    its O(1) index relabelling are exercised on every round."""
    rng = random.Random(hash((type(ranking).__name__, variant)) & 0xFFFF)
    sensors = 5
    adjacency = {i: [j for j in (i - 1, i + 1) if 0 <= j < sensors]
                 for i in range(sensors)}
    query = OutlierQuery(ranking, n=2)
    nets = []
    for detector_class in (SemiGlobalOutlierDetector, BruteSemiGlobalDetector):
        detectors = {
            i: detector_class(
                i, query, hop_diameter=2, neighbors=adjacency[i], variant=variant
            )
            for i in range(sensors)
        }
        nets.append(InMemoryNetwork(detectors, adjacency, seed=13))
    fast_net, slow_net = nets

    datasets = {i: _cloud(rng, 5, origin=i) for i in range(sensors)}
    for net in (fast_net, slow_net):
        net.inject_local_data(datasets)
        net.run_to_quiescence()

    for round_index in range(3):
        expired = [
            p
            for points in datasets.values()
            for p in points
            if p.epoch % 3 == round_index % 3
        ]
        evictions = {i: expired for i in range(sensors)}
        fresh = {
            i: _cloud(rng, 2, origin=i, start_epoch=200 + 10 * round_index)
            for i in range(sensors)
        }
        for net in (fast_net, slow_net):
            net.evict(evictions)
            net.inject_local_data(fresh)
            net.run_to_quiescence()

    assert _transcript(fast_net) == _transcript(slow_net)
    assert fast_net.estimates() == slow_net.estimates()


# ----------------------------------------------------------------------
# Centralized baseline and reference computations
# ----------------------------------------------------------------------
def _replay_sink_with_irregular_queries(query, rng, monkeypatch):
    """Query the sink at irregular points and check it against the oracle.

    Between two queries come 0-6 uploads or forgets, so the sink's lazily
    synced index absorbs several uploads' net change in one batch, on
    either side of the block threshold.  Integer-grid data makes distances
    tie.  Midway, a point enters and leaves the union between two queries
    (it must never reach the index), and a sensor is forgotten and then
    re-uploads the same window (a zero net change: nothing is written).
    """
    fast = CentralizedAggregator(query)
    slow = BruteAggregator(query)
    added, evicted = [], []
    apply_batch = NeighborhoodIndex.apply_batch

    def spy(index, batch):
        if index is fast._index:
            added.extend(batch.adds)
            evicted.extend(batch.evicts)
        return apply_batch(index, batch)

    monkeypatch.setattr(NeighborhoodIndex, "apply_batch", spy)
    sensors = 4
    streams = {
        i: _cloud(rng, 40, origin=i, grid="int-grid") for i in range(sensors)
    }
    starts = dict.fromkeys(streams, 0)
    windows = {}

    def upload(node, window):
        windows[node] = window
        fast.update_window(node, window)
        slow.update_window(node, window)

    def forget(node):
        windows.pop(node, None)
        fast.forget(node)
        slow.forget(node)

    def check():
        assert fast.union() == slow.union()
        assert fast.total_points() == slow.total_points()
        assert fast.compute_outliers() == slow.compute_outliers()

    def irregular_rounds(count):
        for _ in range(count):
            for _ in range(rng.randrange(7)):
                node = rng.randrange(sensors)
                if node in windows and rng.random() < 0.2:
                    forget(node)
                    continue
                starts[node] = (starts[node] + rng.randrange(1, 4)) % 32
                start = starts[node]
                # Overlapping windows exercise the reference counts.
                upload(
                    node,
                    streams[node][start: start + 6]
                    + streams[(node + 1) % sensors][start: start + 2],
                )
            check()

    irregular_rounds(12)
    held = streams[0][:6]
    upload(0, held)
    check()
    transient = _cloud(rng, 1, origin=sensors, grid="int-grid")[0]
    upload(0, held + [transient])
    upload(0, held)
    check()
    assert transient not in added
    writes = len(added) + len(evicted)
    forget(0)
    upload(0, held)
    check()
    assert len(added) + len(evicted) == writes
    irregular_rounds(12)


def test_centralized_aggregator_matches_oracle(knn_query, monkeypatch):
    rng = random.Random(31)
    fast = CentralizedAggregator(knn_query)
    slow = BruteAggregator(knn_query)
    streams = {i: _cloud(rng, 30, origin=i) for i in range(4)}
    for round_index in range(12):
        for node in range(4):
            # Windows overlap (a point reported by two sensors), so the
            # sink's reference counting is exercised.
            window = (
                streams[node][round_index: round_index + 8]
                + streams[(node + 1) % 4][round_index: round_index + 2]
            )
            fast.update_window(node, window)
            slow.update_window(node, window)
        assert fast.union() == slow.union()
        assert fast.compute_outliers() == slow.compute_outliers()
        assert fast.total_points() == slow.total_points()
    fast.forget(2)
    slow.forget(2)
    assert fast.union() == slow.union()
    assert fast.compute_outliers() == slow.compute_outliers()
    _replay_sink_with_irregular_queries(knn_query, rng, monkeypatch)


# ----------------------------------------------------------------------
# Every registered metric: indexed engine vs brute oracle
#
# The index caches neighbor lists sorted under its configured metric, so the
# equivalence guarantee must hold per geometry, not only for the Euclidean
# default.  These tests replay the churn/scoring/support/sufficient-set and
# full-transcript workloads above for every name in the metric registry.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", GRID_REGIMES)
@pytest.mark.parametrize("metric_name", registered_metrics())
def test_scores_and_supports_match_oracle_under_every_metric(metric_name, grid):
    metric = _metric_for(metric_name)
    rng = random.Random(f"{metric_name}-{grid}-metric-churn")  # str seeds are deterministic
    mirror = _cloud(rng, 24, grid=grid)
    index = NeighborhoodIndex(mirror, metric=metric)
    rankings = _metric_rankings(metric)
    next_epoch = 1000
    for step in range(60):
        if rng.random() < 0.45 and len(mirror) > 5:
            victim = rng.choice(mirror)
            mirror.remove(victim)
            assert index.discard(victim)
        else:
            fresh = _cloud(rng, 1, origin=1, start_epoch=next_epoch, grid=grid)[0]
            next_epoch += 1
            mirror.append(fresh)
            assert index.add(fresh)
        if step % 12 != 0:
            continue
        for ranking in rankings:
            # Bulk oracle, scalar oracle and indexed walks, bitwise.
            bulk = ranking.bulk_scores(mirror)
            for i, x in enumerate(rng.sample(mirror, min(5, len(mirror)))):
                scalar = ranking.score(x, mirror)
                assert ranking.score_indexed(index, x) == scalar
                assert bulk[mirror.index(x)] == scalar
                assert ranking.support_indexed(index, x) == ranking.support(x, mirror)
            # Subset scoring (the sufficient-set fixpoint shape).
            sub = rng.sample(mirror, max(4, len(mirror) // 2))
            covered, subset = index.try_subset(sub)
            assert covered
            for x in rng.sample(sub, min(4, len(sub))):
                assert ranking.score_indexed(index, x, subset) == ranking.score(x, sub)
                assert (
                    ranking.support_indexed(index, x, subset)
                    == ranking.support(x, sub)
                )
            assert (
                top_n_outliers(ranking, mirror, 5, index=index)
                == top_n_outliers(ranking, mirror, 5)
            )


@pytest.mark.parametrize("metric_name", registered_metrics())
def test_sufficient_sets_match_oracle_under_every_metric(metric_name):
    metric = _metric_for(metric_name)
    rng = random.Random(f"{metric_name}-metric-zfix")
    for ranking in _metric_rankings(metric):
        query = OutlierQuery(ranking, n=3)
        for _ in range(4):
            P = _cloud(rng, rng.randint(8, 28))
            index = NeighborhoodIndex(P, metric=metric)
            shared = set(rng.sample(P, rng.randint(0, len(P) // 2)))
            fast = compute_sufficient_set(query, P, shared, index=index)
            slow = compute_sufficient_set(query, P, shared)
            assert fast == slow
            assert satisfies_sufficiency(query, fast, P, shared)


@pytest.mark.parametrize(
    "metric_name", [name for name in registered_metrics() if name != "euclidean"]
)
def test_global_detector_transcripts_match_oracle_under_metric(metric_name):
    """Whole-protocol equivalence under non-Euclidean geometry: the
    production and brute-force detectors (both constructing their state
    from a metric-carrying query) must emit identical transcripts."""
    metric = _metric_for(metric_name)
    rng = random.Random(f"{metric_name}-transcripts")
    sensors = 4
    adjacency = random_connected_adjacency(rng, sensors)
    query = OutlierQuery(AverageKNNDistance(k=3, metric=metric), n=3)
    fast_net, slow_net = _twin_global_networks(query, adjacency, seed=17)

    datasets = {i: _cloud(rng, 6, origin=i) for i in range(sensors)}
    for net in (fast_net, slow_net):
        net.inject_local_data(datasets)
        net.run_to_quiescence()

    for round_index in range(3):
        expired = [
            p
            for points in datasets.values()
            for p in points
            if p.epoch % 3 == round_index % 3
        ]
        evictions = {i: expired for i in range(sensors)}
        fresh = {
            i: _cloud(rng, 2, origin=i, start_epoch=300 + 10 * round_index)
            for i in range(sensors)
        }
        for net in (fast_net, slow_net):
            net.evict(evictions)
            net.inject_local_data(fresh)
            net.run_to_quiescence()

    assert _transcript(fast_net) == _transcript(slow_net)
    assert fast_net.estimates() == slow_net.estimates()
    assert fast_net.estimates_agree() and slow_net.estimates_agree()

    # Convergence to the omniscient answer holds under any metric
    # (Theorem 1 never uses properties of the Euclidean distance).
    final = {i: fast_net.detectors[i].local_data for i in range(sensors)}
    reference = set(global_reference(query, final))
    for estimate in fast_net.estimates().values():
        assert estimate == reference


def test_indexed_paths_reject_mismatched_metric():
    """Querying an index built under one metric with a ranking configured
    for another must fail loudly, not silently score in the wrong
    geometry."""
    rng = random.Random("metric-mismatch")
    pts = _cloud(rng, 8)
    euclidean_index = NeighborhoodIndex(pts)  # default metric
    manhattan = metric_from_name("manhattan")
    ranking = AverageKNNDistance(k=3, metric=manhattan)
    with pytest.raises(RankingError):
        ranking.score_indexed(euclidean_index, pts[0])
    with pytest.raises(RankingError):
        ranking.support_indexed(euclidean_index, pts[0])
    with pytest.raises(RankingError):
        ranking.bulk_scores_indexed(euclidean_index, pts)
    # A matching index (separately constructed but same geometry) is fine.
    manhattan_index = NeighborhoodIndex(pts, metric=metric_from_name("manhattan"))
    assert (
        ranking.score_indexed(manhattan_index, pts[0])
        == ranking.score(pts[0], pts)
    )


# ----------------------------------------------------------------------
# Dirty-set rescoring: randomized event streams vs the brute oracle
#
# The ScoreCache rescores only the points whose k-neighbor frontier an event
# perturbed, so these tests drive indexed (cached) and brute-force detector
# twins through interleaved add/evict/replace/message/neighborhood streams
# and assert that every emitted message, every estimate and the final state
# coincide -- under every registered metric, not only the Euclidean default.
# ----------------------------------------------------------------------
def _message_view(message):
    return None if message is None else (message.sender, dict(message.payloads))


#: Both k-NN rankings: the head-scored families the per-event memos and the
#: masked subset walk serve.
KNN_FAMILIES = (AverageKNNDistance, KthNearestNeighborDistance)


@pytest.fixture
def fixpoint_oracle(monkeypatch):
    """Check every production detector fixpoint against a fresh one on the
    same arguments -- without the per-event memos, the precomputed estimate
    or the index -- and against eq. 2 itself.  Returns the checked sets, so
    a test can assert that there were some."""
    checked_results = []

    def checked(query, holdings, known_shared, **kwargs):
        Z = compute_sufficient_set(query, holdings, known_shared, **kwargs)
        assert Z == compute_sufficient_set(query, holdings, known_shared)
        assert satisfies_sufficiency(query, Z, holdings, known_shared)
        checked_results.append(Z)
        return Z

    for module in (global_detector_module, semiglobal_detector_module):
        monkeypatch.setattr(module, "compute_sufficient_set", checked)
    return checked_results


def _assert_event_equal(fast, slow, fast_msg, slow_msg, query):
    assert _message_view(fast_msg) == _message_view(slow_msg)
    assert fast.holdings == slow.holdings
    assert fast.estimate() == slow.estimate()
    # The cache's maintained order must equal the oracle ranking whenever
    # the detectors would trust it.
    cache = getattr(fast, "_cache", None)
    if cache is not None and not cache.degraded:
        assert cache.top_n(query.n) == fast.estimate()


@pytest.mark.parametrize("metric_name", registered_metrics())
def test_global_dirty_rescoring_event_stream_matches_oracle(
    metric_name, fixpoint_oracle
):
    metric = _metric_for(metric_name)
    for family in KNN_FAMILIES:
        rng = random.Random(f"{metric_name}-{family.__name__}-global-stream")
        _replay_global_stream(rng, OutlierQuery(family(k=3, metric=metric), n=3))
    assert fixpoint_oracle


def _replay_global_stream(rng, query):
    fast = GlobalOutlierDetector(0, query, neighbors=[1, 2])
    slow = BruteGlobalDetector(0, query, neighbors=[1, 2])
    assert fast._cache is not None  # the built-in rankings support caching

    pool = []
    epoch = 0
    for step in range(60):
        roll = rng.random()
        if roll < 0.30 or len(pool) < 4:
            fresh = _cloud(rng, rng.randint(1, 3), start_epoch=epoch)
            epoch += 3
            pool.extend(fresh)
            events = [d.add_local_points(fresh) for d in (fast, slow)]
        elif roll < 0.50:
            victims = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            for victim in victims:
                pool.remove(victim)
            events = [d.evict_points(victims) for d in (fast, slow)]
        elif roll < 0.70 and fast.neighbors:
            sender = rng.choice(sorted(fast.neighbors))
            # Echo back points already held, sometimes alone: the production
            # detector skips a duplicate-only delivery, the oracle reruns it.
            echoed = rng.sample(pool, rng.randint(0, min(2, len(pool))))
            delivered = _cloud(
                rng, rng.randint(0 if echoed else 1, 3), origin=sender,
                start_epoch=epoch,
            )
            epoch += 3
            pool.extend(delivered)
            delivered += echoed
            events = [d.handle_message(sender, delivered) for d in (fast, slow)]
        elif roll < 0.85:
            fresh = _cloud(rng, 1, start_epoch=epoch)
            epoch += 1
            victims = rng.sample(pool, min(2, len(pool)))
            for victim in victims:
                pool.remove(victim)
            pool.extend(fresh)
            events = [
                d.update_local_data(fresh, victims) for d in (fast, slow)
            ]
        else:
            neighbors = rng.choice([{1}, {2}, {1, 2}])
            events = [d.neighborhood_changed(neighbors) for d in (fast, slow)]
        _assert_event_equal(fast, slow, events[0], events[1], query)


@pytest.mark.parametrize("metric_name", registered_metrics())
def test_semiglobal_dirty_rescoring_event_stream_matches_oracle(
    metric_name, fixpoint_oracle
):
    """Interleaved add/evict/replace/message streams: re-delivering a held
    observation at a smaller hop exercises the O(1) relabel path and the
    per-level caches' membership churn on every round."""
    metric = _metric_for(metric_name)
    for family in KNN_FAMILIES:
        rng = random.Random(f"{metric_name}-{family.__name__}-semiglobal-stream")
        _replay_semiglobal_stream(
            rng, OutlierQuery(family(k=2, metric=metric), n=2)
        )
    assert fixpoint_oracle


def _replay_semiglobal_stream(rng, query):
    fast = SemiGlobalOutlierDetector(0, query, hop_diameter=2, neighbors=[1, 2])
    slow = BruteSemiGlobalDetector(0, query, hop_diameter=2, neighbors=[1, 2])
    assert fast._caches is not None and len(fast._caches) == 2

    pool = []
    delivered_history = []
    epoch = 0
    for step in range(60):
        roll = rng.random()
        if roll < 0.30 or len(pool) < 4:
            fresh = _cloud(rng, rng.randint(1, 2), start_epoch=epoch)
            epoch += 2
            pool.extend(fresh)
            events = [d.add_local_points(fresh) for d in (fast, slow)]
        elif roll < 0.50:
            victims = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            for victim in victims:
                pool.remove(victim)
            events = [d.evict_points(victims) for d in (fast, slow)]
        else:
            sender = rng.choice([1, 2])
            points = []
            for _ in range(rng.randint(1, 3)):
                if delivered_history and rng.random() < 0.45:
                    # Re-deliver a known observation, sometimes at a smaller
                    # hop -- the [·]^min merge replaces the held copy.
                    previous = rng.choice(delivered_history)
                    hop = max(1, previous.hop - rng.randint(0, 1))
                    points.append(previous.with_hop(hop))
                else:
                    fresh = _cloud(
                        rng, 1, origin=sender, start_epoch=epoch
                    )[0].with_hop(rng.randint(1, 2))
                    epoch += 1
                    points.append(fresh)
            delivered_history.extend(points)
            pool.extend(p for p in points if p.rest not in
                        {q.rest for q in pool})
            events = [d.handle_message(sender, points) for d in (fast, slow)]
        _assert_event_equal(fast, slow, events[0], events[1], query)


def test_score_cache_matches_oracle_under_churn_and_degrades_on_twins():
    rng = random.Random("score-cache-churn")
    ranking = AverageKNNDistance(k=3)
    index = NeighborhoodIndex()
    cache = ScoreCache(index, ranking)
    assert cache.supported
    mirror = []
    epoch = 0
    for step in range(80):
        if rng.random() < 0.55 or len(mirror) < 5:
            fresh = _cloud(rng, 1, start_epoch=epoch)[0]
            epoch += 1
            index.add(fresh)
            mirror.append(fresh)
        else:
            victim = rng.choice(mirror)
            mirror.remove(victim)
            index.discard(victim)
        assert not cache.degraded
        assert cache.top_n(4) == top_n_outliers(ranking, mirror, 4, index=index)
        assert len(cache) == len(mirror)
    # Two hop variants of one observation break strict (score, ≺) ordering,
    # so the cache must flag itself rather than return a slot-order answer...
    twin = mirror[0].with_hop(7)
    index.add(twin)
    assert cache.degraded
    # ...and recover (with correct answers) once the twin leaves.
    index.discard(twin)
    assert not cache.degraded
    assert cache.top_n(4) == top_n_outliers(ranking, mirror, 4, index=index)


def test_score_cache_unsupported_without_frontier_spec():
    """Rankings that do not expose a frontier structure (user-defined
    subclasses) must leave the cache unsupported; detectors then take the
    legacy full path and still match the oracle."""

    class OpaqueRanking(AverageKNNDistance):
        def frontier_spec(self):
            return None

    rng = random.Random("opaque")
    index = NeighborhoodIndex(_cloud(rng, 6))
    assert ScoreCache.if_supported(index, OpaqueRanking(k=2)) is None
    # Direct construction still yields a fully initialized (inert) object.
    cache = ScoreCache(index, OpaqueRanking(k=2))
    assert not cache.supported and cache.degraded
    assert len(cache) == 0
    assert cache.member_points() == []
    assert cache.top_n(3) == []

    query = OutlierQuery(OpaqueRanking(k=2), n=2)
    fast = GlobalOutlierDetector(0, query, neighbors=[1])
    slow = BruteGlobalDetector(0, query, neighbors=[1])
    assert fast._cache is None
    epoch = 0
    for _ in range(10):
        fresh = _cloud(rng, 2, start_epoch=epoch)
        epoch += 2
        fast_msg = fast.add_local_points(fresh)
        slow_msg = slow.add_local_points(fresh)
        assert _message_view(fast_msg) == _message_view(slow_msg)
        assert fast.estimate() == slow.estimate()


@pytest.mark.parametrize(
    "metric_name", [name for name in registered_metrics() if name != "euclidean"]
)
def test_centralized_aggregator_matches_oracle_under_metric(
    metric_name, monkeypatch
):
    metric = _metric_for(metric_name)
    rng = random.Random(f"{metric_name}-sink")
    query = OutlierQuery(KthNearestNeighborDistance(k=2, metric=metric), n=3)
    fast = CentralizedAggregator(query)
    slow = BruteAggregator(query)
    streams = {i: _cloud(rng, 18, origin=i) for i in range(3)}
    for round_index in range(8):
        for node in range(3):
            window = streams[node][round_index: round_index + 6]
            fast.update_window(node, window)
            slow.update_window(node, window)
        assert fast.compute_outliers() == slow.compute_outliers()
    _replay_sink_with_irregular_queries(query, rng, monkeypatch)
