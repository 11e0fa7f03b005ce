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

import numpy as np
import pytest

import repro.core.index as index_mod
from repro.baselines.centralized import CentralizedAggregator
from repro.core import (
    AverageKNNDistance,
    EventBatch,
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
from repro.core.errors import ProtocolError, RankingError
from repro.core.metrics import metric_from_name, registered_metrics
from repro.core.sufficient import SlotFixpoint

from brute_oracle import (
    BruteAggregator,
    BruteGlobalDetector,
    BruteSemiGlobalDetector,
    assert_sink_slots_are_pairwise,
)


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
        assert all(p in index for p in pts)
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

    def test_second_attach_of_an_observer_is_rejected(self):
        """An observer attached twice would see every mutation twice."""
        rng = random.Random(11)
        index = NeighborhoodIndex(_cloud(rng, 5))
        cache = ScoreCache(index, NearestNeighborDistance())  # attaches itself
        observers = list(index._observers)
        with pytest.raises(RankingError, match="already attached"):
            index.attach(cache)
        assert index._observers == observers
        index.add(make_point([50.0, 50.0], origin=9, epoch=1))
        assert len(cache) == len(index) == 6

    def test_same_observation_copies_are_not_neighbors(self, monkeypatch):
        """The oracle scores any point set and skips same-key candidates;
        the index holds one copy per observation and refuses a second."""
        base = make_point([0.0], origin=0, epoch=0)
        twin = base.with_hop(2)           # same ``rest``, different hop
        far = make_point([5.0], origin=0, epoch=1)
        ranking = NearestNeighborDistance()
        # The hop twin must not count as base's nearest neighbor.
        assert ranking.score(base, [base, twin, far]) == 5.0
        with pytest.raises(RankingError):
            NeighborhoodIndex([base, twin, far])
        index = NeighborhoodIndex([base, far])
        assert ranking.score_indexed(index, base) == 5.0
        before = _index_state(index)
        with pytest.raises(RankingError):
            index.add(twin)
        with pytest.raises(RankingError):
            index.apply_batch(EventBatch(adds=[twin]))  # checked by add
        assert _index_state(index) == before

        # A batch's additions are checked against the index after the
        # evictions (here the block eviction): a bad batch leaves the
        # evictions alone applied.
        monkeypatch.setattr(index_mod, "BATCH_BLOCK_THRESHOLD", -1)
        rng = random.Random("second-copy")
        pts = _cloud(rng, 8)
        fresh = _cloud(rng, 2, start_epoch=50)
        evicts = pts[:3]
        for adds in (
            [fresh[0], pts[5].with_hop(1)],  # a copy of an indexed point
            [fresh[0], fresh[1], fresh[1].with_hop(1)],  # two in the batch
        ):
            blocked = NeighborhoodIndex(pts)
            with pytest.raises(RankingError):
                blocked.apply_batch(EventBatch(adds=adds, evicts=evicts))
            oracle = NeighborhoodIndex(pts)
            for point in evicts:
                oracle.discard(point)
            assert _index_state(blocked) == _index_state(oracle)
        # One copy out and another in within a batch is legal.
        blocked = NeighborhoodIndex(pts)
        blocked.apply_batch(
            EventBatch(adds=[fresh[0], pts[0].with_hop(1)], evicts=evicts)
        )
        assert pts[0].with_hop(1) in blocked and pts[0] not in blocked

    @pytest.mark.parametrize("evictions", [0, 5])
    @pytest.mark.parametrize("bad", ["indexed-copy", "batch-copy", "dimension"])
    def test_bad_addition_leaves_only_the_evictions_applied(self, bad, evictions):
        """A batch of two or more additions is all-or-nothing at every size:
        a bad addition anywhere in it raises with every eviction applied
        and no addition made, after evictions through ``discard`` (0) or
        the block eviction (5)."""
        rng = random.Random(f"all-or-nothing-{bad}-{evictions}")
        pts = _cloud(rng, 12)
        evicts = pts[:evictions]
        for size in (2, 3, 6):
            for position in (1, 2, 5):
                if position >= size:
                    continue
                adds = _cloud(rng, size, start_epoch=100)
                if bad == "indexed-copy":
                    adds[position] = pts[-1].with_hop(1)
                elif bad == "batch-copy":
                    adds[position] = adds[position - 1].with_hop(1)
                else:
                    adds[position] = make_point([1.0, 2.0, 3.0], origin=7, epoch=1)
                index = NeighborhoodIndex(pts)
                with pytest.raises(RankingError):
                    index.apply_batch(EventBatch(adds=adds, evicts=evicts))
                oracle = NeighborhoodIndex(pts)
                for point in evicts:
                    oracle.discard(point)
                assert _index_state(index) == _index_state(oracle), (size, position)

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
    rng = random.Random(f"{type(ranking).__name__}-{grid}-churn")
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
        # Full-index scoring and the slot kernel's supports: indexed walks
        # vs scalar oracle, bit-exact.
        query = OutlierQuery(ranking, n=5)
        full = _slot_fixpoint(query, index, mirror)
        for x in rng.sample(mirror, min(6, len(mirror))):
            assert ranking.score_indexed(index, x) == ranking.score(x, mirror)
            assert _kernel_support(full, x) == ranking.support(x, mirror)
        # Subset scoring: masked walk vs scalar oracle on the subset.
        sub = rng.sample(mirror, max(3, len(mirror) // 2))
        covered, subset = index.try_subset(sub)
        assert covered
        masked = _slot_fixpoint(query, index, sub)
        for x in rng.sample(sub, min(5, len(sub))):
            assert ranking.score_indexed(index, x, subset) == ranking.score(x, sub)
            assert _kernel_support(masked, x) == ranking.support(x, sub)
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
    rng = random.Random(f"{type(ranking).__name__}-{grid}-bitwise")
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


@pytest.mark.parametrize("grid", GRID_REGIMES)
@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_scores_from_distances_match_scalar_scores(ranking, grid):
    """The matrix kernel the bulk oracle and the centralized sink share
    returns, bit for bit, the float ``score`` returns for every point --
    also for sets of at most k points, where every score is a deficit
    score, and for sets holding hop copies of one observation, which the
    matrix marks ``+inf`` (not neighbors)."""
    rng = random.Random(f"{type(ranking).__name__}-{grid}-from-distances")
    for size in (0, 1, 2, 3, 4, 9, 10, 17):
        Q = _cloud(rng, size, grid=grid)
        Q += [p.with_hop(1 + i % 2) for i, p in enumerate(Q) if i % 3 == 0]
        for points in (Q[:size], Q):
            fast = ranking.scores_from_distances(ranking._pairwise_distances(points))
            scalar = [ranking.score(p, points) for p in points]
            assert np.array_equal(
                np.array(fast, dtype=float).view(np.int64),
                np.array(scalar, dtype=float).view(np.int64),
            ), (size, len(points))


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_support_of_set_matches_oracle(ranking):
    """``[P|Q]`` as the union of the slot kernel's supports, over the whole
    index and over a masked ``P``."""
    rng = random.Random(21)
    query = OutlierQuery(ranking, n=3)
    P = _cloud(rng, 40)
    index = NeighborhoodIndex(P)
    Q = rng.sample(P, 8)
    full = _slot_fixpoint(query, index, P)
    kernel = set().union(*(_kernel_support(full, x) for x in Q))
    assert kernel == support_of_set(ranking, Q, P)
    sub = rng.sample(P, 17)
    Qs = rng.sample(sub, 5)
    masked = _slot_fixpoint(query, index, sub)
    kernel = set().union(*(_kernel_support(masked, x) for x in Qs))
    assert kernel == support_of_set(ranking, Qs, sub)


# ----------------------------------------------------------------------
# Sufficient-set fixpoint
# ----------------------------------------------------------------------
def _slot_fixpoint(query, index, P):
    """The slot kernel over ``P ⊆ index``, started from ``O_n(P)``."""
    covered, subset = index.try_subset(P)
    assert covered
    estimate = [index.slot_for(p) for p in top_n_outliers(query.ranking, P, query.n)]
    return SlotFixpoint(query, index, subset, estimate, {})


def _points_of(index, slots):
    return {index.point_at(slot) for slot in slots}


def _index_state(index):
    """Every indexed point with its neighbor list, and the free slots."""
    return [(p, index.entries(p)) for p in index.points()], list(index._free)


def _kernel_support(fixpoint, x):
    """The slot kernel's ``[P|x]``, as points."""
    index = fixpoint.index
    return _points_of(index, fixpoint.support(index.slot_for(x)))


def _check_slot_fixpoint(query, rng, P, others, metric=None):
    """The slot kernel's Z, on the points behind its slots, equals the
    index-free fixpoint and satisfies eq. 2.  ``others`` are indexed points
    outside ``P``: a semi-global neighbor's shared set reaches beyond a hop
    level's ``P``."""
    index = NeighborhoodIndex(P + others, metric=metric)
    pool = P + others
    shared = set(rng.sample(pool, rng.randint(0, len(pool) // 2)))
    fixpoint = _slot_fixpoint(query, index, P)
    fast = _points_of(index, fixpoint.run(frozenset(map(index.slot_for, shared))))
    slow = compute_sufficient_set(query, P, shared)
    assert fast == slow
    assert satisfies_sufficiency(query, fast, P, shared)


@pytest.mark.parametrize("grid", GRID_REGIMES)
@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_sufficient_sets_match_oracle(ranking, grid):
    rng = random.Random(f"{type(ranking).__name__}-{grid}-zfix")
    query = OutlierQuery(ranking, n=3)
    for _ in range(10):
        P = _cloud(rng, rng.randint(6, 35), grid=grid)
        others = _cloud(rng, rng.randint(0, 6), origin=1, grid=grid)
        _check_slot_fixpoint(query, rng, P, others)


@pytest.mark.parametrize("metric_name", registered_metrics())
def test_slot_kernel_outliers_and_supports_match_brute_force(metric_name):
    """``O_n(C)`` and ``[P|x]`` over slot sets equal the brute-force
    ranking and support on the points behind the slots -- including sets
    too small to give a point k neighbors (deficit scores) and neighbors
    exactly at the count ranking's radius.  The masked row scores over
    ``P``, which come from the ranking method the kernel scores with, are
    checked too: every member of one ``C`` lacks equally many neighbors,
    so ``O_n(C)`` alone cannot tell deficit sizes apart."""
    metric = _metric_for(metric_name)
    rng = random.Random(f"{metric_name}-slot-kernel")
    at_alpha = deficits = 0
    for _ in range(8):
        points = _cloud(rng, rng.randint(3, 18), grid="int-grid")
        # The radius is the distance of one pair, so that pair sits exactly
        # at α under every metric.
        a, b = rng.sample(points, 2)
        alpha = metric.distance(a.values, b.values) or 1.0
        index = NeighborhoodIndex(points, metric=metric)
        rankings = [
            NearestNeighborDistance(metric=metric),
            KthNearestNeighborDistance(k=3, metric=metric),
            AverageKNNDistance(k=3, metric=metric),
            NeighborCountWithinRadius(alpha=alpha, metric=metric),
        ]
        for ranking in rankings:
            query = OutlierQuery(ranking, n=2)
            P = rng.sample(points, rng.randint(1, len(points)))
            fixpoint = _slot_fixpoint(query, index, P)
            for x in points:
                support = fixpoint.support(index.slot_for(x))
                assert _points_of(index, support) == ranking.support(x, P)
            subset = fixpoint.subset
            for x in P:
                assert ranking.score_indexed(index, x, subset) == ranking.score(x, P)
            for size in (1, 2, 3, 4, rng.randint(1, len(points))):
                C = rng.sample(points, min(size, len(points)))
                top = fixpoint.outliers(frozenset(map(index.slot_for, C)))
                expected = top_n_outliers(ranking, C, query.n)
                if len(C) <= query.n:
                    assert _points_of(index, top) == set(expected)
                else:
                    assert [index.point_at(slot) for slot in top] == expected
                k = getattr(ranking, "k", None)
                deficits += k is not None and query.n < len(C) <= k
                at_alpha += k is None and any(
                    metric.distance(x.values, y.values) == alpha
                    for x in C for y in C if x is not y
                )
    assert deficits and at_alpha


def test_slot_kernel_returns_a_covering_start_without_scoring(monkeypatch):
    """A start set that already holds every slot of ``P`` is returned at
    once; a start set that does not is scored."""
    scorings = []
    outliers = SlotFixpoint.outliers

    def counted(fixpoint, C):
        scorings.append(C)
        return outliers(fixpoint, C)

    monkeypatch.setattr(SlotFixpoint, "outliers", counted)
    query = OutlierQuery(NearestNeighborDistance(), n=2)
    # O_2(P) = {10, 1}, and their supports {1} and {0} complete P.
    P = [make_point([v], 0, i) for i, v in enumerate([0.0, 1.0, 10.0])]
    others = [make_point([v], 1, i) for i, v in enumerate([0.5, 30.0])]
    index = NeighborhoodIndex(P + others)
    fixpoint = _slot_fixpoint(query, index, P)
    assert _points_of(index, fixpoint.start) == set(P)
    shared = frozenset(map(index.slot_for, others))
    assert fixpoint.run(shared) == fixpoint.start
    assert fixpoint.run(frozenset()) == fixpoint.start
    assert scorings == []
    # A P the start does not cover is scored.
    wide = P + [make_point([5.0], 0, 9)]
    index = NeighborhoodIndex(wide + others)
    fixpoint = _slot_fixpoint(query, index, wide)
    assert len(fixpoint.start) < len(wide)
    Z = fixpoint.run(frozenset(map(index.slot_for, others)))
    assert scorings
    assert _points_of(index, Z) == compute_sufficient_set(query, wide, others)


def _uncovered_fixpoint(monkeypatch):
    """A kernel whose start does not cover ``P`` (so an unbounded run
    scores), the shared slots it is run with, and the ``O_n(C)`` scorings
    it makes."""
    scorings = []
    outliers = SlotFixpoint.outliers

    def counted(fixpoint, C):
        scorings.append(C)
        return outliers(fixpoint, C)

    monkeypatch.setattr(SlotFixpoint, "outliers", counted)
    query = OutlierQuery(NearestNeighborDistance(), n=2)
    P = [make_point([v], 0, i) for i, v in enumerate([0.0, 1.0, 10.0, 5.0])]
    others = [make_point([v], 1, i) for i, v in enumerate([0.5, 30.0])]
    index = NeighborhoodIndex(P + others)
    fixpoint = _slot_fixpoint(query, index, P)
    assert len(fixpoint.start) < len(P)
    return fixpoint, frozenset(map(index.slot_for, others)), scorings


def test_slot_kernel_target_inside_the_start_scores_nothing(monkeypatch):
    fixpoint, shared, scorings = _uncovered_fixpoint(monkeypatch)
    for slot in fixpoint.start:
        assert fixpoint.run(shared, frozenset({slot})) == fixpoint.start
    assert fixpoint.run(shared, fixpoint.start) == fixpoint.start
    assert scorings == []
    # The same run without a target scores.
    fixpoint.run(shared)
    assert scorings


def test_slot_kernel_empty_target_returns_the_start(monkeypatch):
    fixpoint, shared, scorings = _uncovered_fixpoint(monkeypatch)
    assert fixpoint.run(shared, frozenset()) == fixpoint.start
    assert fixpoint.run(frozenset(), frozenset()) == fixpoint.start
    assert scorings == []


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
    rng = random.Random(f"{type(ranking).__name__}-global-transcripts")
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
    rng = random.Random(f"{type(ranking).__name__}-{variant}-semiglobal-transcripts")
    _check_semiglobal_transcripts(rng, ranking, variant, hop_diameter=2)


@pytest.mark.parametrize("hop_diameter", [1, 3])
@pytest.mark.parametrize("variant", ["refined", "paper"])
@pytest.mark.parametrize("ranking", [RANKINGS[0], RANKINGS[2]], ids=["nn", "knn"])
def test_semiglobal_detector_transcripts_match_oracle_at_other_diameters(
    ranking, variant, hop_diameter
):
    """One level (every run starts at level 0) and three levels (a neighbor
    that knows the low levels' points skips their runs)."""
    rng = random.Random(
        f"{type(ranking).__name__}-{variant}-d{hop_diameter}-semiglobal-transcripts"
    )
    _check_semiglobal_transcripts(rng, ranking, variant, hop_diameter)


def _check_semiglobal_transcripts(rng, ranking, variant, hop_diameter):
    sensors = 5
    adjacency = {i: [j for j in (i - 1, i + 1) if 0 <= j < sensors]
                 for i in range(sensors)}
    query = OutlierQuery(ranking, n=2)
    nets = []
    for detector_class in (SemiGlobalOutlierDetector, BruteSemiGlobalDetector):
        detectors = {
            i: detector_class(
                i, query, hop_diameter=hop_diameter, neighbors=adjacency[i],
                variant=variant,
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
    synced matrix absorbs several uploads' net change at once.
    Integer-grid data makes distances tie.  Midway, a point enters and
    leaves the union between two queries (it must never reach the sink's
    points), and a sensor is forgotten and then re-uploads the same window
    (a zero net change: no distance is computed).
    """
    fast = CentralizedAggregator(query)
    slow = BruteAggregator(query)
    metric = query.ranking.metric
    kernel_calls = []
    for name in ("cross", "pairwise"):

        def spy(*args, _original=getattr(metric, name), _name=name):
            kernel_calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(metric, name, spy)
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
        """Compare with the oracle; return the kernels the sink's sync ran."""
        assert fast.union() == slow.union()
        assert fast.total_points() == slow.total_points()
        expected = slow.compute_outliers()
        kernel_calls.clear()
        assert fast.compute_outliers() == expected
        synced = list(kernel_calls)
        assert_sink_slots_are_pairwise(fast)
        return synced

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
    assert transient not in fast._points
    forget(0)
    upload(0, held)
    assert check() == []
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


def _sink_ranking(name, metric):
    alpha = {"chebyshev": 5.0, "mahalanobis": 3.0}.get(metric.name, 8.0)
    return {
        "nn": NearestNeighborDistance(metric=metric),
        "2nd-nn": KthNearestNeighborDistance(k=2, metric=metric),
        "avg-3nn": AverageKNNDistance(k=3, metric=metric),
        "count": NeighborCountWithinRadius(alpha=alpha, metric=metric),
    }[name]


@pytest.mark.parametrize("ranking_name", ["nn", "2nd-nn", "avg-3nn", "count"])
@pytest.mark.parametrize("metric_name", registered_metrics())
def test_matrix_sink_matches_oracle(metric_name, ranking_name, monkeypatch):
    """The sink's maintained matrix publishes the oracle's ``O_n`` for
    every built-in ranking under every metric, on integer-grid data.  It
    starts from unions of 0, 1 and at most k points (every k-NN score a
    deficit score), then replays overlapping windows, forgets and
    re-uploads."""
    query = OutlierQuery(_sink_ranking(ranking_name, _metric_for(metric_name)), n=3)
    rng = random.Random(f"{metric_name}-{ranking_name}-matrix-sink")
    fast = CentralizedAggregator(query)
    slow = BruteAggregator(query)
    pts = _cloud(rng, 3, origin=9, grid="int-grid")
    script = [(0, pts[:1]), (1, pts[:2]), (0, pts[1:3]), (1, []), (0, [])]
    assert fast.compute_outliers() == slow.compute_outliers() == []
    for node, window in script:
        fast.update_window(node, window)
        slow.update_window(node, window)
        assert fast.compute_outliers() == slow.compute_outliers()
        assert_sink_slots_are_pairwise(fast)
    assert fast.total_points() == 0
    _replay_sink_with_irregular_queries(query, rng, monkeypatch)


def test_sink_slides_keep_the_largest_union_and_compute_only_arrivals(
    knn_query, monkeypatch
):
    """Forty rounds of one-point window slides per sensor, after windows
    that fill up and with sensors that skip a round or are forgotten: the
    matrix stays at the largest union seen, every sync's ``cross`` takes
    only that sync's arrivals against the held points and its ``pairwise``
    only the arrivals, and the sink publishes the oracle's answer."""
    rng = random.Random(43)
    sink = CentralizedAggregator(knn_query)
    oracle = BruteAggregator(knn_query)
    metric = knn_query.ranking.metric
    calls = []
    for name in ("cross", "pairwise"):

        def spy(*args, _original=getattr(metric, name), _name=name):
            calls.append((_name, [sorted(map(tuple, vectors)) for vectors in args]))
            return _original(*args)

        monkeypatch.setattr(metric, name, spy)
    sensors, width = 5, 4
    streams = {i: _cloud(rng, 44, origin=i) for i in range(sensors)}
    previous, largest, most_free = set(), 0, 0
    for round_index in range(40):
        for node in range(sensors):
            draw = rng.random()
            if draw < 0.1:
                continue  # no upload this round: the window stays
            for aggregator in (sink, oracle):
                if draw < 0.15:
                    aggregator.forget(node)
                else:
                    start = max(0, round_index - width + 1)
                    aggregator.update_window(
                        node, streams[node][start: round_index + 1]
                    )
        union = oracle.union()
        arrivals = sorted(point.values for point in union - previous)
        held = sorted(point.values for point in union & previous)
        largest = max(largest, len(union))
        published = oracle.compute_outliers()
        calls.clear()
        assert sink.compute_outliers() == published
        expected = (
            [("cross", [arrivals, held]), ("pairwise", [arrivals])]
            if arrivals
            else []
        )
        assert calls == expected
        assert len(sink._points) == largest
        assert_sink_slots_are_pairwise(sink)
        previous = union
        most_free = max(most_free, len(sink._free))
    assert most_free > 0


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
            # Bulk oracle, scalar oracle, indexed walks and the slot
            # kernel's supports, bitwise.
            query = OutlierQuery(ranking, n=5)
            bulk = ranking.bulk_scores(mirror)
            full = _slot_fixpoint(query, index, mirror)
            for i, x in enumerate(rng.sample(mirror, min(5, len(mirror)))):
                scalar = ranking.score(x, mirror)
                assert ranking.score_indexed(index, x) == scalar
                assert bulk[mirror.index(x)] == scalar
                assert _kernel_support(full, x) == ranking.support(x, mirror)
            # Subset scoring (the sufficient-set fixpoint shape).
            sub = rng.sample(mirror, max(4, len(mirror) // 2))
            covered, subset = index.try_subset(sub)
            assert covered
            masked = _slot_fixpoint(query, index, sub)
            for x in rng.sample(sub, min(4, len(sub))):
                assert ranking.score_indexed(index, x, subset) == ranking.score(x, sub)
                assert _kernel_support(masked, x) == ranking.support(x, sub)
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
            others = _cloud(rng, rng.randint(0, 5), origin=1)
            _check_slot_fixpoint(query, rng, P, others, metric=metric)


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
        SlotFixpoint(OutlierQuery(ranking, n=2), euclidean_index, None, [], {})
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
    """Check every production detector fixpoint -- a run of the slot kernel
    -- against the index-free fixpoint on the points behind its slots, and
    against eq. 2 itself.  A run bounded by a ``target`` is checked against
    the same run to the end: its Z must be a subset of the full Z and agree
    with it on ``target``, and the full Z is what is checked against the
    index-free fixpoint and eq. 2 (a bounded Z need not satisfy eq. 2).
    Returns the checked ``(Z, full Z)`` pairs, as points, so a test can
    assert that there were some."""
    checked_results = []
    run = SlotFixpoint.run

    def checked(fixpoint, shared, target=None):
        bounded = run(fixpoint, shared, target)
        Z = bounded if target is None else run(fixpoint, shared)
        assert bounded <= Z
        if target is not None:
            assert bounded & target == Z & target
        index = fixpoint.index
        if fixpoint.subset is None:
            holdings = list(index.points())
        else:
            mask = fixpoint.subset.mask
            holdings = [index.point_at(s) for s in range(len(mask)) if mask[s]]
        known_shared = _points_of(index, shared)
        Z_points = _points_of(index, Z)
        assert Z_points == compute_sufficient_set(
            fixpoint.query, holdings, known_shared
        )
        assert satisfies_sufficiency(fixpoint.query, Z_points, holdings, known_shared)
        checked_results.append((_points_of(index, bounded), Z_points))
        return bounded

    monkeypatch.setattr(SlotFixpoint, "run", checked)
    return checked_results


def _assert_bookkeeping_held(detector):
    """Every point recorded as sent to or received from a neighbor is held:
    the shared sets the slot kernel scores are built from held slots."""
    for neighbor in detector.neighbors:
        recorded = detector.sent_to(neighbor) | detector.received_from(neighbor)
        if isinstance(detector, SemiGlobalOutlierDetector):
            held = {point.rest for point in detector.holdings}
            assert {point.rest for point in recorded} <= held
        else:
            assert recorded <= detector.holdings


def _assert_event_equal(fast, slow, fast_msg, slow_msg, query):
    assert _message_view(fast_msg) == _message_view(slow_msg)
    _assert_bookkeeping_held(fast)
    assert fast.holdings == slow.holdings
    assert fast.estimate() == slow.estimate()
    # The cache's maintained order must equal the oracle ranking.
    cache = getattr(fast, "_cache", None)
    if cache is not None:
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
    """Interleaved add/evict/replace/message/link streams: re-delivering a
    held observation at a smaller hop exercises the O(1) relabel path and
    the per-level caches' membership churn on every round."""
    metric = _metric_for(metric_name)
    for family in KNN_FAMILIES:
        rng = random.Random(f"{metric_name}-{family.__name__}-semiglobal-stream")
        _replay_semiglobal_stream(
            rng, OutlierQuery(family(k=2, metric=metric), n=2)
        )
    assert fixpoint_oracle


@pytest.mark.parametrize("hop_diameter", [1, 2, 3])
@pytest.mark.parametrize("variant", ["refined", "paper"])
def test_semiglobal_sendable_sets_hold_under_both_variants_and_diameters(
    variant, hop_diameter, fixpoint_oracle
):
    """The replayed stream for each variant and d = 1, 2, 3: every event
    matches the oracle, every kept sendable set its definition, and every
    bounded fixpoint the full one; some bounded run stops short of it."""
    for family in KNN_FAMILIES:
        rng = random.Random(f"{variant}-d{hop_diameter}-{family.__name__}-sendable")
        _replay_semiglobal_stream(
            rng, OutlierQuery(family(k=2), n=2), hop_diameter, variant
        )
    assert any(bounded < full for bounded, full in fixpoint_oracle)


def _assert_sendable_sets(detector):
    """Each neighbor's kept sendable slots equal their definition, recomputed
    from the held points and the neighbor's records: the held slots below
    hop d that it is not known to hold at hop + 1 or less."""
    index = detector._index
    assert set(detector._sendable) == detector.neighbors
    for neighbor in detector.neighbors:
        known = {point.rest: point.hop for point in detector.known_shared_with(neighbor)}
        expected = {
            index.slot_for(point)
            for point in detector.holdings
            if point.hop < detector.hop_diameter
            and known.get(point.rest, float("inf")) > point.hop + 1
        }
        assert detector._sendable[neighbor] == expected


def _replay_semiglobal_stream(rng, query, hop_diameter=2, variant="refined"):
    fast, slow = (
        detector_class(
            0, query, hop_diameter=hop_diameter, neighbors=[1, 2], variant=variant
        )
        for detector_class in (SemiGlobalOutlierDetector, BruteSemiGlobalDetector)
    )
    assert fast._caches is not None and len(fast._caches) == hop_diameter

    pool = []
    delivered_history = []
    epoch = 0
    # Ticks whose additions took a slot their evictions freed, and links
    # that came back after dropping.
    reused = returned = 0
    dropped = set()
    for step in range(60):
        roll = rng.random()
        # Besides the random link changes, link 2 is down after step 25 and
        # up again after step 40.
        forced = {25: {1}, 40: {1, 2}}.get(step)
        if forced is not None or 0.50 <= roll < 0.60:
            neighbors = forced or rng.choice([{1}, {2}, {1, 2}])
            returned += bool(dropped & (neighbors - fast.neighbors))
            dropped |= fast.neighbors - neighbors
            events = [d.neighborhood_changed(neighbors) for d in (fast, slow)]
        elif roll < 0.25 or len(pool) < 4:
            fresh = _cloud(rng, rng.randint(1, 2), start_epoch=epoch)
            epoch += 2
            pool.extend(fresh)
            events = [d.add_local_points(fresh) for d in (fast, slow)]
        elif roll < 0.40:
            victims = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            for victim in victims:
                pool.remove(victim)
            events = [d.evict_points(victims) for d in (fast, slow)]
        elif roll < 0.50:
            # One tick evicts and samples: the samples reuse freed slots.
            fresh = _cloud(rng, rng.randint(1, 2), start_epoch=epoch)
            epoch += 2
            victims = rng.sample(pool, min(2, len(pool)))
            for victim in victims:
                pool.remove(victim)
            pool.extend(fresh)
            slot_of = {p.rest: fast._index.slot_for(p) for p in fast.holdings}
            freed = {slot_of[v.rest] for v in victims if v.rest in slot_of}
            events = [d.update_local_data(fresh, victims) for d in (fast, slow)]
            reused += bool(freed & {fast._index.slot_for(p) for p in fresh})
        else:
            sender = rng.choice(sorted(fast.neighbors))
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
        _assert_sendable_sets(fast)
    assert reused and returned


def test_score_cache_matches_oracle_under_churn():
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
        assert cache.top_n(4) == top_n_outliers(ranking, mirror, 4, index=index)
        assert len(cache) == len(mirror)
    # Adding a second copy of an observation raises before the cache sees
    # it, and the maintained order is unchanged.
    expected = cache.top_n(4)
    with pytest.raises(RankingError):
        index.add(mirror[0].with_hop(7))
    assert cache.top_n(4) == expected
    assert expected == top_n_outliers(ranking, mirror, 4, index=index)
    assert len(cache) == len(mirror)


def test_ranking_subclass_takes_the_index_free_fixpoint(monkeypatch):
    """A subclass of a built-in ranking may override ``score``, so both
    detectors run the index-free fixpoint for it -- never the slot kernel
    -- and still match the oracle event for event."""

    class Subclassed(AverageKNNDistance):
        pass

    def kernel(fixpoint, shared, target=None):
        raise AssertionError("the slot kernel ran for a ranking subclass")

    monkeypatch.setattr(SlotFixpoint, "run", kernel)
    assert not SlotFixpoint.handles(Subclassed(k=2))
    rng = random.Random("ranking-subclass")
    _replay_global_stream(rng, OutlierQuery(Subclassed(k=3), n=3))
    _replay_semiglobal_stream(rng, OutlierQuery(Subclassed(k=2), n=2))


def test_global_detector_rejects_points_off_hop_zero():
    """The global algorithm forwards held points unchanged, so every point
    it exchanges has hop 0.  A delivery holding any other -- such as a hop-1
    copy of a held observation, a second copy the index would refuse --
    raises before the detector changes any state."""
    rng = random.Random("hop-copy")
    query = OutlierQuery(AverageKNNDistance(k=2), n=2)
    detector = GlobalOutlierDetector(0, query, neighbors=[1, 2])
    points = _cloud(rng, 6)
    detector.add_local_points(points)
    detector.handle_message(1, _cloud(rng, 2, origin=1, start_epoch=10))
    index = detector._index

    def state():
        return (
            detector.holdings,
            detector.local_data,
            [(detector.sent_to(j), detector.received_from(j)) for j in (1, 2)],
            detector.stats.as_dict(),
            _index_state(index),
            detector._cache.top_n(query.n),
        )

    before = state()
    fresh = _cloud(rng, 1, origin=2, start_epoch=20)[0]
    for delivered in (
        [points[0].with_hop(1)],
        [fresh, points[0].with_hop(1)],
        [fresh.with_hop(1)],
    ):
        with pytest.raises(ProtocolError):
            detector.handle_message(2, delivered)
        assert state() == before


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
    assert not cache.supported
    assert len(cache) == 0
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
