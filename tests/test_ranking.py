"""Unit and property-based tests for the ranking functions.

The property-based tests check exactly the two axioms the distributed
algorithm's correctness proof relies on (anti-monotonicity and smoothness),
plus the agreement between the vectorised and scalar scoring paths.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.index import NeighborhoodIndex
from repro.core.points import make_point
from repro.core.ranking import (
    DEFICIT_UNIT,
    AverageKNNDistance,
    KthNearestNeighborDistance,
    NearestNeighborDistance,
    NeighborCountWithinRadius,
    ranking_from_name,
)
from repro.core.rescoring import ScoreCache

RANKINGS = [
    NearestNeighborDistance(),
    KthNearestNeighborDistance(k=2),
    AverageKNNDistance(k=3),
    NeighborCountWithinRadius(alpha=5.0),
]


def _points(values):
    return [make_point([float(v)], origin=i % 3, epoch=i) for i, v in enumerate(values)]


# ----------------------------------------------------------------------
# Deterministic unit tests
# ----------------------------------------------------------------------
class TestNearestNeighbor:
    def test_score_is_distance_to_closest_other_point(self):
        pts = _points([0.0, 1.0, 4.0])
        ranking = NearestNeighborDistance()
        assert ranking.score(pts[2], pts) == pytest.approx(3.0)
        assert ranking.score(pts[0], pts) == pytest.approx(1.0)

    def test_self_is_excluded_from_neighbors(self):
        pts = _points([2.0, 9.0])
        assert NearestNeighborDistance().score(pts[0], pts) == pytest.approx(7.0)

    def test_singleton_gets_deficit_score(self):
        pts = _points([2.0])
        assert NearestNeighborDistance().score(pts[0], pts) == DEFICIT_UNIT

    def test_support_is_the_nearest_neighbor(self):
        pts = _points([0.0, 1.0, 4.0])
        support = NearestNeighborDistance().support(pts[2], pts)
        assert support == frozenset({pts[1]})


class TestKthNearestNeighbor:
    def test_kth_distance(self):
        pts = _points([0.0, 1.0, 3.0, 10.0])
        ranking = KthNearestNeighborDistance(k=2)
        assert ranking.score(pts[0], pts) == pytest.approx(3.0)

    def test_deficit_grows_with_missing_neighbors(self):
        ranking = KthNearestNeighborDistance(k=3)
        pts = _points([0.0, 1.0])
        assert ranking.score(pts[0], pts) == pytest.approx(2 * DEFICIT_UNIT)

    def test_support_has_k_points(self):
        pts = _points([0.0, 1.0, 3.0, 10.0])
        ranking = KthNearestNeighborDistance(k=2)
        support = ranking.support(pts[0], pts)
        assert support == frozenset({pts[1], pts[2]})

    def test_support_smaller_when_not_enough_candidates(self):
        ranking = KthNearestNeighborDistance(k=5)
        pts = _points([0.0, 1.0, 2.0])
        assert ranking.support(pts[0], pts) == frozenset(pts[1:])

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            KthNearestNeighborDistance(k=0)


class TestAverageKNN:
    def test_average_of_k_nearest(self):
        pts = _points([0.0, 1.0, 3.0, 50.0])
        ranking = AverageKNNDistance(k=2)
        assert ranking.score(pts[0], pts) == pytest.approx((1.0 + 3.0) / 2)

    def test_k_one_equals_nn(self):
        pts = _points([0.0, 2.0, 7.0])
        assert AverageKNNDistance(k=1).score(pts[2], pts) == pytest.approx(
            NearestNeighborDistance().score(pts[2], pts)
        )

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            AverageKNNDistance(k=-1)

    def test_every_path_adds_left_to_right(self):
        """Scalar, bulk, indexed (whole index and subset) and ScoreCache
        scores all equal ``((d0 + d1) + d2) + d3`` over the sorted distances
        -- on every Python version, although ``sum()`` of floats is
        compensated since 3.12."""
        k = 4
        rng = random.Random(12)
        ranking = AverageKNNDistance(k=k)
        pts = [
            make_point([rng.uniform(0.0, 10.0) for _ in range(3)], 0, i)
            for i in range(40)
        ]
        sub = pts[::2]
        index = NeighborhoodIndex(pts)
        _, subset = index.try_subset(sub)

        def heads(Q):
            return [
                sorted(math.dist(x.values, q.values) for q in Q if q is not x)[:k]
                for x in Q
            ]

        def left_to_right(head):
            total = 0.0
            for dist in head:
                total += dist
            return total / k

        full = [left_to_right(head) for head in heads(pts)]
        part = [left_to_right(head) for head in heads(sub)]
        # The data tells the addition chains apart.
        assert full != [math.fsum(head) / k for head in heads(pts)]

        assert [ranking.score(x, pts) for x in pts] == full
        assert ranking.bulk_scores(pts) == full
        assert [ranking.score_indexed(index, x) for x in pts] == full
        assert ranking.bulk_scores_indexed(index, pts) == full
        assert [ranking.score_indexed(index, x, subset) for x in sub] == part
        assert ranking.bulk_scores_indexed(index, sub, subset) == part
        cache = ScoreCache(index, ranking)
        cache.top_n(1)  # 40 dirty slots: the vectorized bulk rescore
        assert [cache._score[index.slot_for(x)] for x in pts] == full


class TestNeighborCount:
    def test_score_inverse_of_count(self):
        pts = _points([0.0, 1.0, 2.0, 30.0])
        ranking = NeighborCountWithinRadius(alpha=2.5)
        assert ranking.score(pts[0], pts) == pytest.approx(1.0 / 3.0)
        assert ranking.score(pts[3], pts) == pytest.approx(1.0)

    def test_support_is_exactly_the_within_alpha_neighbors(self):
        pts = _points([0.0, 1.0, 2.0, 30.0])
        ranking = NeighborCountWithinRadius(alpha=1.5)
        assert ranking.support(pts[0], pts) == frozenset({pts[1]})

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            NeighborCountWithinRadius(alpha=0.0)


class TestFactory:
    def test_known_names(self):
        assert isinstance(ranking_from_name("nn"), NearestNeighborDistance)
        assert isinstance(ranking_from_name("knn", k=3), AverageKNNDistance)
        assert isinstance(ranking_from_name("kth-nn", k=3), KthNearestNeighborDistance)
        assert isinstance(ranking_from_name("count", alpha=2.0), NeighborCountWithinRadius)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            ranking_from_name("lof")

    def test_k_is_passed_through(self):
        assert ranking_from_name("knn", k=7).k == 7


# ----------------------------------------------------------------------
# Property-based tests: the two axioms plus bulk/scalar agreement
# ----------------------------------------------------------------------
point_lists = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def _build(coords):
    return [make_point(list(xy), origin=0, epoch=i) for i, xy in enumerate(coords)]


@settings(max_examples=60, deadline=None)
@given(coords=point_lists, extra=point_lists, index=st.integers(min_value=0, max_value=100))
@pytest.mark.parametrize("ranking", RANKINGS, ids=lambda r: type(r).__name__)
def test_anti_monotonicity(ranking, coords, extra, index):
    """R(x, Q1) >= R(x, Q2) whenever Q1 is a subset of Q2."""
    q1 = _build(coords)
    q2 = q1 + [make_point(list(xy), origin=1, epoch=i) for i, xy in enumerate(extra)]
    x = q1[index % len(q1)]
    assert ranking.score(x, q1) >= ranking.score(x, q2) - 1e-9


@settings(max_examples=60, deadline=None)
@given(coords=point_lists, extra=point_lists, index=st.integers(min_value=0, max_value=100))
@pytest.mark.parametrize(
    "ranking",
    [NearestNeighborDistance(), AverageKNNDistance(k=3), NeighborCountWithinRadius(alpha=5.0)],
    ids=lambda r: type(r).__name__,
)
def test_smoothness(ranking, coords, extra, index):
    """If the score strictly drops when enlarging Q1 to Q2, then some single
    point of Q2 \\ Q1 already strictly drops it."""
    q1 = _build(coords)
    additions = [make_point(list(xy), origin=1, epoch=i) for i, xy in enumerate(extra)]
    q2 = q1 + additions
    x = q1[index % len(q1)]
    before = ranking.score(x, q1)
    after = ranking.score(x, q2)
    if before > after:
        assert any(ranking.score(x, q1 + [z]) < before for z in additions)


@settings(max_examples=40, deadline=None)
@given(coords=point_lists)
@pytest.mark.parametrize("ranking", RANKINGS, ids=lambda r: type(r).__name__)
def test_bulk_scores_match_scalar_scores(ranking, coords):
    points = _build(coords)
    bulk = ranking.bulk_scores(points)
    scalar = [ranking.score(p, points) for p in points]
    assert bulk == pytest.approx(scalar)


@settings(max_examples=40, deadline=None)
@given(coords=point_lists, index=st.integers(min_value=0, max_value=100))
@pytest.mark.parametrize("ranking", RANKINGS, ids=lambda r: type(r).__name__)
def test_support_preserves_score(ranking, coords, index):
    """R(x, P) == R(x, [P|x]) -- the defining property of a support set."""
    points = _build(coords)
    x = points[index % len(points)]
    support = ranking.support(x, points)
    assert set(support) <= set(points)
    assert ranking.score(x, support) == pytest.approx(ranking.score(x, points))
