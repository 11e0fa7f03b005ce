"""Tests for top-n outlier selection, support-set helpers and the
sufficient-set fixpoint (equations (1)/(2))."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.index import NeighborhoodIndex
from repro.core.outliers import OutlierQuery, ranked_points, top_n_outliers
from repro.core.points import make_point
from repro.core.ranking import AverageKNNDistance, NearestNeighborDistance
from repro.core.sufficient import (
    SlotFixpoint,
    compute_sufficient_set,
    satisfies_sufficiency,
)
from repro.core.support import is_support_set, support_of_set, support_set


def _points(values, origin=0):
    return [make_point([float(v)], origin=origin, epoch=i) for i, v in enumerate(values)]


class TestTopN:
    def test_most_isolated_point_is_top_outlier(self):
        pts = _points([1.0, 1.5, 2.0, 50.0])
        top = top_n_outliers(NearestNeighborDistance(), pts, 1)
        assert top == [pts[3]]

    def test_order_is_most_outlying_first(self):
        pts = _points([0.0, 0.5, 20.0, 100.0])
        top = top_n_outliers(NearestNeighborDistance(), pts, 3)
        scores = [NearestNeighborDistance().score(p, pts) for p in top]
        assert scores == sorted(scores, reverse=True)

    def test_returns_all_points_when_n_exceeds_size(self):
        pts = _points([1.0, 2.0])
        assert set(top_n_outliers(NearestNeighborDistance(), pts, 10)) == set(pts)

    def test_n_zero_returns_empty(self):
        assert top_n_outliers(NearestNeighborDistance(), _points([1.0, 2.0]), 0) == []

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigurationError):
            top_n_outliers(NearestNeighborDistance(), _points([1.0]), -1)

    def test_deterministic_tie_breaking(self):
        # Two identical clusters: scores tie, the fixed order breaks the tie
        # identically on every call.
        pts = _points([0.0, 1.0, 10.0, 11.0])
        first = top_n_outliers(NearestNeighborDistance(), pts, 2)
        second = top_n_outliers(NearestNeighborDistance(), list(reversed(pts)), 2)
        assert first == second

    def test_ranked_points_covers_every_point(self):
        pts = _points([3.0, 1.0, 7.0])
        ranked = ranked_points(NearestNeighborDistance(), pts)
        assert {p for _, p in ranked} == set(pts)


class TestOutlierQuery:
    def test_requires_positive_n(self):
        with pytest.raises(ConfigurationError):
            OutlierQuery(NearestNeighborDistance(), n=0)

    def test_outlier_set_matches_list(self):
        query = OutlierQuery(NearestNeighborDistance(), n=2)
        pts = _points([0.0, 1.0, 30.0, 90.0])
        assert query.outlier_set(pts) == set(query.outliers(pts))

    def test_score_and_support_delegate_to_ranking(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        pts = _points([0.0, 4.0])
        assert query.score(pts[0], pts) == pytest.approx(4.0)
        assert query.support(pts[0], pts) == frozenset({pts[1]})


class TestSupportHelpers:
    def test_support_of_set_is_union_of_supports(self):
        ranking = AverageKNNDistance(k=2)
        pts = _points([0.0, 1.0, 2.0, 10.0, 11.0])
        union = support_of_set(ranking, [pts[0], pts[3]], pts)
        expected = set(ranking.support(pts[0], pts)) | set(ranking.support(pts[3], pts))
        assert union == expected

    def test_is_support_set_accepts_the_minimal_support(self):
        ranking = NearestNeighborDistance()
        pts = _points([0.0, 1.0, 5.0])
        assert is_support_set(ranking, pts[0], support_set(ranking, pts[0], pts), pts)

    def test_is_support_set_rejects_non_subsets(self):
        ranking = NearestNeighborDistance()
        pts = _points([0.0, 1.0])
        foreign = make_point([9.0], origin=9, epoch=9)
        assert not is_support_set(ranking, pts[0], [foreign], pts)

    def test_is_support_set_rejects_score_changing_subsets(self):
        ranking = NearestNeighborDistance()
        pts = _points([0.0, 1.0, 5.0])
        assert not is_support_set(ranking, pts[0], [pts[2]], pts)


class TestSufficientSet:
    def test_result_satisfies_equation_two(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        holdings = _points([0.5, 3.0, 6.0, 10.0, 11.0, 12.0])
        shared = set()
        sufficient = compute_sufficient_set(query, holdings, shared)
        assert satisfies_sufficiency(query, sufficient, holdings, shared)

    def test_sufficient_set_is_subset_of_holdings(self):
        query = OutlierQuery(AverageKNNDistance(k=2), n=2)
        holdings = _points([1.0, 2.0, 3.0, 40.0, 41.0, 90.0])
        sufficient = compute_sufficient_set(query, holdings, set())
        assert sufficient <= set(holdings)

    def test_contains_estimate_and_support(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        holdings = _points([0.0, 1.0, 50.0])
        sufficient = compute_sufficient_set(query, holdings, set())
        estimate = query.outliers(holdings)
        assert set(estimate) <= sufficient
        assert support_of_set(query.ranking, estimate, holdings) <= sufficient

    def test_precomputed_estimate_gives_same_result(self):
        """The slot kernel, started from a precomputed estimate, computes
        the same Z as the index-free fixpoint that scores P itself."""
        query = OutlierQuery(AverageKNNDistance(k=2), n=2)
        holdings = _points([1.0, 2.0, 3.0, 40.0, 41.0, 90.0])
        shared = set(holdings[:2])
        plain = compute_sufficient_set(query, holdings, shared)
        index = NeighborhoodIndex(holdings)
        estimate = [index.slot_for(p) for p in query.outliers(holdings)]
        fixpoint = SlotFixpoint(query, index, None, estimate, {})
        Z = fixpoint.run(frozenset(map(index.slot_for, shared)))
        assert {index.point_at(slot) for slot in Z} == plain

    def test_section_51_example_sufficient_set(self):
        """The worked example of Section 5.1: Z_j = {3, 6} on the first step."""
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        a = 20
        d_i = [make_point([v], 0, i) for i, v in enumerate([0.5, 3.0, 6.0] + list(range(10, a + 1)))]
        sufficient = compute_sufficient_set(query, d_i, set())
        assert {p.values[0] for p in sufficient} == {3.0, 6.0}

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=14
        ),
        shared_size=st.integers(min_value=0, max_value=14),
        n=st.integers(min_value=1, max_value=3),
    )
    def test_fixpoint_always_satisfies_sufficiency(self, values, shared_size, n):
        query = OutlierQuery(AverageKNNDistance(k=2), n=n)
        holdings = _points(values)
        shared = set(holdings[: min(shared_size, len(holdings))])
        sufficient = compute_sufficient_set(query, holdings, shared)
        assert satisfies_sufficiency(query, sufficient, holdings, shared)
        assert sufficient <= set(holdings)
