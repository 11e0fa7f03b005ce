"""Unit tests for the data-point model."""

import math

import pytest

from repro.core.points import (
    DataPoint,
    distance,
    make_point,
    min_hop_merge,
    restrict_by_hop,
    sort_key,
)


class TestConstruction:
    def test_values_normalised_to_float_tuple(self):
        point = DataPoint(values=(1, 2), origin=0, epoch=0)
        assert point.values == (1.0, 2.0)
        assert all(isinstance(v, float) for v in point.values)

    def test_make_point_defaults_timestamp_to_epoch(self):
        point = make_point([1.0], origin=3, epoch=7)
        assert point.timestamp == 7.0

    def test_make_point_explicit_timestamp(self):
        point = make_point([1.0], origin=3, epoch=7, timestamp=2.5)
        assert point.timestamp == 2.5

    def test_dimension(self):
        assert make_point([1, 2, 3], 0, 0).dimension == 3

    def test_points_are_hashable_and_equal_by_value(self):
        a = make_point([1.0, 2.0], 0, 5)
        b = make_point([1.0, 2.0], 0, 5)
        assert a == b
        assert len({a, b}) == 1

    def test_hop_differentiates_instances(self):
        a = make_point([1.0], 0, 0)
        b = a.with_hop(2)
        assert a != b
        assert a.same_rest(b)
        assert a.rest == b.rest

    def test_with_hop_rejects_negative(self):
        with pytest.raises(ValueError):
            make_point([1.0], 0, 0).with_hop(-1)

    def test_incremented(self):
        assert make_point([1.0], 0, 0).incremented().hop == 1

    @pytest.mark.parametrize(
        "copy, hop",
        [(lambda point: point.with_hop(5), 5), (DataPoint.incremented, 3)],
        ids=["with_hop", "incremented"],
    )
    def test_hop_copy_equals_a_constructed_point(self, copy, hop):
        point = DataPoint([1, 2.5], origin=3, epoch=7, timestamp=4.0, hop=2)
        made = copy(point)
        built = DataPoint((1.0, 2.5), 3, 7, 4.0, hop)
        assert made == built and hash(made) == hash(built)
        assert point == DataPoint((1.0, 2.5), 3, 7, 4.0, 2)  # untouched


class TestOrdering:
    def test_sort_key_orders_by_values_then_origin_then_epoch(self):
        a = make_point([1.0], 0, 0)
        b = make_point([2.0], 0, 0)
        c = make_point([1.0], 1, 0)
        d = make_point([1.0], 0, 1)
        assert a < b
        assert a < c
        assert a < d
        assert sorted([b, d, c, a])[0] == a

    def test_comparison_ignores_hop(self):
        a = make_point([1.0], 0, 0)
        b = a.with_hop(3)
        assert not a < b and not b < a
        assert sort_key(a) == sort_key(b)

    def test_comparison_with_other_types(self):
        assert make_point([1.0], 0, 0).__lt__(42) is NotImplemented


class TestDistance:
    def test_euclidean(self):
        a = make_point([0.0, 0.0], 0, 0)
        b = make_point([3.0, 4.0], 1, 0)
        assert distance(a, b) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = make_point([1.0, 7.0], 0, 0)
        b = make_point([-2.0, 3.5], 1, 0)
        assert distance(a, b) == pytest.approx(distance(b, a))

    def test_zero_distance_to_self(self):
        a = make_point([1.0, 7.0], 0, 0)
        assert distance(a, a) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance(make_point([1.0], 0, 0), make_point([1.0, 2.0], 0, 0))


class TestHopHelpers:
    def test_min_hop_merge_keeps_smallest_hop_per_observation(self):
        base = make_point([1.0], 0, 0)
        other = make_point([2.0], 1, 0)
        merged = min_hop_merge([base.with_hop(3), base.with_hop(1), other.with_hop(2)])
        by_rest = {p.rest: p.hop for p in merged}
        assert by_rest[base.rest] == 1
        assert by_rest[other.rest] == 2
        assert len(merged) == 2

    def test_min_hop_merge_is_sorted_and_deterministic(self):
        points = [make_point([v], 0, i) for i, v in enumerate([5.0, 1.0, 3.0])]
        merged = min_hop_merge(reversed(points))
        assert [p.values[0] for p in merged] == [1.0, 3.0, 5.0]

    def test_restrict_by_hop(self):
        base = make_point([1.0], 0, 0)
        points = {base, base.with_hop(1), make_point([2.0], 1, 0).with_hop(3)}
        assert restrict_by_hop(points, 1) == {base, base.with_hop(1)}
        assert restrict_by_hop(points, 0) == {base}
