"""The metric-space subsystem: axioms, kernel agreement, configuration.

Three layers of guarantees are pinned down here:

* **metric axioms** (property-based): identity of indiscernibles, symmetry
  and the triangle inequality, sampled over random vectors for every
  registered metric -- the anti-monotonicity/smoothness proofs of the
  ranking functions hold for any true metric, so the registry must only
  admit true metrics;
* **kernel-vs-pointwise bitwise agreement**: ``pairwise``/``rows`` must
  return the *same floats* as the scalar ``distance`` (a last-ulp
  disagreement flips ``≺`` tie-breaks and desynchronises the indexed and
  brute-force detector paths) -- including above numpy's pairwise-summation
  cutover (reductions of length > 8);
* **configuration plumbing**: eager validation of metric names/parameters
  in :class:`~repro.core.config.DetectionConfig`, canonical hashable
  ``metric_params``, JSON round-trips through
  :class:`~repro.wsn.scenario.ScenarioConfig`, and the multi-attribute
  dataset model that gives non-Euclidean metrics a real workload.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectionConfig
from repro.core.errors import ConfigurationError, RankingError
from repro.core.metrics import (
    EUCLIDEAN,
    ChebyshevMetric,
    EuclideanMetric,
    MahalanobisMetric,
    ManhattanMetric,
    Metric,
    WeightedEuclideanMetric,
    metric_from_name,
    registered_metrics,
)
from repro.core.points import distance, make_point
from repro.datasets.imputation import impute_missing
from repro.datasets.loader import DatasetConfig, build_intel_lab_dataset
from repro.datasets.synthetic import (
    EXTRA_CHANNEL_SPECS,
    MultiAttributeFieldModel,
    TemperatureFieldModel,
    generate_multiattribute_readings,
    generate_readings,
)
from repro.wsn.scenario import ScenarioConfig


def spd_cov(dim: int) -> tuple:
    """A deterministic symmetric positive-definite matrix of size ``dim``
    (diagonally dominant, with nonzero off-diagonal correlation)."""
    return tuple(
        tuple(
            float(dim) + 1.0 + i if i == j else 0.3 / (1 + abs(i - j))
            for j in range(dim)
        )
        for i in range(dim)
    )


def metric_for(name: str, dim: int) -> Metric:
    """Instantiate a registered metric with parameters sized for ``dim``."""
    if name == "weighted-euclidean":
        return metric_from_name(name, weights=tuple(0.5 + 0.25 * i for i in range(dim)))
    if name == "mahalanobis":
        return metric_from_name(name, cov=spd_cov(dim))
    return metric_from_name(name)


#: Bounded-but-varied coordinates: large enough to stress summation order,
#: small enough that squares cannot overflow.
coordinate = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vectors(dim: int):
    return st.lists(coordinate, min_size=dim, max_size=dim).map(tuple)


# ----------------------------------------------------------------------
# Metric axioms (property-based)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", registered_metrics())
@pytest.mark.parametrize("dim", [2, 5])
def test_metric_axioms_sampled(name, dim):
    metric = metric_for(name, dim)
    rng = random.Random(f"{name}-{dim}-axioms")  # str seeds are deterministic
    for _ in range(200):
        a = tuple(rng.uniform(-100.0, 100.0) for _ in range(dim))
        b = tuple(rng.uniform(-100.0, 100.0) for _ in range(dim))
        c = tuple(rng.uniform(-100.0, 100.0) for _ in range(dim))
        dab = metric.distance(a, b)
        # Identity: d(a, a) == 0, d(a, b) > 0 for a != b, never NaN.
        assert metric.distance(a, a) == 0.0
        assert dab > 0.0 if a != b else dab == 0.0
        # Symmetry must be exact (not approximate): both orders feed the
        # same tie-break comparisons.
        assert dab == metric.distance(b, a)
        # Triangle inequality, with a relative tolerance for floating-point
        # rounding in the two-leg sum.
        dac, dcb = metric.distance(a, c), metric.distance(c, b)
        assert dab <= (dac + dcb) * (1.0 + 1e-9) + 1e-9


@settings(max_examples=60, deadline=None)
@given(a=vectors(3), b=vectors(3))
@pytest.mark.parametrize("name", registered_metrics())
def test_symmetry_and_identity_hypothesis(name, a, b):
    metric = metric_for(name, 3)
    assert metric.distance(a, b) == metric.distance(b, a)
    assert metric.distance(a, a) == 0.0
    assert metric.distance(b, b) == 0.0
    if a != b:
        assert metric.distance(a, b) >= 0.0


# ----------------------------------------------------------------------
# Kernel-vs-pointwise bitwise agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", registered_metrics())
# dim 12 matters: numpy switches to pairwise summation for reductions of
# length > 8, which must not make a kernel disagree with the scalar path.
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 12])
def test_kernels_bitwise_match_pointwise(name, dim):
    metric = metric_for(name, dim)
    rng = random.Random(f"{name}-{dim}-kernels")
    for count in (1, 2, 7, 23):
        X = [tuple(rng.uniform(-50.0, 50.0) for _ in range(dim)) for _ in range(count)]
        matrix = metric.pairwise(X)
        assert matrix.shape == (count, count)
        for i, a in enumerate(X):
            row = metric.rows(a, X)
            for j, b in enumerate(X):
                scalar = metric.distance(a, b)
                assert matrix[i, j] == scalar, (name, dim, i, j)
                assert row[j] == scalar, (name, dim, i, j)
        # The matrix diagonal is exactly zero (the ranking layer overwrites
        # it with +inf itself).
        assert all(matrix[i, i] == 0.0 for i in range(count))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_euclidean_pairwise_is_the_pointwise_matrix(dim):
    """The row kernel fills both triangles itself; duplicates must still
    read an exact 0.0, on and off the diagonal."""
    rng = random.Random(f"euclidean-{dim}-pairwise")
    for count in (0, 1, 5, 30):
        X = [tuple(rng.uniform(-50.0, 50.0) for _ in range(dim)) for _ in range(count)]
        X += [X[i] for i in range(0, count, 3)]
        rng.shuffle(X)
        matrix = EUCLIDEAN.pairwise(iter(X))
        assert matrix.shape == (len(X), len(X))
        for i, a in enumerate(X):
            assert matrix[i, i] == 0.0 and math.copysign(1.0, matrix[i, i]) == 1.0
            for j, b in enumerate(X):
                assert matrix[i, j] == EUCLIDEAN.distance(a, b), (i, j)
                if a == b:
                    assert matrix[i, j] == 0.0


def _int_grid(rng: random.Random, count: int, dim: int) -> list:
    """Integer coordinates: many pairwise distances tie exactly."""
    return [tuple(float(rng.randint(-8, 8)) for _ in range(dim)) for _ in range(count)]


@pytest.mark.parametrize("count", [0, 1, 2, 53])
def test_euclidean_pairwise_is_the_row_stacked_matrix(count):
    """Each unordered pair is computed once and mirrored; the result must
    be the matrix of one full row per point, bit for bit (sign bits
    included)."""
    rng = random.Random(f"euclidean-mirror-{count}")
    X = _int_grid(rng, count, 3)
    stacked = np.array([EUCLIDEAN.rows(a, X) for a in X]).reshape(count, count)
    matrix = EUCLIDEAN.pairwise(X)
    assert matrix.shape == (count, count)
    assert np.array_equal(matrix.view(np.int64), stacked.view(np.int64))


@pytest.mark.parametrize("name", registered_metrics())
@pytest.mark.parametrize("dim", [1, 2, 12])
def test_cross_transposed_is_the_swapped_block(name, dim):
    """``cross(A, B).T == cross(B, A)`` bit for bit: the centralized sink
    and the index's block path both fill one side of a symmetric distance
    table from the transposed block."""
    metric = metric_for(name, dim)
    rng = random.Random(f"{name}-{dim}-cross")
    for left, right in ((0, 4), (3, 0), (1, 1), (7, 23)):
        A, B = _int_grid(rng, left, dim), _int_grid(rng, right, dim)
        forward, backward = metric.cross(A, B), metric.cross(B, A)
        assert forward.shape == (left, right)
        assert np.array_equal(
            np.ascontiguousarray(forward.T).view(np.int64),
            backward.view(np.int64),
        )


def test_quantised_readings_tie_bitwise_across_paths():
    """Tenth-grid coordinates (not exactly representable) are the regime
    where recipe differences round mathematical ties apart."""
    rng = random.Random(99)
    for name in registered_metrics():
        metric = metric_for(name, 2)
        X = [(rng.randint(-40, 40) * 0.1, rng.randint(-40, 40) * 0.1) for _ in range(40)]
        matrix = metric.pairwise(X)
        for i, a in enumerate(X):
            row = metric.rows(a, X)
            for j, b in enumerate(X):
                assert matrix[i, j] == metric.distance(a, b) == row[j]


def test_euclidean_is_bit_identical_to_math_dist():
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(1, 6)
        a = tuple(rng.uniform(-1e3, 1e3) for _ in range(dim))
        b = tuple(rng.uniform(-1e3, 1e3) for _ in range(dim))
        assert EUCLIDEAN.distance(a, b) == math.dist(a, b)


def test_known_values():
    a, b = (0.0, 0.0), (3.0, 4.0)
    assert EuclideanMetric().distance(a, b) == 5.0
    assert ManhattanMetric().distance(a, b) == 7.0
    assert ChebyshevMetric().distance(a, b) == 4.0
    assert WeightedEuclideanMetric((4.0, 1.0)).distance(a, b) == pytest.approx(
        math.sqrt(4 * 9 + 16)
    )
    # Identity covariance reduces Mahalanobis to Euclidean.
    identity = ((1.0, 0.0), (0.0, 1.0))
    assert MahalanobisMetric(identity).distance(a, b) == pytest.approx(5.0)


def test_points_distance_accepts_a_metric():
    a = make_point([0.0, 0.0], 0, 0)
    b = make_point([3.0, 4.0], 0, 1)
    assert distance(a, b) == 5.0
    assert distance(a, b, metric=ManhattanMetric()) == 7.0


# ----------------------------------------------------------------------
# Registry and parameter validation
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registered_names(self):
        assert registered_metrics() == [
            "chebyshev",
            "euclidean",
            "manhattan",
            "mahalanobis",
            "weighted-euclidean",
        ] or set(registered_metrics()) == {
            "chebyshev", "euclidean", "manhattan", "mahalanobis",
            "weighted-euclidean",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            metric_from_name("minkowski")

    def test_case_insensitive(self):
        assert metric_from_name("  Manhattan ").name == "manhattan"

    def test_euclidean_is_shared_singleton(self):
        assert metric_from_name("euclidean") is EUCLIDEAN

    def test_missing_required_params_rejected(self):
        with pytest.raises(ConfigurationError):
            metric_from_name("weighted-euclidean")
        with pytest.raises(ConfigurationError):
            metric_from_name("mahalanobis")

    def test_unexpected_params_rejected(self):
        with pytest.raises(ConfigurationError):
            metric_from_name("euclidean", weights=(1.0,))

    @pytest.mark.parametrize(
        "name,params",
        [
            pytest.param("weighted-euclidean", {"weights": "abc"},
                         id="weights-not-numbers"),
            pytest.param("weighted-euclidean", {"weights": [1.0, -2.0]},
                         id="weights-negative"),
            pytest.param("mahalanobis", {"cov": "x"}, id="cov-not-a-matrix"),
            pytest.param("mahalanobis", {"cov": [[1, 2], [3]]},
                         id="cov-ragged"),
            pytest.param("mahalanobis",
                         {"cov": [["a", 0, 0], [0, 1, 0], [0, 0, 1]]},
                         id="cov-not-numbers"),
            pytest.param("mahalanobis", {"cov": [[1.0, 1.0], [1.0, 1.0]]},
                         id="cov-singular"),
        ],
    )
    def test_invalid_param_values_are_configuration_errors(self, name, params):
        """Every bad value surfaces as a ConfigurationError, never as the
        ValueError (or numpy LinAlgError) the factory raised."""
        with pytest.raises(ConfigurationError):
            metric_from_name(name, **params)

    def test_bad_weights_rejected(self):
        for weights in ((), (0.0,), (-1.0, 2.0), (float("nan"),), (float("inf"),)):
            with pytest.raises(ConfigurationError):
                WeightedEuclideanMetric(weights)

    def test_bad_cov_rejected(self):
        with pytest.raises(ConfigurationError):
            MahalanobisMetric(((1.0, 2.0),))  # not square
        with pytest.raises(ConfigurationError):
            MahalanobisMetric(((1.0, 2.0), (3.0, 4.0)))  # not symmetric
        with pytest.raises(ConfigurationError):
            MahalanobisMetric(((0.0, 0.0), (0.0, 0.0)))  # not positive definite
        with pytest.raises(ConfigurationError):
            MahalanobisMetric(((1.0, 0.99), (0.99, -1.0)))  # negative eigenvalue

    def test_dimension_mismatch_raises_ranking_error(self):
        with pytest.raises(RankingError):
            ManhattanMetric().distance((1.0,), (1.0, 2.0))
        with pytest.raises(RankingError):
            WeightedEuclideanMetric((1.0, 2.0)).distance((1.0,), (2.0,))
        with pytest.raises(RankingError):
            MahalanobisMetric(((1.0, 0.0), (0.0, 1.0))).rows((1.0,), [(2.0,)])
        # The default metric honors the same contract on every entry point
        # (math.dist's native ValueError must not leak through the kernels).
        with pytest.raises(RankingError):
            EuclideanMetric().distance((1.0,), (1.0, 2.0))
        with pytest.raises(RankingError):
            EuclideanMetric().rows((1.0,), [(1.0, 2.0)])
        with pytest.raises(RankingError):
            EuclideanMetric().pairwise([(1.0,), (1.0, 2.0)])

    def test_validate_dimension_hook(self):
        EUCLIDEAN.validate_dimension(7)  # unparameterised: any dimension
        WeightedEuclideanMetric((1.0, 2.0)).validate_dimension(2)
        with pytest.raises(RankingError):
            WeightedEuclideanMetric((1.0, 2.0)).validate_dimension(3)
        with pytest.raises(RankingError):
            MahalanobisMetric(((1.0, 0.0), (0.0, 1.0))).validate_dimension(4)

    def test_compatible_with(self):
        assert EUCLIDEAN.compatible_with(EuclideanMetric())
        assert not EUCLIDEAN.compatible_with(ManhattanMetric())
        assert WeightedEuclideanMetric((1.0, 2.0)).compatible_with(
            WeightedEuclideanMetric((1, 2))
        )
        assert not WeightedEuclideanMetric((1.0, 2.0)).compatible_with(
            WeightedEuclideanMetric((1.0, 3.0))
        )


# ----------------------------------------------------------------------
# DetectionConfig / ScenarioConfig plumbing
# ----------------------------------------------------------------------
class TestDetectionConfigMetric:
    def test_default_is_euclidean(self):
        config = DetectionConfig()
        assert config.metric == "euclidean"
        assert config.make_metric() is EUCLIDEAN
        assert config.make_ranking().metric is EUCLIDEAN

    def test_ranking_carries_the_configured_metric(self):
        config = DetectionConfig(metric="chebyshev")
        assert config.make_ranking().metric.name == "chebyshev"

    def test_unknown_metric_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(metric="taxicab")

    def test_invalid_params_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(metric="weighted-euclidean")  # missing weights
        with pytest.raises(ConfigurationError):
            DetectionConfig(
                metric="weighted-euclidean", metric_params=(("weights", (0.0,)),)
            )

    def test_params_frozen_to_canonical_hashable_form(self):
        config = DetectionConfig(
            metric="weighted-euclidean", metric_params={"weights": [1, 2, 3]}
        )
        assert config.metric_params == (("weights", (1.0, 2.0, 3.0)),)
        hash(config)  # dict-key use in the orchestrator's memory cache

    def test_mapping_and_pair_forms_are_equal(self):
        params_as_pairs = DetectionConfig(
            metric="weighted-euclidean", metric_params=(("weights", (1.0, 2.0)),)
        )
        params_as_mapping = DetectionConfig(
            metric="weighted-euclidean", metric_params={"weights": (1, 2)}
        )
        assert params_as_pairs == params_as_mapping

    def test_with_metric_copy(self):
        config = DetectionConfig().with_metric("manhattan")
        assert config.metric == "manhattan"
        assert config.make_metric().name == "manhattan"

    def test_alpha_validation_rejects_nonpositive_and_nonfinite(self):
        # The historical check let NaN through (NaN <= 0 is false).
        for alpha in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError):
                DetectionConfig(ranking="count", alpha=alpha)

    def test_scenario_json_round_trip_preserves_metric(self):
        detection = DetectionConfig(
            metric="mahalanobis",
            metric_params=(("cov", spd_cov(4)),),
        )
        scenario = ScenarioConfig(
            detection=detection, node_count=4, rounds=3, extra_channels=1
        )
        # Through an actual JSON encode/decode: tuples become lists on the
        # wire and must freeze back to the identical canonical scenario.
        decoded = ScenarioConfig.from_json_dict(
            json.loads(json.dumps(scenario.to_json_dict()))
        )
        assert decoded == scenario
        assert hash(decoded) == hash(scenario)
        assert decoded.detection.make_metric().name == "mahalanobis"


# ----------------------------------------------------------------------
# Multi-attribute synthetic workload
# ----------------------------------------------------------------------
class TestMultiAttributeDatasets:
    def test_points_carry_reading_block_then_coordinates(self):
        positions = {0: (1.0, 2.0), 1: (3.0, 4.0)}
        model = MultiAttributeFieldModel(extra_channels=2, seed=5)
        streams = generate_multiattribute_readings(positions, epochs=3, model=model)
        for node_id, points in streams.items():
            for point in points:
                assert point.dimension == 5  # temp + 2 extras + (x, y)
                assert point.values[-2:] == positions[node_id]

    def test_primary_channel_matches_single_channel_model(self):
        """Channel 0 of the multi-attribute model is the plain temperature
        stream: adding channels must not perturb existing values."""
        positions = {0: (10.0, 10.0), 1: (40.0, 20.0)}
        single = generate_readings(
            positions, epochs=4, model=TemperatureFieldModel(seed=3)
        )
        multi = generate_multiattribute_readings(
            positions, epochs=4, model=MultiAttributeFieldModel(extra_channels=2, seed=3)
        )
        for node_id in positions:
            for a, b in zip(single[node_id], multi[node_id]):
                assert a.values[0] == b.values[0]

    def test_channels_live_on_distinct_scales(self):
        positions = {0: (25.0, 25.0)}
        model = MultiAttributeFieldModel(extra_channels=3, seed=1)
        streams = generate_multiattribute_readings(positions, epochs=10, model=model)
        temp, hum, light, volt = zip(*(p.values[:4] for p in streams[0]))
        assert 10 < sum(temp) / len(temp) < 35
        assert 20 < sum(hum) / len(hum) < 80
        assert sum(light) / len(light) > 100
        assert 2 < sum(volt) / len(volt) < 3.5

    def test_specs_cycle_beyond_presets(self):
        model = MultiAttributeFieldModel(extra_channels=len(EXTRA_CHANNEL_SPECS) + 1)
        assert model.reading_channels == len(EXTRA_CHANNEL_SPECS) + 2

    def test_imputation_averages_every_reading_channel(self):
        stream = [
            make_point([10.0, 50.0, 1.0, 2.0], origin=0, epoch=0),
            make_point([20.0, 70.0, 1.0, 2.0], origin=0, epoch=1),
            # epoch 2 missing
            make_point([30.0, 90.0, 1.0, 2.0], origin=0, epoch=3),
        ]
        completed = impute_missing(stream, [0, 1, 2, 3], window_length=2,
                                   reading_channels=2)
        imputed = completed[2]
        assert imputed.values == (15.0, 60.0, 1.0, 2.0)

    def test_dataset_config_extra_channels_flows_through(self):
        config = DatasetConfig(node_count=4, epochs=5, extra_channels=2)
        dataset = build_intel_lab_dataset(config)
        for points in dataset.streams.values():
            assert all(p.dimension == 5 for p in points)

    def test_zero_extra_channels_is_bit_identical_to_legacy_pipeline(self):
        base = DatasetConfig(node_count=4, epochs=6)
        again = DatasetConfig(node_count=4, epochs=6, extra_channels=0)
        first = build_intel_lab_dataset(base)
        second = build_intel_lab_dataset(again)
        assert first.streams == second.streams

    def test_scenario_extra_channels_validation(self):
        with pytest.raises(Exception):
            ScenarioConfig(node_count=4, rounds=3, extra_channels=-1)

    def test_scenario_rejects_metric_sized_for_wrong_dimension(self):
        """A parameterised metric that cannot measure the scenario's
        (3 + extra_channels)-dimensional points fails at construction, not
        mid-run."""
        four_weights = DetectionConfig(
            metric="weighted-euclidean",
            metric_params=(("weights", (1.0, 0.5, 0.02, 0.02)),),
        )
        with pytest.raises(ConfigurationError):
            ScenarioConfig(detection=four_weights, node_count=4, rounds=3)
        # The same detection fits once the workload is 4-dimensional.
        ScenarioConfig(
            detection=four_weights, node_count=4, rounds=3, extra_channels=1
        )
