"""Tests for the WSN application layer, the scenario runner and the analysis
utilities: small end-to-end simulations of every algorithm."""

import dataclasses

import pytest

from repro.analysis import (
    AccuracyReport,
    aggregate_energy,
    compare_estimates,
    format_series_table,
    format_table,
    jaccard,
    traffic_imbalance,
)
from repro.baselines import CentralizedAggregator
from repro.core import (
    Algorithm,
    ConfigurationError,
    DetectionConfig,
    NearestNeighborDistance,
    OutlierMessage,
    OutlierQuery,
    SlidingWindow,
    make_point,
    top_n_outliers,
)
from repro.core.errors import RankingError
from repro.datasets import build_intel_lab_dataset
from repro.network import Topology
from repro.wsn import FaultConfig, ScenarioConfig, run_scenario


class TestDetectionConfig:
    def test_label_matches_paper_naming(self):
        assert DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="nn").label() == "Global-NN"
        assert DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="knn").label() == "Global-KNN"
        assert DetectionConfig(algorithm=Algorithm.CENTRALIZED).label() == "Centralized"
        assert (
            DetectionConfig(algorithm=Algorithm.SEMI_GLOBAL, hop_diameter=2).label()
            == "Semi-global, epsilon=2"
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(n_outliers=0)
        with pytest.raises(ConfigurationError):
            DetectionConfig(window_length=0)
        with pytest.raises(ConfigurationError):
            DetectionConfig(ranking="nonsense")
        with pytest.raises(ConfigurationError):
            DetectionConfig(algorithm="magic")
        with pytest.raises(ConfigurationError):
            DetectionConfig(semiglobal_variant="other")

    def test_factories_and_copies(self):
        config = DetectionConfig(ranking="knn", k=3, n_outliers=2)
        query = config.make_query()
        assert query.n == 2 and query.ranking.k == 3
        assert config.with_window(7).window_length == 7
        assert config.with_outliers(5).n_outliers == 5
        assert config.with_hop_diameter(3).hop_diameter == 3


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(node_count=1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(sink_id=99)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(loss_probability=1.0)

    @pytest.mark.parametrize("field", ["sampling_period", "broadcast_jitter"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_timing_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ScenarioConfig(**{field: value})

    def test_dataset_config_follows_scenario(self):
        scenario = ScenarioConfig(node_count=8, rounds=6, seed=5)
        dataset_config = scenario.dataset_config()
        assert dataset_config.node_count == 8
        assert dataset_config.epochs == 6
        assert dataset_config.field_seed == 5

    def test_is_hashable_for_caching(self):
        assert hash(ScenarioConfig()) == hash(ScenarioConfig())


class TestSlidingWindowAndMessages:
    def test_window_keeps_exactly_w_samples(self):
        window = SlidingWindow(3)
        for epoch in range(6):
            window.slide(epoch, [make_point([float(epoch)], 0, epoch)])
        assert sorted(p.epoch for p in window.points) == [3, 4, 5]

    def test_window_rejects_nonpositive_length(self):
        with pytest.raises(ConfigurationError):
            SlidingWindow(0)

    def test_message_wire_size_counts_unique_points_once(self):
        shared = make_point([1.0], 0, 0)
        only_a = make_point([2.0], 0, 1)
        message = OutlierMessage(
            sender=0, payloads={1: frozenset({shared, only_a}), 2: frozenset({shared})}
        )
        assert message.unique_points() == {shared, only_a}
        assert message.total_point_entries() == 3
        assert message.recipients == (1, 2)
        assert message.payload_for(9) == frozenset()

    def test_empty_payloads_are_dropped(self):
        message = OutlierMessage(sender=0, payloads={1: frozenset()})
        assert message.is_empty()


class TestCentralizedAggregator:
    def test_union_and_outliers(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        aggregator = CentralizedAggregator(query)
        aggregator.update_window(0, [make_point([1.0], 0, 0), make_point([1.5], 0, 1)])
        aggregator.update_window(1, [make_point([50.0], 1, 0)])
        assert aggregator.total_points() == 3
        assert [p.values[0] for p in aggregator.compute_outliers()] == [50.0]

    def test_update_replaces_previous_window(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        aggregator = CentralizedAggregator(query)
        aggregator.update_window(0, [make_point([1.0], 0, 0)])
        aggregator.update_window(0, [make_point([2.0], 0, 1)])
        assert aggregator.window_of(0) == {make_point([2.0], 0, 1)}

    def test_forget(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        aggregator = CentralizedAggregator(query)
        aggregator.update_window(0, [make_point([1.0], 0, 0)])
        aggregator.forget(0)
        assert aggregator.reporting_nodes == []

    @pytest.mark.parametrize("held_copy", [True, False])
    def test_second_copy_raises_and_leaves_the_sink_unchanged(self, held_copy):
        """A hop copy of an observation the sink holds, or two copies
        arriving together, is refused before any slot changes: the points,
        the key map, the free list and the matrix stay as they were."""
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        aggregator = CentralizedAggregator(query)
        point = make_point([1.0], 0, 0)
        aggregator.update_window(0, [point, make_point([3.0], 0, 1)])
        aggregator.compute_outliers()
        state = (
            list(aggregator._points),
            dict(aggregator._slot_of),
            list(aggregator._free),
            aggregator._distances.copy(),
        )
        if held_copy:
            copies = [point.with_hop(1)]
        else:
            aggregator.forget(0)
            copies = [point.with_hop(1), point.with_hop(2)]
        aggregator.update_window(1, copies)
        with pytest.raises(RankingError, match="second copy"):
            aggregator.compute_outliers()
        assert aggregator._points == state[0]
        assert aggregator._slot_of == state[1]
        assert aggregator._free == state[2]
        assert aggregator._distances.tobytes() == state[3].tobytes()


class TestAnalysis:
    def test_jaccard(self):
        assert jaccard(set(), set()) == 1.0
        assert jaccard({1}, {1, 2}) == pytest.approx(0.5)

    def test_compare_estimates(self):
        a = make_point([1.0], 0, 0)
        b = make_point([2.0], 1, 0)
        report = compare_estimates({0: [a], 1: [a]}, {0: [a], 1: [b]})
        assert report.exact == {0: True, 1: False}
        assert report.exact_fraction == pytest.approx(0.5)
        assert report.incorrect_nodes == [1]

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["x", 1.0], ["longer", 2.5]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_format_series_table_includes_every_series(self):
        text = format_series_table("w", [1, 2], {"a": [0.1, 0.2], "b": [0.3, 0.4]})
        assert "a" in text and "b" in text and "w" in text


class TestEndToEndSimulations:
    """Small but complete simulations of every algorithm."""

    def _scenario(self, algorithm, ranking="nn", hop=1, loss=0.0):
        detection = DetectionConfig(
            algorithm=algorithm, ranking=ranking, n_outliers=2, k=2,
            window_length=4, hop_diameter=hop,
        )
        return ScenarioConfig(detection=detection, node_count=8, rounds=5,
                              loss_probability=loss, seed=2)

    def test_global_simulation_is_exact_and_consistent(self):
        result = run_scenario(self._scenario(Algorithm.GLOBAL))
        assert result.accuracy.exact_fraction == 1.0
        assert result.energy.node_count == 8
        assert result.channel.transmissions > 0
        assert result.wallclock_seconds > 0

    def test_centralized_simulation_reaches_every_node(self):
        result = run_scenario(self._scenario(Algorithm.CENTRALIZED))
        assert result.accuracy.exact_fraction == 1.0
        # The sink's neighborhood works hardest under centralisation.
        assert result.energy.maximum_node_total() > result.energy.average_per_node()

    @pytest.mark.parametrize("ranking", ["nn", "knn"])
    def test_every_centralized_publication_is_exact(self, ranking, monkeypatch):
        """Under loss and crash/recovery churn the sink may publish from a
        stale union, but every publication is ``O_n`` of the union it holds,
        as the index-free oracle ranks it."""
        published = []
        compute_outliers = CentralizedAggregator.compute_outliers

        def checked(aggregator):
            result = compute_outliers(aggregator)
            query = aggregator.query
            expected = top_n_outliers(query.ranking, aggregator.union(), query.n)
            assert result == expected
            published.append(len(result))
            return result

        monkeypatch.setattr(CentralizedAggregator, "compute_outliers", checked)
        scenario = self._scenario(Algorithm.CENTRALIZED, ranking=ranking, loss=0.1)
        churn = FaultConfig(
            crash_probability=0.3, recovery_probability=1.0,
            min_downtime_rounds=1, max_downtime_rounds=2,
        )
        result = run_scenario(dataclasses.replace(scenario, faults=churn))
        assert result.channel.losses > 0
        assert result.mean_availability < 1.0
        assert published and max(published) == 2

    def test_semi_global_simulation_is_accurate(self):
        result = run_scenario(self._scenario(Algorithm.SEMI_GLOBAL, hop=2))
        assert result.accuracy.exact_fraction >= 0.7
        assert result.accuracy.mean_similarity >= 0.8

    def test_distributed_uses_less_energy_than_centralized(self):
        distributed = run_scenario(self._scenario(Algorithm.GLOBAL))
        centralized = run_scenario(self._scenario(Algorithm.CENTRALIZED))
        assert (
            distributed.energy.average_per_node_per_round("tx_joules")
            < centralized.energy.average_per_node_per_round("tx_joules")
        )

    def test_packet_loss_degrades_gracefully(self):
        # Without retransmissions a lost packet can leave part of the chain
        # with a stale estimate; the run must still complete and keep partial
        # agreement with the reference (graceful degradation, not a crash).
        result = run_scenario(self._scenario(Algorithm.GLOBAL, loss=0.05))
        assert result.channel.losses > 0
        assert result.accuracy.mean_similarity >= 0.3
        assert result.accuracy.node_count == 8

    def test_traffic_imbalance_is_larger_for_centralized(self):
        central = run_scenario(self._scenario(Algorithm.CENTRALIZED))
        distributed = run_scenario(self._scenario(Algorithm.GLOBAL))
        dataset = build_intel_lab_dataset(self._scenario(Algorithm.GLOBAL).dataset_config())
        topo = Topology.from_positions(dataset.positions, 6.77)
        central_ratio = traffic_imbalance(central.energy, topo, 0)["max_over_avg"]
        distributed_ratio = traffic_imbalance(distributed.energy, topo, 0)["max_over_avg"]
        assert central_ratio > distributed_ratio

    def test_aggregate_energy_over_repetitions(self):
        first = run_scenario(self._scenario(Algorithm.GLOBAL))
        second = run_scenario(self._scenario(Algorithm.GLOBAL).with_seed(3))
        summary = aggregate_energy([first.energy, second.energy])
        assert summary.runs == 2
        assert summary.avg_total_per_round > 0
        assert summary.normalised_max >= 1.0 >= summary.normalised_min
