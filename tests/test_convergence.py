"""Convergence properties of the distributed protocols over in-memory
networks: Theorems 1 and 2 for the global algorithm (agreement + exactness on
arbitrary connected topologies and event orderings), termination and
empirical accuracy for the semi-global heuristic, and behaviour under
dynamic data.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_connected_adjacency, random_dataset

from repro.core import (
    AverageKNNDistance,
    GlobalOutlierDetector,
    InMemoryNetwork,
    NearestNeighborDistance,
    OutlierQuery,
    SemiGlobalOutlierDetector,
    global_reference,
    hop_distances,
    make_point,
    metric_from_name,
    registered_metrics,
    semi_global_reference,
    semi_global_reference_all,
)


def _metric_for_3d(name):
    """A registered metric with parameters sized for ``random_dataset``'s
    (reading, x, y) points: readings span ~20-100, coordinates 0-50."""
    if name == "weighted-euclidean":
        return metric_from_name(name, weights=(1.0, 0.5, 0.25))
    if name == "mahalanobis":
        return metric_from_name(
            name,
            cov=((4.0, 0.5, 0.0), (0.5, 100.0, 10.0), (0.0, 10.0, 100.0)),
        )
    return metric_from_name(name)


def _run_global(query, adjacency, datasets, seed=None):
    detectors = {i: GlobalOutlierDetector(i, query) for i in adjacency}
    network = InMemoryNetwork(detectors, adjacency, seed=seed)
    network.inject_local_data(datasets)
    network.run_to_quiescence()
    return detectors, network


class TestGlobalConvergence:
    def test_section_51_example_converges_to_half(self):
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        a, b = 20, 10
        d_i = [make_point([v], 0, i) for i, v in enumerate([0.5, 3, 6] + list(range(10, a + 1)))]
        d_j = [make_point([v], 1, i) for i, v in enumerate([4, 5, 7, 8, 9] + list(range(a + 1, a + b + 1)))]
        detectors, network = _run_global(query, {0: [1], 1: [0]}, {0: d_i, 1: d_j})
        for det in detectors.values():
            assert [p.values[0] for p in det.estimate()] == [0.5]
        # Communication stays tiny compared to centralising min(|D_i|, |D_j|).
        assert network.log.point_transmissions < min(len(d_i), len(d_j))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_theorems_1_and_2_on_random_topologies(self, data):
        """All sensors agree and the agreed answer is the exact O_n(D)."""
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        sensors = data.draw(st.integers(min_value=2, max_value=7))
        n = data.draw(st.integers(min_value=1, max_value=3))
        use_knn = data.draw(st.booleans())
        ranking = AverageKNNDistance(k=2) if use_knn else NearestNeighborDistance()
        query = OutlierQuery(ranking, n=n)
        adjacency = random_connected_adjacency(rng, sensors)
        datasets = random_dataset(rng, sensors, per_sensor=rng.randint(2, 6))
        delivery_seed = data.draw(st.integers(min_value=0, max_value=10_000))

        detectors, network = _run_global(query, adjacency, datasets, seed=delivery_seed)

        reference = {p.rest for p in global_reference(query, datasets)}
        assert network.estimates_agree()
        for det in detectors.values():
            assert {p.rest for p in det.estimate()} == reference

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_theorems_1_and_2_under_every_metric_after_evictions(self, data):
        """Exactness holds in every registered metric space, and again once
        a random subset of the points has been evicted network-wide."""
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        metric = _metric_for_3d(data.draw(st.sampled_from(registered_metrics())))
        sensors = data.draw(st.integers(min_value=2, max_value=6))
        n = data.draw(st.integers(min_value=1, max_value=3))
        if data.draw(st.booleans()):
            ranking = AverageKNNDistance(k=2, metric=metric)
        else:
            ranking = NearestNeighborDistance(metric=metric)
        query = OutlierQuery(ranking, n=n)
        adjacency = random_connected_adjacency(rng, sensors)
        datasets = random_dataset(rng, sensors, per_sensor=rng.randint(2, 6))
        delivery_seed = data.draw(st.integers(min_value=0, max_value=10_000))

        detectors, network = _run_global(query, adjacency, datasets, seed=delivery_seed)

        def assert_exact(data_now):
            # global_reference scores by brute force under the query's metric.
            reference = {p.rest for p in global_reference(query, data_now)}
            assert network.estimates_agree()
            for det in detectors.values():
                assert {p.rest for p in det.estimate()} == reference

        assert_exact(datasets)
        everything = [p for points in datasets.values() for p in points]
        evicted = set(rng.sample(everything, rng.randint(1, len(everything) - 1)))
        # Sliding-window rule: every sensor deletes an expired point.
        network.evict({i: evicted for i in adjacency})
        network.run_to_quiescence()
        assert_exact(
            {
                i: [p for p in points if p not in evicted]
                for i, points in datasets.items()
            }
        )

    def test_dynamic_updates_reconverge(self):
        rng = random.Random(3)
        query = OutlierQuery(NearestNeighborDistance(), n=2)
        adjacency = {0: [1], 1: [2], 2: [3], 3: []}
        datasets = random_dataset(rng, 4, per_sensor=4)
        detectors, network = _run_global(query, adjacency, datasets)

        # New data arrives at sensor 2, including an extreme value.
        extra = [make_point([500.0, 1.0, 1.0], origin=2, epoch=99)]
        network.inject_local_data({2: extra})
        network.run_to_quiescence()

        merged = {k: list(v) for k, v in datasets.items()}
        merged[2] = merged[2] + extra
        reference = {p.rest for p in global_reference(query, merged)}
        for det in detectors.values():
            assert {p.rest for p in det.estimate()} == reference

    def test_eviction_reconverges(self):
        rng = random.Random(9)
        query = OutlierQuery(NearestNeighborDistance(), n=1)
        adjacency = {0: [1], 1: [2], 2: []}
        datasets = random_dataset(rng, 3, per_sensor=4, outlier_rate=0.0)
        spike = make_point([400.0, 0.0, 0.0], origin=0, epoch=50)
        datasets[0] = datasets[0] + [spike]
        detectors, network = _run_global(query, adjacency, datasets)
        assert all(spike.rest in {p.rest for p in d.estimate()} for d in detectors.values())

        # The spike ages out everywhere: every sensor deletes it.
        network.evict({i: [spike] for i in adjacency})
        network.run_to_quiescence()
        remaining = {k: [p for p in v if p.rest != spike.rest] for k, v in datasets.items()}
        reference = {p.rest for p in global_reference(query, remaining)}
        for det in detectors.values():
            assert {p.rest for p in det.estimate()} == reference

    def test_communication_is_proportional_to_outcome_not_data(self):
        """Doubling the amount of perfectly redundant data does not double
        the communication (the paper's 'communication proportional to the
        outcome' property)."""
        query = OutlierQuery(NearestNeighborDistance(), n=1)

        def build(copies):
            datasets = {
                node: [
                    make_point([20.0 + 0.001 * i, 0.0], origin=node, epoch=i)
                    for i in range(copies)
                ]
                for node in (0, 1)
            }
            datasets[0].append(make_point([90.0, 0.0], origin=0, epoch=999))
            detectors, network = _run_global(query, {0: [1], 1: []}, datasets)
            return network.log.point_transmissions

        small = build(5)
        large = build(50)
        assert large <= small * 3


class TestSemiGlobalConvergence:
    def test_terminates_on_random_topologies(self):
        rng = random.Random(11)
        for trial in range(5):
            sensors = rng.randint(3, 7)
            adjacency = random_connected_adjacency(rng, sensors)
            datasets = random_dataset(rng, sensors, per_sensor=3)
            query = OutlierQuery(NearestNeighborDistance(), n=2)
            detectors = {
                i: SemiGlobalOutlierDetector(i, query, hop_diameter=2) for i in adjacency
            }
            network = InMemoryNetwork(detectors, adjacency, seed=trial)
            network.inject_local_data(datasets)
            deliveries = network.run_to_quiescence(max_deliveries=50_000)
            assert deliveries < 50_000

    def test_exact_on_fully_connected_network(self):
        """With every pair in direct range the d=1 neighborhood is the whole
        network, so the semi-global answer coincides with the global one."""
        rng = random.Random(5)
        sensors = 5
        adjacency = {i: [j for j in range(sensors) if j != i] for i in range(sensors)}
        datasets = random_dataset(rng, sensors, per_sensor=4)
        query = OutlierQuery(NearestNeighborDistance(), n=2)
        detectors = {
            i: SemiGlobalOutlierDetector(i, query, hop_diameter=1) for i in adjacency
        }
        network = InMemoryNetwork(detectors, adjacency, seed=1)
        network.inject_local_data(datasets)
        network.run_to_quiescence()
        reference = {p.rest for p in global_reference(query, datasets)}
        for det in detectors.values():
            assert {p.rest for p in det.estimate()} == reference

    def test_high_accuracy_on_random_topologies(self):
        """The refined variant gets the vast majority of node estimates
        exactly right even on sparse random graphs."""
        rng = random.Random(21)
        exact = total = 0
        for trial in range(8):
            sensors = rng.randint(3, 8)
            d = rng.randint(1, 3)
            adjacency = random_connected_adjacency(rng, sensors)
            datasets = random_dataset(rng, sensors, per_sensor=4)
            query = OutlierQuery(NearestNeighborDistance(), n=2)
            detectors = {
                i: SemiGlobalOutlierDetector(i, query, hop_diameter=d) for i in adjacency
            }
            network = InMemoryNetwork(detectors, adjacency, seed=trial)
            network.inject_local_data(datasets)
            network.run_to_quiescence()
            for i in adjacency:
                reference = {
                    p.rest
                    for p in semi_global_reference(query, datasets, adjacency, i, d)
                }
                estimate = {p.rest for p in detectors[i].estimate()}
                exact += reference == estimate
                total += 1
        assert exact / total >= 0.8

    def test_reference_all_matches_the_per_sensor_reference(self):
        """``semi_global_reference_all`` walks each sensor's graph only to
        depth d; every answer must equal the whole-network BFS of
        ``semi_global_reference``."""
        rng = random.Random(31)
        queries = (
            OutlierQuery(NearestNeighborDistance(), n=2),
            OutlierQuery(AverageKNNDistance(k=2), n=2),
        )
        for trial in range(8):
            sensors = rng.randint(3, 9)
            adjacency = random_connected_adjacency(rng, sensors)
            datasets = random_dataset(rng, sensors, per_sensor=3)
            diameter = max(
                max(hop_distances(adjacency, i).values()) for i in adjacency
            )
            query = queries[trial % 2]
            for d in sorted({1, 2, diameter, 50}):
                assert semi_global_reference_all(
                    query, datasets, adjacency, d
                ) == {
                    i: semi_global_reference(query, datasets, adjacency, i, d)
                    for i in datasets
                }, (trial, d)

    def test_holdings_never_exceed_hop_budget(self):
        rng = random.Random(2)
        adjacency = {0: [1], 1: [2], 2: [3], 3: [4], 4: []}
        datasets = random_dataset(rng, 5, per_sensor=3)
        query = OutlierQuery(NearestNeighborDistance(), n=2)
        d = 2
        detectors = {
            i: SemiGlobalOutlierDetector(i, query, hop_diameter=d) for i in adjacency
        }
        network = InMemoryNetwork(detectors, adjacency, seed=0)
        network.inject_local_data(datasets)
        network.run_to_quiescence()
        for node, det in detectors.items():
            for point in det.holdings:
                assert abs(point.origin - node) <= d  # chain topology: |i-j| = hops
