"""Unit-disk topology construction and its CSR queries.

:class:`~repro.network.topology.Topology` builds its edge set with one
all-pairs loop (:func:`~repro.network.topology.unit_disk_pairs`, the test
``math.hypot(dx, dy) <= range`` over ascending index pairs) and answers
neighbor, BFS and connectivity queries from flat CSR arrays.  These tests
check the loop on its boundary cases -- pair distance exactly equal to the
range, coincident points, empty and single-point inputs -- pin the edge
sets of every layout generator, and check every query against a
plain-Python oracle built here from the placements alone (an all-pairs
adjacency dict and a dict BFS), independent of the CSR arrays.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque

import numpy as np
import pytest

from repro.core.errors import DatasetError, TopologyError
from repro.datasets.layout import (
    DEFAULT_TRANSMISSION_RANGE,
    grid_layout,
    intel_lab_layout,
    random_layout,
)
from repro.experiments.sweeps import scaling_terrain
from repro.network.topology import Topology, unit_disk_pairs


def _pair_set(first, second):
    return set(zip(first.tolist(), second.tolist()))


def _oracle_adjacency(positions, radius):
    """``{node: ascending neighbor list}`` straight from the placements."""
    ids = sorted(positions)
    adjacency = {node: [] for node in ids}
    for a in ids:
        ax, ay = positions[a]
        for b in ids:
            bx, by = positions[b]
            if a != b and math.hypot(ax - bx, ay - by) <= radius:
                adjacency[a].append(b)
    return adjacency


def _oracle_bfs(adjacency, source):
    """Hop distances and BFS-tree parents of every node reachable from
    ``source``: FIFO queue, neighbors in ascending id order."""
    distances = {source: 0}
    parents = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                parents[neighbor] = node
                queue.append(neighbor)
    return distances, parents


def _edge_digest(topology):
    text = "".join(
        f"{a},{b}\n"
        for a, b in zip(topology._edge_a.tolist(), topology._edge_b.tolist())
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Every registered layout generator, at the paper's range and at other
# ranges.  The 10x10 grid at spacing exactly equal to the range is the
# boundary case: every lattice edge sits at distance == range, where one
# misrounded comparison would flip hundreds of edges.
_LAYOUTS = {
    "lab53": (intel_lab_layout(), DEFAULT_TRANSMISSION_RANGE),
    "lab200-dense": (
        intel_lab_layout(node_count=200, terrain_size=50.0),
        DEFAULT_TRANSMISSION_RANGE,
    ),
    "grid12x9": (grid_layout(12, 9, spacing=5.0), 6.0),
    "grid-boundary": (
        grid_layout(10, 10, spacing=DEFAULT_TRANSMISSION_RANGE),
        DEFAULT_TRANSMISSION_RANGE,
    ),
    "random300": (random_layout(300, terrain_size=100.0, seed=7), 8.0),
    "random-sparse": (random_layout(40, terrain_size=200.0, seed=3), 6.0),
}
LAYOUTS = [pytest.param(*layout, id=name) for name, layout in _LAYOUTS.items()]

# (edge count, digest of the "i,j" lines) per layout, recorded from the
# edge arrays of the grid spatial index this builder replaced; the
# 1024-node entry is the smallest paper-profile ``scaling-nodes`` layout.
PINNED_EDGES = {
    "lab53": (113, "77e647d145810654"),
    "lab200-dense": (1853, "1b951347efb1b715"),
    "grid12x9": (195, "1d129cbd6dc36288"),
    "grid-boundary": (140, "af0d5daf71c2dbcf"),
    "random300": (800, "495f2eb5c4877c04"),
    "random-sparse": (6, "34b73e815e9ad7d5"),
    "scaling1024": (2548, "075f99373ba54c44"),
}


class TestPairsEquivalence:
    @pytest.mark.parametrize("name", list(PINNED_EDGES))
    def test_edge_arrays_are_pinned(self, name):
        if name == "scaling1024":
            positions = intel_lab_layout(
                node_count=1024, terrain_size=scaling_terrain(1024)
            )
            radius = DEFAULT_TRANSMISSION_RANGE
        else:
            positions, radius = _LAYOUTS[name]
        topology = Topology.from_positions(positions, transmission_range=radius)
        assert topology._edge_a.dtype == topology._edge_b.dtype == np.int64
        assert (topology.edge_count, _edge_digest(topology)) == PINNED_EDGES[name]

    def test_distance_exactly_equal_to_radius_is_an_edge(self):
        # hypot(3, 4) == 5.0 exactly in floating point.
        ys = [0.0, 4.0, 100.0]
        assert _pair_set(*unit_disk_pairs([0.0, 3.0, 100.0], ys, 5.0)) == {(0, 1)}
        topology = Topology.from_positions(
            {0: (0.0, 0.0), 1: (3.0, 4.0), 2: (100.0, 100.0)},
            transmission_range=5.0,
        )
        assert topology.neighbors_sorted(0) == (1,)
        # Nudged by single ulps the true distance hovers within rounding
        # error of the range: the verdict is exactly the math.hypot
        # comparison (which may legitimately still round to 5.0).
        for steps in range(1, 6):
            x = 3.0
            for _ in range(steps):
                x = math.nextafter(x, 4.0)
            expected = {(0, 1)} if math.hypot(0.0 - x, 0.0 - 4.0) <= 5.0 else set()
            assert _pair_set(*unit_disk_pairs([0.0, x, 100.0], ys, 5.0)) == expected
        # A clearly-outside pair is rejected.
        assert _pair_set(*unit_disk_pairs([0.0, 3.001, 100.0], ys, 5.0)) == set()

    def test_many_points_sharing_one_cell(self):
        # Coincident and near-coincident points: every pair is enumerated
        # exactly once, in ascending (i, j) order.
        xs = [1.0, 1.0, 1.0, 1.2, 1.4]
        ys = [2.0, 2.0, 2.1, 2.0, 2.3]
        first, second = unit_disk_pairs(xs, ys, 1.0)
        pairs = list(zip(first.tolist(), second.tolist()))
        assert pairs == [(i, j) for i in range(5) for j in range(i + 1, 5)]

    def test_zero_radius_pairs_coincident_points_only(self):
        first, second = unit_disk_pairs([0.0, 0.0, 5.0], [1.0, 1.0, 1.0], 0.0)
        assert _pair_set(first, second) == {(0, 1)}

    def test_degenerate_sizes(self):
        for xs, ys in (([], []), ([3.0], [4.0])):
            first, second = unit_disk_pairs(xs, ys, 5.0)
            assert first.size == second.size == 0
            assert first.dtype == second.dtype == np.int64
        single = Topology.from_positions({7: (3.0, 4.0)}, transmission_range=5.0)
        assert single.edge_count == 0
        assert single.neighbors_sorted(7) == ()
        assert single.is_connected() and single.diameter() == 0


class TestTopologyBuilders:
    def test_topology_takes_no_builder_argument(self):
        with pytest.raises(TypeError):
            Topology.from_positions(
                {0: (0.0, 0.0)}, transmission_range=1.0, builder="grid"
            )

    @pytest.mark.parametrize("positions,radius", LAYOUTS)
    def test_neighbors_match_the_oracle(self, positions, radius):
        topology = Topology.from_positions(positions, transmission_range=radius)
        oracle = _oracle_adjacency(positions, radius)
        assert topology.node_ids == sorted(oracle)
        assert topology.edge_count == sum(map(len, oracle.values())) // 2
        for node_id, neighbors in oracle.items():
            assert topology.neighbors_sorted(node_id) == tuple(neighbors)
            assert topology.neighbors(node_id) == set(neighbors)
        assert topology.adjacency() == {n: set(v) for n, v in oracle.items()}
        degrees = [len(v) for v in oracle.values()]
        assert topology.degree_statistics() == (
            min(degrees), sum(degrees) / len(degrees), max(degrees)
        )

    @pytest.mark.parametrize("positions,radius", LAYOUTS)
    def test_bfs_queries_match_the_oracle(self, positions, radius):
        topology = Topology.from_positions(positions, transmission_range=radius)
        oracle = _oracle_adjacency(positions, radius)
        ids = sorted(oracle)
        for source in ids:
            distances, parents = _oracle_bfs(oracle, source)
            assert topology.hop_distances_from(source) == distances
            assert topology.shortest_path_tree(source) == parents
            for hops in (0, 1, 3):
                assert topology.nodes_within_hops(source, hops) == {
                    n for n, d in distances.items() if d <= hops
                }
        for a, b in zip(ids, reversed(ids)):
            distances, _ = _oracle_bfs(oracle, a)
            if b in distances:
                assert topology.hop_distance(a, b) == distances[b]
            else:
                with pytest.raises(TopologyError):
                    topology.hop_distance(a, b)

    @pytest.mark.parametrize("positions,radius", LAYOUTS)
    def test_connectivity_and_diameter_match_the_oracle(self, positions, radius):
        topology = Topology.from_positions(positions, transmission_range=radius)
        oracle = _oracle_adjacency(positions, radius)
        ids = sorted(oracle)
        unseen = set(ids)
        components = 0
        for node in ids:
            if node in unseen:
                components += 1
                unseen -= set(_oracle_bfs(oracle, node)[0])
        assert topology.is_connected() == (components == 1)
        if components == 1:
            topology.require_connected()
            assert topology.diameter() == max(
                max(_oracle_bfs(oracle, n)[0].values()) for n in ids
            )
        else:
            with pytest.raises(TopologyError, match=f"{components} components"):
                topology.require_connected()

    def test_csr_queries_match_plain_oracle(self):
        positions = random_layout(80, terrain_size=40.0, seed=5)
        topology = Topology.from_positions(
            positions, transmission_range=DEFAULT_TRANSMISSION_RANGE
        )
        oracle = _oracle_adjacency(positions, DEFAULT_TRANSMISSION_RANGE)
        for node_id, neighbors in oracle.items():
            assert topology.neighbors(node_id) == set(neighbors)
        source = topology.node_ids[0]
        distances, _ = _oracle_bfs(oracle, source)
        assert topology.hop_distances_from(source) == distances
        if topology.is_connected():
            assert topology.diameter() == max(
                max(_oracle_bfs(oracle, n)[0].values()) for n in oracle
            )

    def test_nodes_within_hops_is_a_depth_cutoff(self):
        positions = intel_lab_layout()
        topology = Topology.from_positions(
            positions, transmission_range=DEFAULT_TRANSMISSION_RANGE
        )
        source = 0
        distances = topology.hop_distances_from(source)
        for hops in (0, 1, 2, 5):
            expected = {n for n, d in distances.items() if d <= hops}
            assert topology.nodes_within_hops(source, hops) == expected

    def test_node_ids_and_adjacency_are_cached(self):
        topology = Topology.from_positions(
            intel_lab_layout(), transmission_range=DEFAULT_TRANSMISSION_RANGE
        )
        assert topology.node_ids is topology.node_ids
        assert topology.adjacency() is topology.adjacency()
        # Cached ids are plain python ints (safe as JSON/dict keys).
        assert all(type(n) is int for n in topology.node_ids)
        assert all(
            type(n) is int
            for n in topology.neighbors_sorted(topology.node_ids[0])
        )


class TestRandomLayoutScaling:
    def test_grid_bucketed_rejection_matches_historical_draws(self):
        # The bucketed spacing check must preserve the historical RNG draw
        # sequence: same seed, same accepted positions.
        layout = random_layout(25, terrain_size=30.0, seed=42, min_spacing=3.0)
        assert len(layout) == 25
        points = list(layout.values())
        for i, (xi, yi) in enumerate(points):
            for xj, yj in points[i + 1 :]:
                assert math.hypot(xi - xj, yi - yj) >= 3.0
        again = random_layout(25, terrain_size=30.0, seed=42, min_spacing=3.0)
        assert layout == again

    def test_infeasible_density_reports_bound_and_progress(self):
        with pytest.raises(DatasetError) as excinfo:
            random_layout(
                500, terrain_size=10.0, seed=0, min_spacing=5.0,
                max_attempts=2000,
            )
        message = str(excinfo.value)
        assert "placed only" in message
        assert "at most ~" in message
        assert "reduce node_count or min_spacing" in message
