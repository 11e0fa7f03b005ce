"""Offline reference (ground-truth) computations.

The accuracy experiments compare every sensor's converged estimate with the
answer an omniscient observer would compute: ``O_n(D)`` for the global
algorithm and ``O_n(D_i^{<=d})`` for the semi-global one.  This module
computes those answers directly from the per-sensor datasets and the
communication graph, without running any protocol, so it also serves as the
test oracle for the convergence theorems.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Set

from .outliers import OutlierQuery
from .points import DataPoint

__all__ = [
    "global_reference",
    "hop_distances",
    "semi_global_reference",
    "semi_global_reference_all",
]


def global_reference(
    query: OutlierQuery, datasets: Mapping[int, Iterable[DataPoint]]
) -> List[DataPoint]:
    """``O_n(D)`` over the union of all sensors' datasets."""
    union: Set[DataPoint] = set()
    for points in datasets.values():
        union |= {p.with_hop(0) for p in points}
    return query.outliers(union)


def hop_distances(
    adjacency: Mapping[int, Iterable[int]], source: int
) -> Dict[int, int]:
    """Breadth-first hop distance from ``source`` to every reachable node.

    ``adjacency`` maps node id to an iterable of neighbor ids; the graph is
    treated as undirected (an edge is used in both directions even if it is
    only listed once).
    """
    undirected: Dict[int, Set[int]] = {node: set() for node in adjacency}
    for node, neighbors in adjacency.items():
        for other in neighbors:
            undirected.setdefault(node, set()).add(other)
            undirected.setdefault(other, set()).add(node)

    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in undirected.get(node, ()):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def semi_global_reference(
    query: OutlierQuery,
    datasets: Mapping[int, Iterable[DataPoint]],
    adjacency: Mapping[int, Iterable[int]],
    sensor_id: int,
    hop_diameter: int,
) -> List[DataPoint]:
    """``O_n(D_i^{<=d})`` for one sensor.

    The relevant dataset is the union of ``D_j`` over every sensor ``j``
    whose hop distance from ``sensor_id`` is at most ``hop_diameter``.
    """
    distances = hop_distances(adjacency, sensor_id)
    relevant: Set[DataPoint] = set()
    for other, points in datasets.items():
        if distances.get(other, float("inf")) <= hop_diameter:
            relevant |= {p.with_hop(0) for p in points}
    return query.outliers(relevant)


def semi_global_reference_all(
    query: OutlierQuery,
    datasets: Mapping[int, Iterable[DataPoint]],
    adjacency: Mapping[int, Iterable[int]],
    hop_diameter: int,
) -> Dict[int, List[DataPoint]]:
    """``O_n(D_i^{<=d})`` for every sensor, keyed by sensor id.

    Each answer is :func:`semi_global_reference`'s, computed the same
    brute-force way: the undirected graph is built once, and each sensor's
    breadth-first walk stops at depth ``hop_diameter``, so only the
    datasets of the sensors it reaches are ranked.  This module is the
    ground truth the accuracy experiments validate the detectors (and
    their indexes) against, so it must not share code with the subsystem
    under test.
    """
    undirected: Dict[int, Set[int]] = {node: set() for node in adjacency}
    for node, neighbors in adjacency.items():
        for other in neighbors:
            undirected[node].add(other)
            undirected.setdefault(other, set()).add(node)
    answers: Dict[int, List[DataPoint]] = {}
    for sensor_id in datasets:
        reached = {sensor_id}
        frontier = [sensor_id]
        depth = 0
        while frontier and depth < hop_diameter:
            depth += 1
            ahead = []
            for node in frontier:
                for other in undirected.get(node, ()):
                    if other not in reached:
                        reached.add(other)
                        ahead.append(other)
            frontier = ahead
        relevant: Set[DataPoint] = set()
        for other in reached:
            if other in datasets:
                relevant |= {p.with_hop(0) for p in datasets[other]}
        answers[sensor_id] = query.outliers(relevant)
    return answers
