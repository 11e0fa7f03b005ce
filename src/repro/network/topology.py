"""Network topology: node placement and unit-disk connectivity.

The paper deploys 53 motes (Intel Lab layout) on a 50 m x 50 m terrain with a
uniform transmission range of about 6.77 m; two sensors can communicate
directly when their Euclidean distance does not exceed the range (the classic
unit-disk graph model, which is also what SENSE's free-space propagation with
a fixed reception threshold produces).

:class:`Topology` builds and queries that graph.  The edge set comes from one
all-pairs loop, ``math.hypot(dx, dy) <= range`` over ascending index pairs;
the hot queries (neighbors, BFS hop distances, shortest-path trees,
connectivity) run on CSR-style flat adjacency arrays built once at
construction.

Determinism: neighbor lists are exposed in ascending node-id order, BFS
explores neighbors in that order with a FIFO frontier, so every derived
structure (hop distances, shortest-path trees and their tie-breaks) is a
pure function of the placement set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import TopologyError

__all__ = ["NodePlacement", "Topology", "unit_disk_pairs"]


def unit_disk_pairs(
    xs: Sequence[float], ys: Sequence[float], radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Every index pair ``i < j`` with ``math.hypot(dx, dy) <= radius``, in
    ascending ``(i, j)`` order, as two int64 arrays."""
    count = len(xs)
    first: List[int] = []
    second: List[int] = []
    for i in range(count):
        xi = xs[i]
        yi = ys[i]
        for j in range(i + 1, count):
            if math.hypot(xi - xs[j], yi - ys[j]) <= radius:
                first.append(i)
                second.append(j)
    return (
        np.asarray(first, dtype=np.int64),
        np.asarray(second, dtype=np.int64),
    )


@dataclass(frozen=True)
class NodePlacement:
    """A node identifier with its (x, y) position in metres."""

    node_id: int
    x: float
    y: float

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "NodePlacement") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Topology:
    """Unit-disk communication graph over a set of placed nodes.

    Parameters
    ----------
    placements:
        Node placements; identifiers must be unique.
    transmission_range:
        Maximum distance (metres) at which two nodes hear each other.
    """

    def __init__(
        self,
        placements: Iterable[NodePlacement],
        transmission_range: float,
    ) -> None:
        if transmission_range <= 0:
            raise TopologyError(
                f"transmission range must be positive, got {transmission_range}"
            )
        self.transmission_range = float(transmission_range)
        self._placements: Dict[int, NodePlacement] = {}
        for placement in placements:
            if placement.node_id in self._placements:
                raise TopologyError(f"duplicate node id {placement.node_id}")
            self._placements[placement.node_id] = placement
        if not self._placements:
            raise TopologyError("a topology needs at least one node")

        # Flat arrays in ascending-id order; ``index`` below means a node's
        # rank in this order.
        self._node_ids: List[int] = sorted(self._placements)
        self._index_of: Dict[int, int] = {
            node_id: index for index, node_id in enumerate(self._node_ids)
        }
        edge_a, edge_b = unit_disk_pairs(
            [float(self._placements[n].x) for n in self._node_ids],
            [float(self._placements[n].y) for n in self._node_ids],
            self.transmission_range,
        )
        self._edge_a = edge_a
        self._edge_b = edge_b

        # CSR adjacency: ``_indptr[i]:_indptr[i+1]`` slices ``_adjacency_flat``
        # into node i's neighbor indices, ascending.
        count = len(self._node_ids)
        if edge_a.size:
            heads = np.concatenate((edge_a, edge_b))
            tails = np.concatenate((edge_b, edge_a))
            order = np.lexsort((tails, heads))
            heads = heads[order]
            tails = tails[order]
            degrees = np.bincount(heads, minlength=count)
        else:
            tails = np.empty(0, dtype=np.int64)
            degrees = np.zeros(count, dtype=np.int64)
        self._indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(degrees, out=self._indptr[1:])
        self._adjacency_flat = tails

        # Python-native mirrors of the CSR rows: BFS iterates these (no
        # numpy scalar boxing on the hot path), and the id-typed tuples keep
        # ``np.int64`` out of JSON payloads and dict keys downstream.
        flat_indices: List[int] = tails.tolist()
        self._adj_index_lists: List[List[int]] = [
            flat_indices[self._indptr[i] : self._indptr[i + 1]]
            for i in range(count)
        ]
        self._neighbor_ids: List[Tuple[int, ...]] = [
            tuple(self._node_ids[j] for j in row)
            for row in self._adj_index_lists
        ]
        self._adjacency_cache: Optional[Dict[int, Set[int]]] = None
        self._connected: Optional[bool] = None
        self._components_cache: Optional[List[List[int]]] = None

    @classmethod
    def from_positions(
        cls,
        positions: Mapping[int, Tuple[float, float]],
        transmission_range: float,
    ) -> "Topology":
        """Build a topology from a ``{node_id: (x, y)}`` mapping."""
        placements = [
            NodePlacement(node_id, float(x), float(y))
            for node_id, (x, y) in positions.items()
        ]
        return cls(placements, transmission_range)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """Node identifiers in ascending order (cached; treat as read-only)."""
        return self._node_ids

    def __len__(self) -> int:
        return len(self._placements)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._placements

    @property
    def edge_count(self) -> int:
        """Number of undirected links in the unit-disk graph."""
        return int(self._edge_a.size)

    def placement(self, node_id: int) -> NodePlacement:
        try:
            return self._placements[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None

    def position(self, node_id: int) -> Tuple[float, float]:
        return self.placement(node_id).position

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes, in metres."""
        return self.placement(a).distance_to(self.placement(b))

    def _index(self, node_id: int) -> int:
        try:
            return self._index_of[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None

    def neighbors(self, node_id: int) -> Set[int]:
        """Single-hop neighbors of ``node_id`` (a fresh, mutable set)."""
        return set(self._neighbor_ids[self._index(node_id)])

    def neighbors_sorted(self, node_id: int) -> Tuple[int, ...]:
        """Single-hop neighbors in ascending id order (cached tuple).

        The channel and the fault runtime iterate this on every broadcast
        and every repair notification; the tuple is built once at
        construction, so the per-call cost is one dict lookup.
        """
        return self._neighbor_ids[self._index(node_id)]

    def adjacency(self) -> Dict[int, Set[int]]:
        """The full neighbor map ``{node_id: set(neighbors)}``.

        Built once and cached; callers must treat the returned mapping as
        read-only (every in-tree consumer does).
        """
        if self._adjacency_cache is None:
            self._adjacency_cache = {
                node_id: set(self._neighbor_ids[index])
                for index, node_id in enumerate(self._node_ids)
            }
        return self._adjacency_cache

    def degree_statistics(self) -> Tuple[int, float, int]:
        """(min, mean, max) node degree -- handy for sanity-checking density."""
        degrees = np.diff(self._indptr)
        return (
            int(degrees.min()),
            float(degrees.mean()),
            int(degrees.max()),
        )

    # ------------------------------------------------------------------
    # Connectivity (union-find over the edge arrays)
    # ------------------------------------------------------------------
    def _components(self) -> List[List[int]]:
        """Connected components as sorted id lists (cached)."""
        if self._components_cache is not None:
            return self._components_cache
        count = len(self._node_ids)
        parent = list(range(count))

        def find(index: int) -> int:
            root = index
            while parent[root] != root:
                root = parent[root]
            while parent[index] != root:
                parent[index], index = root, parent[index]
            return root

        for a, b in zip(self._edge_a.tolist(), self._edge_b.tolist()):
            root_a = find(a)
            root_b = find(b)
            if root_a != root_b:
                parent[root_b] = root_a
        groups: Dict[int, List[int]] = {}
        for index in range(count):
            groups.setdefault(find(index), []).append(index)
        self._components_cache = sorted(
            (sorted(self._node_ids[i] for i in members)
             for members in groups.values()),
            key=lambda component: component[0],
        )
        self._connected = len(self._components_cache) == 1
        return self._components_cache

    def is_connected(self) -> bool:
        """True when a (multi-hop) path exists between every pair of nodes."""
        if self._connected is None:
            self._components()
        return bool(self._connected)

    def require_connected(self) -> None:
        """Raise :class:`TopologyError` when the network is partitioned."""
        if not self.is_connected():
            components = self._components()
            raise TopologyError(
                f"network is not connected: {len(components)} components {components}"
            )

    # ------------------------------------------------------------------
    # BFS (FIFO frontier, ascending-id neighbor order)
    # ------------------------------------------------------------------
    def _bfs(
        self,
        source_index: int,
        max_hops: Optional[int] = None,
        target_index: Optional[int] = None,
    ) -> Tuple[List[int], List[int], List[int]]:
        """Breadth-first search over the CSR adjacency.

        Returns ``(order, distances, parents)``: visited indices in
        discovery order, per-index hop counts (-1 = unreached) and per-index
        BFS-tree parents (-1 = none).  Stops early at ``max_hops`` levels or
        when ``target_index`` is dequeued.
        """
        count = len(self._node_ids)
        distances = [-1] * count
        parents = [-1] * count
        distances[source_index] = 0
        visit_order = [source_index]
        frontier = [source_index]
        adjacency = self._adj_index_lists
        depth = 0
        while frontier:
            if max_hops is not None and depth >= max_hops:
                break
            if target_index is not None and distances[target_index] >= 0:
                break
            depth += 1
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if distances[neighbor] < 0:
                        distances[neighbor] = depth
                        parents[neighbor] = node
                        visit_order.append(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return visit_order, distances, parents

    def hop_distance(self, a: int, b: int) -> int:
        """Number of hops on a shortest path between two nodes."""
        index_a = self._index(a)
        index_b = self._index(b)
        _, distances, _ = self._bfs(index_a, target_index=index_b)
        hops = distances[index_b]
        if hops < 0:
            raise TopologyError(f"no path between nodes {a} and {b}")
        return hops

    def hop_distances_from(self, source: int) -> Dict[int, int]:
        """Hop distance from ``source`` to every reachable node."""
        visit_order, distances, _ = self._bfs(self._index(source))
        return {
            self._node_ids[index]: distances[index] for index in visit_order
        }

    def nodes_within_hops(self, source: int, max_hops: int) -> Set[int]:
        """All nodes (including ``source``) at hop distance <= ``max_hops``.

        Runs a depth-cutoff BFS: the traversal stops expanding at
        ``max_hops`` levels, so the cost is proportional to the
        neighborhood's size, not the whole network's.
        """
        visit_order, _, _ = self._bfs(self._index(source), max_hops=max_hops)
        return {self._node_ids[index] for index in visit_order}

    def shortest_path_tree(self, sink: int) -> Dict[int, Optional[int]]:
        """Next-hop table towards ``sink``: ``{node: next_hop_or_None}``.

        The sink maps to ``None``; unreachable nodes are absent.  A node's
        next hop is its parent in the BFS tree rooted at the sink, which is
        the first node that discovered it.  Used by the static-routing variant of the centralized baseline and as the ground
        truth AODV should discover.
        """
        sink_index = self._index(sink)
        visit_order, _, parents = self._bfs(sink_index)
        table: Dict[int, Optional[int]] = {sink: None}
        for index in visit_order:
            if index == sink_index:
                continue
            table[self._node_ids[index]] = self._node_ids[parents[index]]
        return table

    def diameter(self) -> int:
        """Longest shortest-path hop count in the (connected) network."""
        self.require_connected()
        worst = 0
        for index in range(len(self._node_ids)):
            _, distances, _ = self._bfs(index)
            worst = max(worst, max(distances))
        return worst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(nodes={len(self)}, range={self.transmission_range:g}m, "
            f"edges={self.edge_count})"
        )
