"""Static shortest-path routing.

A zero-overhead alternative to AODV used (a) in unit tests of the forwarding
substrate and (b) in the ablation benchmark that isolates how much of the
centralized baseline's energy bill is route-discovery overhead versus data
relaying.  Routes are computed offline from the topology (next-hop tables of
the shortest-path tree towards each destination) and installed directly in
the agents.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.errors import RoutingError
from ..network.node import SimNode
from ..network.packet import BROADCAST_ADDRESS, Packet
from ..network.topology import Topology

__all__ = ["StaticRoutingAgent", "install_shortest_path_routes"]


class StaticRoutingAgent:
    """Hop-by-hop forwarder driven by a precomputed next-hop table."""

    def __init__(self, node: SimNode) -> None:
        self.node = node
        self.next_hop: Dict[int, int] = {}
        self.data_packets_forwarded = 0
        node.add_handler(self.handle_packet)

    @property
    def node_id(self) -> int:
        return self.node.node_id

    def set_route(self, destination: int, next_hop: int) -> None:
        if destination == self.node_id:
            raise RoutingError("a node does not need a route to itself")
        self.next_hop[destination] = next_hop

    def has_route(self, destination: int) -> bool:
        return destination in self.next_hop or destination == self.node_id

    def send_data(self, packet: Packet) -> None:
        """Originate an end-to-end unicast data packet from this node."""
        if packet.destination == BROADCAST_ADDRESS:
            raise RoutingError("static routing does not handle broadcasts")
        self._forward(packet)

    def handle_packet(self, node: SimNode, packet: Packet) -> bool:
        if packet.is_broadcast or packet.destination == self.node_id:
            return False
        self.data_packets_forwarded += 1
        self._forward(packet)
        return True

    def _forward(self, packet: Packet) -> None:
        try:
            hop = self.next_hop[packet.destination]
        except KeyError:
            raise RoutingError(
                f"node {self.node_id} has no static route to {packet.destination}"
            ) from None
        self.node.send(packet.next_hop_copy(self.node_id, hop))


def install_shortest_path_routes(
    agents: Dict[int, StaticRoutingAgent],
    topology: Topology,
    sink: int,
) -> None:
    """Install next-hop entries towards ``sink`` (and from the sink back to
    every node) in all agents, following shortest paths in ``topology``."""
    topology.require_connected()
    towards_sink = topology.shortest_path_tree(sink)
    for node_id, agent in agents.items():
        if node_id == sink:
            continue
        next_hop = towards_sink[node_id]
        if next_hop is None:
            raise RoutingError(f"node {node_id} has no path to the sink {sink}")
        agent.set_route(sink, next_hop)
    # Reverse direction: the sink replies to every node along the *same*
    # tree.  Each node's parent chain to the sink is walked once (no
    # per-destination BFS): on the sink -> node path, every hop's next step
    # towards the node is the chain predecessor, i.e. for the chain
    # node = c0 -> c1 -> ... -> sink, agent(c_{i+1}) routes the destination
    # ``node`` via c_i.
    for node_id in topology.node_ids:
        if node_id == sink:
            continue
        step = node_id
        parent = towards_sink[node_id]
        while parent is not None:
            agents[parent].set_route(node_id, step)
            step = parent
            parent = towards_sink[parent]
