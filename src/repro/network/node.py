"""Simulated sensor node.

A :class:`SimNode` owns an energy meter and a stack of packet handlers
(routing agents, applications).  Its MAC behaviour is deliberately simple, as
in the paper: all transmissions are physical broadcasts, and every node in
range pays receive energy for them (promiscuous listening).  The channel
decides which receivers a frame is delivered to -- link-layer broadcasts
reach every receiver, unicasts only their link destination -- and counts an
overheard unicast in the receiver's ``packets_discarded``; a delivered packet
goes to the handler stack.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.errors import SimulationError
from .channel import WirelessChannel
from .energy import CROSSBOW_MICA2, EnergyMeter, EnergyModel
from .packet import BROADCAST_ADDRESS, Packet

__all__ = ["SimNode"]

#: A packet handler receives ``(node, packet)`` and returns ``True`` when it
#: consumed the packet (stopping propagation down the handler stack).
PacketHandler = Callable[["SimNode", Packet], bool]


class SimNode:
    """One wireless sensor in the simulated network.

    Parameters
    ----------
    node_id:
        Identifier; must exist in the channel's topology.
    channel:
        The shared wireless channel.
    energy_model:
        Radio power characteristics (defaults to the Crossbow constants used
        in the paper).
    """

    def __init__(
        self,
        node_id: int,
        channel: WirelessChannel,
        energy_model: EnergyModel = CROSSBOW_MICA2,
    ) -> None:
        self.node_id = int(node_id)
        self.channel = channel
        self.energy = EnergyMeter(model=energy_model)
        self._handlers: List[PacketHandler] = []
        self.packets_discarded = 0
        #: Availability state driven by the fault model; a down node neither
        #: samples, transmits nor receives.  Always ``True`` without faults.
        self.up = True
        self.transmissions_suppressed = 0
        self.deliveries_missed_down = 0
        channel.attach(self)

    # ------------------------------------------------------------------
    # Availability (fault model)
    # ------------------------------------------------------------------
    def power_down(self) -> None:
        """Turn the radio (and the node) off: crash or duty-cycle sleep."""
        self.up = False

    def power_up(self) -> None:
        """Bring the node back; state restoration is the application's job."""
        self.up = True

    # ------------------------------------------------------------------
    # Handler stack
    # ------------------------------------------------------------------
    def add_handler(self, handler: PacketHandler) -> None:
        """Append a packet handler (first-registered runs first)."""
        self._handlers.append(handler)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def simulator(self):
        return self.channel.simulator

    @property
    def neighbors(self) -> set:
        """The node's single-hop neighborhood according to the topology."""
        return self.channel.topology.neighbors(self.node_id)

    def send(self, packet: Packet) -> None:
        """Transmit a packet whose current link hop originates here."""
        if packet.link_source != self.node_id:
            raise SimulationError(
                f"node {self.node_id} cannot transmit a packet whose link source "
                f"is {packet.link_source}"
            )
        if not self.up:
            # A transmission scheduled before a crash/sleep fires into a
            # dead radio: it silently evaporates.
            self.transmissions_suppressed += 1
            return
        self.channel.transmit(self.node_id, packet)

    def broadcast(self, packet: Packet) -> None:
        """Transmit a link-layer broadcast originating here."""
        if not self.up:
            self.transmissions_suppressed += 1
            return
        packet.link_source = self.node_id
        packet.link_destination = BROADCAST_ADDRESS
        self.channel.transmit(self.node_id, packet)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Called by the channel when a packet addressed to this node, or
        broadcast, reaches its radio."""
        if not self.up:
            # The node went down between the loss draw and the delivery
            # instant (airtime + processing delay): the packet is gone.
            self.deliveries_missed_down += 1
            return
        for handler in self._handlers:
            if handler(self, packet):
                return
        self.packets_discarded += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimNode(id={self.node_id}, handlers={len(self._handlers)})"
