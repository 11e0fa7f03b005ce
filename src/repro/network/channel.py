"""Wireless broadcast channel with free-space propagation.

Every transmission is physically a broadcast: all nodes within transmission
range of the sender overhear the packet and spend receive energy on it
(promiscuous listening), regardless of whom the packet is addressed to.  The
channel decides which receivers the frame is delivered to: every receiver of
a link-layer broadcast, and only the link destination of a unicast.  A
unicast overheard by any other receiver is charged, counted and discarded at
transmission time; it never becomes a simulator event.

The channel models:

* transmission delay = packet size / bit-rate (the airtime),
* a small constant per-hop processing latency,
* independent per-receiver packet loss with a configurable probability
  (the paper assumes mostly-reliable delivery; a small loss rate is used for
  the accuracy-under-loss experiments),
* optionally, *correlated* burst loss: a two-state Gilbert-Elliott Markov
  chain per directed link (see :class:`GilbertElliottParams`) replaces the
  i.i.d. model, reproducing the multi-packet fades real radios exhibit.

Nodes that are powered down (fault-model crash or duty-cycle sleep) neither
transmit nor receive: a down sender's transmission evaporates without
charging energy, and a down receiver is skipped entirely -- its radio is
off, so it pays no promiscuous receive energy either.

Each sender's receivers -- its attached in-range nodes in ascending id --
are a table built on the sender's first transmission and dropped whenever a
node attaches.  The channel charges energy by adding to the sender's and
each receiver's :class:`~repro.network.energy.EnergyMeter` fields in place.

Collisions are not modelled explicitly -- the paper relies on carrier-sense
to avoid them and does not report collision statistics; their first-order
effect (occasional missing packets) is covered by the loss probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..core.errors import ConfigurationError, SimulationError
from ..simulator.engine import Simulator
from ..simulator.rng import RandomStreams
from .packet import BROADCAST_ADDRESS, Packet
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import SimNode

__all__ = ["ChannelStatistics", "GilbertElliottParams", "WirelessChannel"]


@dataclass(frozen=True)
class GilbertElliottParams:
    """Two-state (good/bad) burst-loss channel model.

    Before each delivery attempt on a directed link the link's state
    advances one Markov step (``p_good_to_bad`` / ``p_bad_to_good``), then
    the packet is lost with the state's loss probability.  The stationary
    loss rate is ``pi_bad * loss_bad + (1 - pi_bad) * loss_good`` with
    ``pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good)``, which lets
    experiments match the *average* rate of an i.i.d. model while varying
    only the burstiness.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.p_bad_to_good <= 1.0:
            raise ConfigurationError(
                f"p_bad_to_good must be in (0, 1], got {self.p_bad_to_good}"
            )

    @property
    def stationary_loss(self) -> float:
        """Long-run average loss probability of the chain."""
        denominator = self.p_good_to_bad + self.p_bad_to_good
        if denominator == 0.0:
            return self.loss_good
        pi_bad = self.p_good_to_bad / denominator
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good


@dataclass
class ChannelStatistics:
    """Aggregate traffic counters for one simulation run."""

    transmissions: int = 0
    deliveries: int = 0
    losses: int = 0
    bytes_transmitted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "losses": self.losses,
            "bytes_transmitted": self.bytes_transmitted,
        }


class WirelessChannel:
    """Connects :class:`~repro.network.node.SimNode` objects according to a
    :class:`~repro.network.topology.Topology`.

    Parameters
    ----------
    simulator:
        The discrete-event engine driving the run.
    topology:
        Placement and connectivity of the nodes.
    loss_probability:
        Probability that any given receiver fails to decode a packet
        (independently per receiver).
    processing_delay:
        Fixed per-hop latency added on top of the airtime, in seconds.
    streams:
        Seeded random streams; the channel uses the ``"channel"`` stream
        (and, when the burst model is active, ``"channel-burst"`` -- a
        separate stream so enabling bursts never perturbs the i.i.d. draws
        of other components).
    burst:
        Optional :class:`GilbertElliottParams`; when given, correlated
        burst loss *replaces* the i.i.d. ``loss_probability`` model.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        loss_probability: float = 0.0,
        processing_delay: float = 1e-3,
        streams: Optional[RandomStreams] = None,
        burst: Optional[GilbertElliottParams] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        if not 0.0 <= processing_delay < math.inf:
            raise ConfigurationError(
                f"processing_delay must be non-negative and finite, got {processing_delay}"
            )
        self.simulator = simulator
        self.topology = topology
        self.loss_probability = float(loss_probability)
        self.processing_delay = float(processing_delay)
        self.burst = burst
        streams = streams or RandomStreams(0)
        self._rng = streams.stream("channel")
        self._burst_rng = streams.stream("channel-burst") if burst else None
        self._burst_bad: Dict[Tuple[int, int], bool] = {}
        self._nodes: Dict[int, "SimNode"] = {}
        #: Sender id -> its attached in-range nodes, in ascending id.
        self._receivers: Dict[int, Tuple["SimNode", ...]] = {}
        self.stats = ChannelStatistics()
        #: Overheard unicasts: counted in ``stats.deliveries`` but never
        #: scheduled, and the latest arrival time among them.
        self.overheard_receptions = 0
        self.last_overheard_arrival = 0.0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, node: "SimNode") -> None:
        """Register a node with the channel (done by the node constructor)."""
        if node.node_id not in self.topology:
            raise SimulationError(
                f"node {node.node_id} is not part of the topology"
            )
        if node.node_id in self._nodes:
            raise SimulationError(f"node {node.node_id} attached twice")
        self._nodes[node.node_id] = node
        self._receivers.clear()

    def node(self, node_id: int) -> "SimNode":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"no node attached with id {node_id}") from None

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _receiver_table(self, sender_id: int) -> Tuple["SimNode", ...]:
        """Build the receiver table of ``sender_id``: the attached nodes
        within its range, in ascending id (the loss-draw order)."""
        nodes = self._nodes
        table = self._receivers[sender_id] = tuple(
            nodes[neighbor_id]
            for neighbor_id in self.topology.neighbors_sorted(sender_id)
            if neighbor_id in nodes
        )
        return table

    def transmit(self, sender_id: int, packet: Packet) -> None:
        """Put ``packet`` on the air from ``sender_id``.

        The sender is charged transmit energy once; every receiver in the
        sender's table that is up is charged receive energy (promiscuous
        listening) and takes a loss draw, in ascending id.  A reception
        that survives the draw counts in ``stats.deliveries``.  It is
        delivered after the airtime plus the processing delay when the
        frame is a broadcast or the receiver is its link destination; an
        overheard unicast is discarded here instead.  The airtime and the
        receive energy are computed once per packet for each distinct
        :class:`~repro.network.energy.EnergyModel`, added to the meters in
        place, and the deliveries are scheduled as one fan-out in receiver
        order.
        """
        sender = self.node(sender_id)
        if not sender.up:
            # The radio is powered down (crash / duty-cycle sleep): nothing
            # reaches the air and no energy is spent.
            return
        size = packet.size_bytes
        meter = sender.energy
        model = meter.model
        airtime = model.airtime(size)
        meter.tx_joules += model.tx_energy_over(airtime)
        meter.packets_sent += 1
        meter.bytes_sent += size
        stats = self.stats
        stats.transmissions += 1
        stats.bytes_transmitted += size

        # Without a burst model and with a zero loss probability ``_lost``
        # draws nothing and returns False, so skipping it changes no draw.
        lossy = self.burst is not None or self.loss_probability > 0
        destination = packet.link_destination
        broadcast = destination == BROADCAST_ADDRESS
        rx_joules: Dict[int, float] = {}  # id(EnergyModel) -> joules
        rx_model = energy = None
        deliveries = []
        overheard = 0
        receivers = self._receivers.get(sender_id)
        if receivers is None:
            receivers = self._receiver_table(sender_id)
        for receiver in receivers:
            if not receiver.up:
                # A powered-down receiver's radio is off: no promiscuous
                # receive energy, no delivery, no loss draw.
                continue
            # Promiscuous listening: the radio decodes everything in range.
            meter = receiver.energy
            if meter.model is not rx_model:
                rx_model = meter.model
                energy = rx_joules.get(id(rx_model))
                if energy is None:
                    seconds = airtime if rx_model is model else rx_model.airtime(size)
                    energy = rx_joules[id(rx_model)] = rx_model.rx_energy_over(seconds)
            meter.rx_joules += energy
            meter.packets_received += 1
            meter.bytes_received += size
            if lossy and self._lost(sender_id, receiver.node_id):
                stats.losses += 1
                continue
            if broadcast or receiver.node_id == destination:
                deliveries.append(receiver.deliver)
            else:
                # Unicast traffic meant for someone else: the energy has
                # been spent, but the packet is not processed further.
                receiver.packets_discarded += 1
                overheard += 1
        delay = airtime + self.processing_delay
        if overheard:
            self.overheard_receptions += overheard
            self.last_overheard_arrival = max(
                self.last_overheard_arrival, self.simulator.now + delay
            )
        stats.deliveries += len(deliveries) + overheard
        self.simulator.schedule_each(delay, deliveries, packet)

    def _lost(self, sender_id: int, receiver_id: int) -> bool:
        """One loss decision for this delivery attempt.

        Without a burst model this is the legacy i.i.d. Bernoulli draw (and
        consumes exactly the same ``"channel"`` stream draws as before the
        fault subsystem existed).  With a burst model, the directed link's
        Gilbert-Elliott state advances one step and the state's loss
        probability applies, both drawn from the dedicated
        ``"channel-burst"`` stream.
        """
        if self.burst is None:
            return bool(
                self.loss_probability
                and self._rng.random() < self.loss_probability
            )
        link = (sender_id, receiver_id)
        bad = self._burst_bad.get(link, False)
        if bad:
            if self._burst_rng.random() < self.burst.p_bad_to_good:
                bad = False
        elif self._burst_rng.random() < self.burst.p_good_to_bad:
            bad = True
        self._burst_bad[link] = bad
        loss = self.burst.loss_bad if bad else self.burst.loss_good
        return bool(loss and self._burst_rng.random() < loss)
