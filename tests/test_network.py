"""Tests for the network substrate: topology, energy model, packets, channel
and nodes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, SimulationError, TopologyError
from repro.network import (
    BROADCAST_ADDRESS,
    CROSSBOW_MICA2,
    EnergyMeter,
    EnergyModel,
    EnergyReport,
    NodePlacement,
    Packet,
    PacketKind,
    SimNode,
    Topology,
    WirelessChannel,
)
from repro.network.channel import GilbertElliottParams
from repro.network.stats import NodeEnergy
from repro.simulator import RandomStreams, Simulator


def square_topology(side=2, spacing=5.0, rng=6.0):
    positions = {
        row * side + col: (col * spacing, row * spacing)
        for row in range(side)
        for col in range(side)
    }
    return Topology.from_positions(positions, rng)


class TestTopology:
    def test_neighbors_follow_the_unit_disk_rule(self):
        topo = square_topology()
        assert topo.neighbors(0) == {1, 2}  # diagonal (7.07m) out of range

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TopologyError):
            Topology([NodePlacement(0, 0, 0), NodePlacement(0, 1, 1)], 5.0)

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            Topology([], 5.0)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(TopologyError):
            Topology.from_positions({0: (0, 0)}, 0.0)

    def test_connectivity_detection(self):
        connected = square_topology()
        assert connected.is_connected()
        disconnected = Topology.from_positions({0: (0, 0), 1: (100, 100)}, 5.0)
        assert not disconnected.is_connected()
        with pytest.raises(TopologyError):
            disconnected.require_connected()

    def test_hop_distances(self):
        topo = square_topology()
        assert topo.hop_distance(0, 3) == 2
        assert topo.hop_distances_from(0) == {0: 0, 1: 1, 2: 1, 3: 2}
        assert topo.nodes_within_hops(0, 1) == {0, 1, 2}

    def test_shortest_path_tree_points_towards_the_sink(self):
        topo = square_topology()
        table = topo.shortest_path_tree(0)
        assert table[0] is None
        assert table[3] in {1, 2}
        assert table[1] == 0

    def test_distance_and_positions(self):
        topo = square_topology()
        assert topo.distance(0, 1) == pytest.approx(5.0)
        assert topo.position(3) == (5.0, 5.0)

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            square_topology().neighbors(99)

    def test_degree_statistics_and_diameter(self):
        topo = square_topology()
        low, mean, high = topo.degree_statistics()
        assert (low, high) == (2, 2)
        assert topo.diameter() == 2


class TestEnergyModel:
    def test_paper_constants(self):
        assert CROSSBOW_MICA2.tx_power_w == pytest.approx(0.0159)
        assert CROSSBOW_MICA2.rx_power_w == pytest.approx(0.021)
        assert CROSSBOW_MICA2.idle_power_w == pytest.approx(3e-6)

    def test_airtime_and_energy_scale_with_size(self):
        model = EnergyModel(bitrate_bps=38_400)
        assert model.airtime(48) == pytest.approx(0.01)
        assert model.tx_energy(96) == pytest.approx(2 * model.tx_energy(48))
        assert model.rx_energy(48) > model.tx_energy(48)  # RX draws more power

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(tx_power_w=0.0)
        with pytest.raises(ConfigurationError):
            CROSSBOW_MICA2.airtime(-1)
        with pytest.raises(ConfigurationError):
            CROSSBOW_MICA2.idle_energy(-1.0)

    @pytest.mark.parametrize(
        "field", ["tx_power_w", "rx_power_w", "idle_power_w", "bitrate_bps", "voltage"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            EnergyModel(**{field: value})

    def test_meter_accumulates(self):
        """One transmission charges the sender's and the receiver's meters;
        idle time adds to the sender's."""
        channel = WirelessChannel(Simulator(), square_topology())
        sender, receiver = SimNode(0, channel), SimNode(1, channel)
        channel.transmit(0, Packet(PacketKind.APP_DATA, source=0, destination=1,
                                   size_bytes=100))
        meter = sender.energy
        meter.charge_idle(10.0)
        assert meter.tx_joules == meter.model.tx_energy(100)
        assert receiver.energy.rx_joules == receiver.energy.model.rx_energy(100)
        assert meter.total_joules == pytest.approx(
            meter.tx_joules + meter.rx_joules + meter.idle_joules
        )
        assert meter.packets_sent == 1 and receiver.energy.packets_received == 1
        assert meter.bytes_sent == 100 and receiver.energy.bytes_received == 100
        assert meter.packets_received == receiver.energy.packets_sent == 0


class TestEnergyReport:
    def _report(self):
        meters = {}
        for node_id, tx in enumerate([1.0, 2.0, 3.0]):
            meter = EnergyMeter()
            meter.tx_joules = tx
            meters[node_id] = meter
        return EnergyReport.from_meters(meters, rounds=10)

    def test_averages_and_extremes(self):
        report = self._report()
        assert report.average_per_node("tx_joules") == pytest.approx(2.0)
        assert report.average_per_node_per_round("tx_joules") == pytest.approx(0.2)
        assert report.minimum_node_total() == pytest.approx(1.0)
        assert report.maximum_node_total() == pytest.approx(3.0)
        assert report.hottest_node().node_id == 2

    def test_normalised_range(self):
        norm = self._report().normalised_range()
        assert norm["avg"] == pytest.approx(1.0)
        assert norm["min"] == pytest.approx(0.5)
        assert norm["max"] == pytest.approx(1.5)

    def test_rows_and_totals(self):
        report = self._report()
        assert len(report.as_rows()) == 3
        assert report.totals()["tx_joules"] == pytest.approx(6.0)


class TestChannelAndNodes:
    def _stack(self, loss=0.0):
        sim = Simulator()
        topo = square_topology()
        channel = WirelessChannel(sim, topo, loss_probability=loss)
        nodes = {i: SimNode(i, channel) for i in topo.node_ids}
        return sim, channel, nodes

    def test_broadcast_reaches_only_nodes_in_range(self):
        sim, channel, nodes = self._stack()
        received = []
        for node in nodes.values():
            node.add_handler(lambda n, p: received.append(n.node_id) or True)
        packet = Packet(PacketKind.APP_BROADCAST, source=0,
                        destination=BROADCAST_ADDRESS, size_bytes=50)
        nodes[0].broadcast(packet)
        sim.run()
        assert sorted(received) == [1, 2]

    def test_promiscuous_listening_charges_all_neighbors(self):
        sim, channel, nodes = self._stack()
        packet = Packet(PacketKind.APP_DATA, source=0, destination=1, size_bytes=40,
                        link_source=0, link_destination=1)
        nodes[0].send(packet)
        sim.run()
        assert nodes[0].energy.tx_joules > 0
        assert nodes[1].energy.rx_joules > 0
        assert nodes[2].energy.rx_joules > 0  # overhears but discards
        assert nodes[2].packets_discarded == 1

    def test_unicast_delivered_only_to_link_destination(self):
        sim, channel, nodes = self._stack()
        handled = []
        for node in nodes.values():
            node.add_handler(lambda n, p: handled.append(n.node_id) or True)
        packet = Packet(PacketKind.APP_DATA, source=0, destination=1, size_bytes=40,
                        link_source=0, link_destination=1)
        nodes[0].send(packet)
        sim.run()
        assert handled == [1]

    def test_loss_probability_drops_deliveries(self):
        sim, channel, nodes = self._stack(loss=0.999)
        handled = []
        nodes[1].add_handler(lambda n, p: handled.append(p) or True)
        for _ in range(10):
            nodes[0].broadcast(Packet(PacketKind.APP_BROADCAST, source=0,
                                      destination=BROADCAST_ADDRESS, size_bytes=30))
        sim.run()
        assert channel.stats.losses > 0
        assert len(handled) < 10

    def test_cannot_send_packet_with_foreign_link_source(self):
        _sim, _channel, nodes = self._stack()
        packet = Packet(PacketKind.APP_DATA, source=1, destination=0, size_bytes=10,
                        link_source=1, link_destination=0)
        with pytest.raises(SimulationError):
            nodes[0].send(packet)

    def test_node_must_exist_in_topology(self):
        sim = Simulator()
        topo = square_topology()
        channel = WirelessChannel(sim, topo)
        with pytest.raises(SimulationError):
            SimNode(99, channel)

    def test_invalid_loss_probability(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            WirelessChannel(sim, square_topology(), loss_probability=1.5)

    def test_packet_next_hop_copy_increments_hop_count(self):
        packet = Packet(PacketKind.APP_DATA, source=0, destination=3, size_bytes=10)
        relayed = packet.next_hop_copy(1, 3)
        assert relayed.hop_count == packet.hop_count + 1
        assert relayed.source == 0 and relayed.link_source == 1

    def test_next_hop_copy_is_a_fresh_packet_sharing_the_payload(self):
        payload = object()
        packet = Packet(PacketKind.APP_DATA, source=0, destination=3, size_bytes=10,
                        payload=payload)
        before = dict(vars(packet))
        relayed = packet.next_hop_copy(1, 2)
        assert type(relayed) is Packet
        assert relayed.packet_id > packet.packet_id
        assert relayed.packet_id != packet.next_hop_copy(1, 2).packet_id
        assert relayed.payload is payload
        assert (relayed.kind, relayed.source, relayed.destination,
                relayed.size_bytes) == (PacketKind.APP_DATA, 0, 3, 10)
        assert (relayed.link_source, relayed.link_destination) == (1, 2)
        relayed.link_source, relayed.link_destination = 2, BROADCAST_ADDRESS
        relayed.hop_count = 7
        assert vars(packet) == before
        assert (packet.link_source, packet.link_destination) == (0, 3)

    def test_a_node_attached_after_a_send_joins_the_receiver_table(self):
        sim = Simulator()
        channel = WirelessChannel(sim, square_topology())
        nodes = {0: SimNode(0, channel)}
        broadcast = Packet(PacketKind.APP_BROADCAST, source=0,
                           destination=BROADCAST_ADDRESS, size_bytes=20)
        channel.transmit(0, broadcast)
        assert channel.stats.deliveries == 0
        nodes[1] = SimNode(1, channel)
        channel.transmit(0, broadcast)
        assert channel.stats.deliveries == 1
        assert nodes[1].energy.packets_received == 1

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1e-3])
    def test_invalid_processing_delay(self, delay):
        with pytest.raises(ConfigurationError):
            WirelessChannel(Simulator(), square_topology(), processing_delay=delay)


class TestChannelFanOut:
    """One transmission: one receive-energy figure per model, loss draws in
    receiver order, and one fan-out of deliveries -- to every receiver of a
    broadcast, and to the link destination alone of a unicast."""

    #: Node 4 sits in the middle of a 3x3 grid and reaches the other eight.
    SENDER = 4

    def _stack(self, models=None, **channel_options):
        sim = Simulator()
        topo = square_topology(side=3, spacing=5.0, rng=8.0)
        channel = WirelessChannel(sim, topo, **channel_options)
        nodes = {
            i: SimNode(i, channel, (models or {}).get(i, CROSSBOW_MICA2))
            for i in topo.node_ids
        }
        return sim, channel, nodes

    @staticmethod
    def _broadcast(size=40):
        return Packet(PacketKind.APP_BROADCAST, source=0,
                      destination=BROADCAST_ADDRESS, size_bytes=size)

    @classmethod
    def _unicast(cls, destination, size=40):
        return Packet(PacketKind.APP_DATA, source=cls.SENDER,
                      destination=destination, size_bytes=size)

    def test_receivers_pay_their_own_models_rx_energy(self):
        slow = EnergyModel(rx_power_w=0.05, bitrate_bps=9_600.0)
        # Alternating models, so the receivers switch model mid-packet.
        models = {i: slow for i in range(9) if i % 2}
        sim, _channel, nodes = self._stack(models)
        nodes[self.SENDER].broadcast(self._broadcast(40))
        nodes[self.SENDER].broadcast(self._broadcast(25))
        sim.run()
        for node_id, node in nodes.items():
            if node_id == self.SENDER:
                assert node.energy.rx_joules == 0.0
                continue
            model = slow if node_id % 2 else CROSSBOW_MICA2
            assert node.energy.rx_joules == model.rx_energy(40) + model.rx_energy(25)
            assert node.energy.packets_received == 2
            assert node.energy.bytes_received == 65

    def test_airtime_is_computed_once_per_packet_and_model(self, monkeypatch):
        slow = EnergyModel(rx_power_w=0.05, bitrate_bps=9_600.0)
        models = {i: slow for i in range(9) if i % 2}
        sim, _channel, nodes = self._stack(models)
        calls = []
        airtime = EnergyModel.airtime

        def counted(model, size_bytes):
            calls.append((model, size_bytes))
            return airtime(model, size_bytes)

        monkeypatch.setattr(EnergyModel, "airtime", counted)
        nodes[self.SENDER].broadcast(self._broadcast(40))
        nodes[self.SENDER].broadcast(self._broadcast(25))
        monkeypatch.undo()
        # The sender's model serves the delay, the tx energy and its own
        # receivers; the other model is asked once per packet.
        assert calls == [(CROSSBOW_MICA2, 40), (slow, 40),
                         (CROSSBOW_MICA2, 25), (slow, 25)]
        sim.run()
        # Bitwise the model's per-size formulas.
        sender = nodes[self.SENDER].energy
        assert sender.tx_joules == (
            CROSSBOW_MICA2.tx_energy(40) + CROSSBOW_MICA2.tx_energy(25)
        )
        for node_id, node in nodes.items():
            if node_id != self.SENDER:
                model = slow if node_id % 2 else CROSSBOW_MICA2
                assert node.energy.rx_joules == (
                    model.rx_energy(40) + model.rx_energy(25)
                )

    @pytest.mark.parametrize(
        "burst",
        [None, GilbertElliottParams(p_good_to_bad=0.3, p_bad_to_good=0.4,
                                    loss_good=0.1, loss_bad=0.9)],
        ids=["iid", "burst"],
    )
    def test_loss_outcomes_are_lost_called_in_receiver_order(self, burst):
        sim, channel, nodes = self._stack(
            loss_probability=0.4, streams=RandomStreams(11), burst=burst
        )
        _, reference, _ = self._stack(
            loss_probability=0.4, streams=RandomStreams(11), burst=burst
        )
        nodes[2].power_down()  # a down receiver draws nothing
        received = []
        for node in nodes.values():
            node.add_handler(
                lambda n, p: received.append((p.packet_id, n.node_id)) or True
            )
        expected = []
        lost = delivered = 0
        for sent in range(50):
            unicast = sent % 2 == 1
            if unicast:
                # Every receiver draws; only the link destination (5)
                # gets the packets that survive.
                packet = self._unicast(5)
                nodes[self.SENDER].send(packet)
            else:
                packet = self._broadcast()
                nodes[self.SENDER].broadcast(packet)
            for receiver in reference.topology.neighbors_sorted(self.SENDER):
                if receiver == 2:
                    continue
                if reference._lost(self.SENDER, receiver):
                    lost += 1
                    continue
                delivered += 1
                if not unicast or receiver == 5:
                    expected.append((packet.packet_id, receiver))
        sim.run()
        assert received == expected
        assert channel.stats.losses == lost > 0
        assert channel.stats.deliveries == delivered
        assert channel.overheard_receptions == delivered - len(expected)
        rng = "_rng" if burst is None else "_burst_rng"
        assert getattr(channel, rng).getstate() == getattr(reference, rng).getstate()

    def test_a_loss_free_channel_never_draws(self):
        sim, channel, nodes = self._stack(streams=RandomStreams(3))
        state = channel._rng.getstate()
        nodes[self.SENDER].broadcast(self._broadcast())
        sim.run()
        assert channel._rng.getstate() == state
        assert channel.stats.deliveries == 8 and channel.stats.losses == 0

    def test_deliveries_are_one_heap_entry(self):
        sim, channel, nodes = self._stack()
        nodes[self.SENDER].broadcast(self._broadcast())
        assert len(sim._queue) == 1
        assert sim.pending == sim.events_scheduled == 8
        sim.run()
        assert sim.events_executed == 8

    def test_each_delivery_looks_deliver_up_on_its_receiver(self, monkeypatch):
        sim, channel, nodes = self._stack()
        seen = []
        original = SimNode.deliver

        def counted(node, packet):
            seen.append(node.node_id)
            return original(node, packet)

        monkeypatch.setattr(SimNode, "deliver", counted)
        nodes[self.SENDER].broadcast(self._broadcast())
        sim.run()
        assert seen == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_a_unicast_is_delivered_to_its_link_destination_alone(self, monkeypatch):
        sim, channel, nodes = self._stack()
        seen = []
        original = SimNode.deliver

        def counted(node, packet):
            seen.append(node.node_id)
            return original(node, packet)

        monkeypatch.setattr(SimNode, "deliver", counted)
        for node in nodes.values():
            node.add_handler(lambda n, p: True)
        nodes[self.SENDER].send(self._unicast(5))
        assert sim.pending == sim.events_scheduled == 1
        sim.run()
        assert seen == [5]
        # The other seven receivers in range still pay for and count the
        # reception; the channel discards it for them at transmission.
        assert channel.stats.deliveries == 8
        assert channel.overheard_receptions == 7
        expected = CROSSBOW_MICA2.rx_energy(40)
        for node_id, node in nodes.items():
            if node_id != self.SENDER:
                assert node.energy.rx_joules == expected
                assert node.packets_discarded == (node_id != 5)


class PerReceiverChannel(WirelessChannel):
    """The channel's transmit path before receiver tables: it walks the
    topology's neighbor ids, looks each receiver up among the attached
    nodes, and charges each meter through one call per packet, as the
    removed ``EnergyMeter.charge_tx``/``charge_rx`` did.  It lives only
    here, as the reference the receiver-table path must match bit for bit.
    """

    @staticmethod
    def _charge_tx(meter, size_bytes, energy):
        meter.tx_joules += energy
        meter.packets_sent += 1
        meter.bytes_sent += size_bytes

    @staticmethod
    def _charge_rx(meter, size_bytes, energy):
        meter.rx_joules += energy
        meter.packets_received += 1
        meter.bytes_received += size_bytes

    def transmit(self, sender_id, packet):
        sender = self.node(sender_id)
        if not sender.up:
            return
        size = packet.size_bytes
        model = sender.energy.model
        airtime = model.airtime(size)
        self._charge_tx(sender.energy, size, model.tx_energy_over(airtime))
        stats = self.stats
        stats.transmissions += 1
        stats.bytes_transmitted += size
        lossy = self.burst is not None or self.loss_probability > 0
        destination = packet.link_destination
        broadcast = destination == BROADCAST_ADDRESS
        nodes = self._nodes
        rx_joules = {}
        rx_model = energy = None
        deliveries = []
        overheard = 0
        for neighbor_id in self.topology.neighbors_sorted(sender_id):
            receiver = nodes.get(neighbor_id)
            if receiver is None or not receiver.up:
                continue
            meter = receiver.energy
            if meter.model is not rx_model:
                rx_model = meter.model
                energy = rx_joules.get(id(rx_model))
                if energy is None:
                    seconds = airtime if rx_model is model else rx_model.airtime(size)
                    energy = rx_joules[id(rx_model)] = rx_model.rx_energy_over(seconds)
            self._charge_rx(meter, size, energy)
            if lossy and self._lost(sender_id, neighbor_id):
                stats.losses += 1
                continue
            if broadcast or neighbor_id == destination:
                deliveries.append(receiver.deliver)
            else:
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


@st.composite
def radio_scripts(draw):
    """A unit-disk topology of 3-12 nodes on two energy models, a loss
    regime, and a script of sends, power flips and queue drains."""
    count = draw(st.integers(min_value=3, max_value=12))
    coordinate = st.integers(min_value=0, max_value=24)
    positions = {
        node_id: (draw(coordinate), draw(coordinate)) for node_id in range(count)
    }
    slow = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    loss = draw(st.sampled_from(["none", "iid", "burst"]))
    node = st.integers(min_value=0, max_value=count - 1)
    size = st.integers(min_value=1, max_value=120)
    step = st.one_of(
        st.tuples(st.just("broadcast"), node, size),
        st.tuples(st.just("unicast"), node, node, size),
        st.tuples(st.just("flip"), node),
        st.tuples(st.just("drain")),
    )
    script = draw(st.lists(step, min_size=1, max_size=40))
    return positions, slow, loss, draw(st.integers(0, 2**16)), script


class TestReceiverTablePath:
    """The receiver-table transmit path against :class:`PerReceiverChannel`
    driven through the same random script."""

    SLOW = EnergyModel(rx_power_w=0.05, tx_power_w=0.02, bitrate_bps=9_600.0)
    BURST = GilbertElliottParams(p_good_to_bad=0.3, p_bad_to_good=0.4,
                                 loss_good=0.1, loss_bad=0.9)

    def _stack(self, channel_type, positions, slow, loss, seed):
        sim = Simulator()
        options = {"iid": {"loss_probability": 0.3},
                   "burst": {"burst": self.BURST}}.get(loss, {})
        channel = channel_type(sim, Topology.from_positions(positions, 9.0),
                               streams=RandomStreams(seed), **options)
        nodes = [
            SimNode(node_id, channel, self.SLOW if slow[node_id] else CROSSBOW_MICA2)
            for node_id in sorted(positions)
        ]
        delivered = []
        for node in nodes:
            node.add_handler(
                lambda n, p: delivered.append((sim.now, n.node_id, p.payload)) or True
            )
        return sim, channel, nodes, delivered

    @staticmethod
    def _play(stack, script):
        sim, channel, nodes, _ = stack
        for tag, step in enumerate(script):
            kind = step[0]
            if kind == "drain":
                sim.run()
            elif kind == "flip":
                node = nodes[step[1]]
                if node.up:
                    node.power_down()
                else:
                    node.power_up()
            elif kind == "broadcast":
                channel.transmit(step[1], Packet(
                    PacketKind.APP_BROADCAST, source=step[1],
                    destination=BROADCAST_ADDRESS, size_bytes=step[2], payload=tag))
            else:
                # Any other node: in range of the sender or not.
                _, sender, destination, size = step
                channel.transmit(sender, Packet(
                    PacketKind.APP_DATA, source=sender, destination=destination,
                    size_bytes=size, payload=tag))
        sim.run()

    @staticmethod
    def _observed(stack):
        _, channel, nodes, delivered = stack
        meters = [
            tuple(
                value.hex() if isinstance(value, float) else value
                for name, value in vars(node.energy).items() if name != "model"
            ) + (node.packets_discarded, node.deliveries_missed_down)
            for node in nodes
        ]
        rngs = [channel._rng.getstate(),
                channel._burst_rng.getstate() if channel._burst_rng else None]
        return {
            "meters": meters,
            "stats": channel.stats.as_dict(),
            "overheard": channel.overheard_receptions,
            "last_overheard": channel.last_overheard_arrival.hex(),
            "rngs": rngs,
            "delivered": [(now.hex(), node_id, tag) for now, node_id, tag in delivered],
        }

    @settings(max_examples=60, deadline=None)
    @given(radio_scripts())
    def test_matches_the_per_receiver_loop(self, case):
        positions, slow, loss, seed, script = case
        fast = self._stack(WirelessChannel, positions, slow, loss, seed)
        reference = self._stack(PerReceiverChannel, positions, slow, loss, seed)
        self._play(fast, script)
        self._play(reference, script)
        assert self._observed(fast) == self._observed(reference)
