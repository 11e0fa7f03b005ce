"""Unit tests for the global distributed outlier detection protocol
(Algorithm 1), driven sans-IO."""

import pytest

from repro.core import (
    GlobalOutlierDetector,
    NearestNeighborDistance,
    OutlierQuery,
    make_point,
)
from repro.core.errors import ProtocolError

from brute_oracle import BruteGlobalDetector


def _detector(sensor_id=0, neighbors=(1,), n=1):
    query = OutlierQuery(NearestNeighborDistance(), n=n)
    return GlobalOutlierDetector(sensor_id, query, neighbors=neighbors)


def _points(values, origin=0):
    return [make_point([float(v)], origin=origin, epoch=i) for i, v in enumerate(values)]


class TestLocalData:
    def test_add_local_points_updates_holdings_and_local(self):
        det = _detector()
        pts = _points([1.0, 2.0])
        det.add_local_points(pts)
        assert det.local_data == set(pts)
        assert det.holdings == set(pts)

    def test_adding_data_with_neighbors_produces_a_message(self):
        det = _detector()
        message = det.add_local_points(_points([1.0, 2.0, 50.0]))
        assert message is not None
        assert message.sender == 0
        assert 1 in message.recipients

    def test_adding_no_new_points_is_not_an_event(self):
        det = _detector()
        pts = _points([1.0, 2.0])
        det.add_local_points(pts)
        assert det.add_local_points(pts) is None

    def test_local_points_must_have_hop_zero(self):
        det = _detector()
        with pytest.raises(ProtocolError):
            det.add_local_points([make_point([1.0], 0, 0).with_hop(1)])

    def test_no_neighbors_means_no_message(self):
        det = _detector(neighbors=())
        assert det.add_local_points(_points([1.0, 9.0])) is None

    def test_estimate_over_own_data(self):
        det = _detector(n=1)
        det.add_local_points(_points([1.0, 1.5, 30.0]))
        assert [p.values[0] for p in det.estimate()] == [30.0]


class TestMessaging:
    def test_bookkeeping_tracks_sent_points(self):
        det = _detector()
        message = det.add_local_points(_points([1.0, 2.0, 50.0]))
        assert det.sent_to(1) == set(message.payload_for(1))

    def test_no_point_is_sent_twice_to_the_same_neighbor(self):
        det = _detector()
        first = det.add_local_points(_points([1.0, 2.0, 50.0]))
        second = det.add_local_points(_points([60.0], origin=0)) or None
        if second is not None:
            assert not (set(second.payload_for(1)) & set(first.payload_for(1)))

    def test_handle_message_adds_points_and_updates_received(self):
        det = _detector()
        remote = _points([100.0], origin=1)
        det.handle_message(1, remote)
        assert set(remote) <= det.holdings
        assert det.received_from(1) == set(remote)

    def test_handle_message_ignores_already_held_points(self):
        det = _detector()
        pts = _points([5.0])
        det.add_local_points(pts)
        det.handle_message(1, pts)
        assert det.received_from(1) == set()
        assert det.stats.points_ignored == 1

    @pytest.mark.parametrize("indexed", [True, False])
    def test_duplicate_only_delivery_sends_nothing(self, indexed):
        """The indexed detector skips the fixpoint on a delivery of points
        it already holds; the brute-force oracle (``indexed=False``) reruns
        it.  Both run in lockstep, and the one under test must find nothing
        to send and leave its bookkeeping unchanged."""
        query = OutlierQuery(NearestNeighborDistance(), n=2)
        production = GlobalOutlierDetector(0, query, neighbors=[1, 2])
        oracle = BruteGlobalDetector(0, query, neighbors=[1, 2])
        det = production if indexed else oracle
        local = _points([1.0, 2.0, 4.0, 40.0])
        remote = _points([3.0, 9.0, 70.0], origin=1)
        assert production.add_local_points(local) == oracle.add_local_points(local)
        assert production.handle_message(1, remote) == oracle.handle_message(1, remote)
        sent = {j: det.sent_to(j) for j in (1, 2)}
        received = {j: det.received_from(j) for j in (1, 2)}
        events = production.stats.events_processed

        echo = [local[3], remote[0], remote[2]]
        assert production.handle_message(2, echo) is None
        assert oracle.handle_message(2, echo) is None
        # Still an event for the detector (events_processed is part of the
        # transcript), and a rerun of the protocol step has nothing to send.
        assert production.stats.events_processed == events + 1
        assert det._process() is None
        assert {j: det.sent_to(j) for j in (1, 2)} == sent
        assert {j: det.received_from(j) for j in (1, 2)} == received
        assert production.estimate() == oracle.estimate()

    def test_message_from_non_neighbor_rejected(self):
        det = _detector(neighbors=(1,))
        with pytest.raises(ProtocolError):
            det.handle_message(7, _points([1.0], origin=7))

    def test_receive_extracts_only_own_payload(self):
        det = _detector()
        other = GlobalOutlierDetector(1, det.query, neighbors=[0, 2])
        message = other.add_local_points(_points([1.0, 90.0], origin=1))
        reply = det.receive(message)
        assert set(message.payload_for(0)) <= det.holdings
        # Payload tagged for node 2 must not have been absorbed.
        assert all(p in det.holdings for p in message.payload_for(0))

    def test_receive_without_own_payload_is_not_an_event(self):
        det = _detector()
        from repro.core.messages import OutlierMessage

        message = OutlierMessage(sender=1, payloads={2: frozenset(_points([1.0], 1))})
        assert det.receive(message) is None
        assert det.stats.messages_received == 0


class TestEvictionAndMembership:
    def test_evict_removes_from_everywhere(self):
        det = _detector()
        pts = _points([1.0, 2.0, 50.0])
        det.add_local_points(pts)
        det.handle_message(1, _points([70.0], origin=1))
        det.evict_points(pts[:1])
        assert pts[0] not in det.holdings
        assert pts[0] not in det.sent_to(1)

    def test_evict_unknown_points_is_not_an_event(self):
        det = _detector()
        det.add_local_points(_points([1.0]))
        assert det.evict_points(_points([99.0], origin=5)) is None

    def test_evict_older_than_uses_timestamps(self):
        det = _detector()
        old = make_point([1.0], 0, 0, timestamp=0.0)
        new = make_point([2.0], 0, 1, timestamp=10.0)
        det.add_local_points([old, new])
        det.evict_older_than(5.0)
        assert det.holdings == {new}

    def test_update_local_data_combines_add_and_evict(self):
        det = _detector()
        old = _points([1.0, 2.0])
        det.add_local_points(old)
        events_before = det.stats.events_processed
        det.update_local_data(_points([3.0], origin=0), old)
        assert det.stats.events_processed == events_before + 1
        assert old[0] not in det.holdings

    def test_neighborhood_change_adds_and_removes_bookkeeping(self):
        det = _detector(neighbors=(1,))
        det.add_local_points(_points([1.0, 40.0]))
        sent_before = det.sent_to(1)
        assert sent_before
        det.neighborhood_changed({2})
        assert det.neighbors == {2}
        assert det.sent_to(1) == set()
        # Points already held remain held.
        assert det.holdings

    def test_unchanged_neighborhood_is_not_an_event(self):
        det = _detector(neighbors=(1,))
        assert det.neighborhood_changed({1}) is None

    def test_cannot_be_own_neighbor(self):
        det = _detector()
        with pytest.raises(ProtocolError):
            det.neighborhood_changed({0})


class TestStatistics:
    def test_counters_track_activity(self):
        det = _detector()
        det.add_local_points(_points([1.0, 60.0]))
        det.handle_message(1, _points([2.0], origin=1))
        stats = det.stats.as_dict()
        assert stats["local_points_added"] == 2
        assert stats["messages_received"] == 1
        assert stats["points_received"] == 1
        assert stats["events_processed"] >= 2
        assert stats["points_sent"] >= 1
