"""The event template both detectors inherit from ``OutlierDetector``.

Events (i) and (ii) -- ``initialize``, ``add_local_points``,
``evict_points`` and ``update_local_data`` -- are one implementation in
:class:`~repro.core.interfaces.OutlierDetector`; the global and semi-global
detectors supply only the hooks.  These tests pin the template's contract
on both: one event and one index batch per state change, nothing for a
change that changes nothing, evictions staged before additions, no entry
point calling another (perfbench's tracer counts each entry point as one
protocol event), and a sensor listed as its own neighbor raising
:class:`~repro.core.errors.ProtocolError` wherever neighbors are set.
"""

from __future__ import annotations

import pytest

from repro.core import (
    GlobalOutlierDetector,
    NearestNeighborDistance,
    OutlierDetector,
    OutlierQuery,
    SemiGlobalOutlierDetector,
    make_point,
)
from repro.core.errors import ProtocolError, ReproError
from repro.core.index import NeighborhoodIndex

QUERY = OutlierQuery(NearestNeighborDistance(), n=1)

DETECTORS = {
    "global": lambda sensor, neighbors: GlobalOutlierDetector(
        sensor, QUERY, neighbors=neighbors
    ),
    "semiglobal": lambda sensor, neighbors: SemiGlobalOutlierDetector(
        sensor, QUERY, hop_diameter=2, neighbors=neighbors
    ),
}
KINDS = list(DETECTORS)

#: The entry points perfbench's tracer wraps as protocol events.
ENTRY_POINTS = (
    "initialize", "update_local_data", "handle_message", "neighborhood_changed",
)


def _points(*values, epoch=0):
    return [make_point([v], origin=0, epoch=epoch + i) for i, v in enumerate(values)]


def _counting_batches(detector, monkeypatch):
    """Record the detector's index batch applications as
    ``(evicts, adds)`` pairs."""
    calls = []
    apply_batch = NeighborhoodIndex.apply_batch

    def counted(index, batch):
        if index is detector._index:
            calls.append((list(batch.evicts), list(batch.adds)))
        return apply_batch(index, batch)

    monkeypatch.setattr(NeighborhoodIndex, "apply_batch", counted)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_self_neighbor_rejected_at_construction(kind):
    with pytest.raises(ProtocolError, match="sensor 3 cannot be its own neighbor"):
        DETECTORS[kind](3, [1, 3])


@pytest.mark.parametrize("kind", KINDS)
def test_self_neighbor_rejected_on_neighborhood_change(kind):
    detector = DETECTORS[kind](3, [1])
    with pytest.raises(ProtocolError, match="sensor 3 cannot be its own neighbor"):
        detector.neighborhood_changed([1, 3])
    assert detector.neighbors == {1}
    assert issubclass(ProtocolError, ReproError)


@pytest.mark.parametrize("kind", KINDS)
def test_local_events_come_from_one_template(kind):
    cls = type(DETECTORS[kind](0, [1]))
    for name in ("initialize", "add_local_points", "evict_points",
                 "update_local_data", "_commit_batch"):
        assert getattr(cls, name) is getattr(OutlierDetector, name), name
        assert name not in vars(cls), name


@pytest.mark.parametrize("kind", KINDS)
def test_each_state_change_is_one_event_and_one_batch(kind, monkeypatch):
    detector = DETECTORS[kind](0, [1])
    batches = _counting_batches(detector, monkeypatch)
    first = _points(1.0, 5.0)
    assert detector.add_local_points(first) is not None
    assert detector.stats.events_processed == 1
    assert detector.stats.local_points_added == 2
    assert len(batches) == 1 and len(batches[-1][1]) == 2

    # One tick that evicts one point and adds two: one event, one batch.
    fresh = _points(2.0, 9.0, epoch=10)
    detector.update_local_data(fresh, first[:1])
    assert detector.stats.events_processed == 2
    assert detector.stats.points_evicted == 1
    assert len(batches) == 2
    assert batches[-1] == ([first[0]], fresh)
    assert detector.holdings == {first[1], *fresh}

    detector.evict_points(fresh)
    assert detector.stats.events_processed == 3
    assert len(batches) == 3
    assert detector.holdings == {first[1]}

    detector.initialize()
    assert detector.stats.events_processed == 4
    assert len(batches) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_a_change_that_changes_nothing_is_no_event(kind, monkeypatch):
    detector = DETECTORS[kind](0, [1])
    held = _points(1.0, 5.0)
    detector.add_local_points(held)
    batches = _counting_batches(detector, monkeypatch)
    events = detector.stats.events_processed
    assert detector.add_local_points(held) is None
    assert detector.evict_points(_points(7.0, epoch=50)) is None
    assert detector.update_local_data([], []) is None
    assert detector.stats.events_processed == events
    assert batches == []


@pytest.mark.parametrize("kind", KINDS)
def test_evictions_are_staged_before_additions(kind, monkeypatch):
    detector = DETECTORS[kind](0, [1])
    point = _points(1.0)[0]
    detector.add_local_points([point])
    batches = _counting_batches(detector, monkeypatch)
    # The same point expires and is sampled again in one tick: it stays held.
    detector.update_local_data([point], [point])
    assert detector.stats.events_processed == 2
    assert batches == [([point], [point])]
    assert detector.holdings == {point}
    assert detector.local_data == {point}


@pytest.mark.parametrize("kind", KINDS)
def test_no_entry_point_calls_another(kind, monkeypatch):
    detector = DETECTORS[kind](0, [1])
    cls = type(detector)
    calls = []
    for name in ENTRY_POINTS:
        original = getattr(cls, name)

        def traced(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, traced)
    points = _points(1.0, 5.0, 9.0)
    detector.add_local_points(points[:2])
    detector.evict_points(points[:1])
    assert calls == []
    detector.update_local_data(points[2:], points[1:2])
    detector.initialize()
    # The global algorithm exchanges hop-0 points, the semi-global one
    # forwards copies one hop further.
    hop = 0 if kind == "global" else 1
    detector.handle_message(1, [make_point([4.0], origin=1, epoch=0, hop=hop)])
    detector.neighborhood_changed([1, 2])
    assert calls == [
        "update_local_data", "initialize", "handle_message",
        "neighborhood_changed",
    ]
