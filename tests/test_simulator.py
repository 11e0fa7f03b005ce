"""Tests for the discrete-event engine, events and random streams."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.simulator import Event, EventPriority, RandomStreams, Simulator


class TestEvent:
    def test_ordering_by_time_then_priority_then_sequence(self):
        early = Event(time=1.0)
        late = Event(time=2.0)
        high = Event(time=2.0, priority=EventPriority.HIGH)
        assert early < late
        assert high < late

    def test_cancelled_event_does_not_fire(self):
        fired = []
        event = Event(time=0.0, callback=fired.append, args=(1,))
        event.cancel()
        event.fire()
        assert fired == []

    def test_sort_key_is_the_total_order(self):
        a = Event(time=1.0, priority=EventPriority.HIGH)
        b = Event(time=1.0, priority=EventPriority.NORMAL)
        c = Event(time=1.0, priority=EventPriority.NORMAL)
        assert a.sort_key == (1.0, EventPriority.HIGH, a.sequence)
        # Comparison and sort_key must agree: a before b (priority), b
        # before c (sequence: b was constructed first).
        assert (a < b) == (a.sort_key < b.sort_key)
        assert (b < c) == (b.sort_key < c.sort_key)
        assert sorted([c, a, b]) == sorted([c, a, b], key=lambda e: e.sort_key)

    def test_ordering_uses_exactly_time_priority_sequence(self):
        compared = [f.name for f in dataclasses.fields(Event) if f.compare]
        assert compared == ["time", "priority", "sequence"]

    def test_sequence_is_process_wide_and_increasing(self):
        first, second = Simulator(), Simulator()
        events = [
            sim.schedule(1.0, lambda: None)
            for sim in (first, second, first, second)
        ]
        sequences = [event.sequence for event in events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_schedule_in_the_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_early_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert len(fired) == 2

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, fired.append, "y")
        event.cancel()
        sim.run()
        assert fired == ["y"]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append("first")
            sim.schedule(1.0, fired.append, "second")

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == ["first", "second"]

    def test_periodic_scheduling_respects_until(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_periodic_requires_positive_period(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_scheduled == 2
        assert sim.events_executed == 2

    def test_same_instant_same_priority_fires_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in "edcba":
            sim.schedule_at(1.0, fired.append, label)
        sim.run()
        assert fired == list("edcba")

    def test_same_instant_priorities_fire_fault_first(self):
        sim = Simulator()
        fired = []
        for priority in (EventPriority.LOW, EventPriority.NORMAL,
                         EventPriority.HIGH, EventPriority.FAULT):
            sim.schedule_at(1.0, fired.append, priority, priority=priority)
        sim.run()
        assert fired == [EventPriority.FAULT, EventPriority.HIGH,
                         EventPriority.NORMAL, EventPriority.LOW]

    def test_zero_delay_event_fires_after_its_queued_peers(self):
        sim = Simulator()
        fired = []

        def spawn():
            fired.append("a")
            sim.schedule(0.0, fired.append, "c")

        sim.schedule_at(1.0, spawn)
        sim.schedule_at(1.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 1.0

    def test_reentrant_run_is_rejected_and_the_engine_recovers(self):
        sim = Simulator()
        sim.schedule(1.0, sim.run)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()
        fired = []
        sim.schedule(1.0, fired.append, "after")
        sim.run()
        assert fired == ["after"]

    def test_peek_time_discards_a_cancelled_head(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        head.cancel()
        assert sim.pending == 1
        assert sim.peek_time() == 2.0
        assert Simulator().peek_time() is None

    def test_cancelled_events_do_not_count_toward_max_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x").cancel()
        sim.schedule(2.0, fired.append, "y")
        sim.schedule(3.0, fired.append, "z")
        sim.run(max_events=2)
        assert fired == ["y", "z"]
        assert sim.events_executed == 2

    def test_step_fires_exactly_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"] and sim.now == 1.0 and sim.pending == 1

    def test_periodic_with_an_explicit_start(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(
            2.0, lambda: ticks.append(sim.now), start=0.5, until=6.5
        )
        sim.run()
        assert ticks == [0.5, 2.5, 4.5, 6.5]


_TIMES = st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)

#: ``(time, priority, child delay or None)``: an event that fires may
#: schedule one follow-up, so the queue changes while it drains.
_SPAWNING_SCHEDULES = st.lists(
    st.tuples(
        _TIMES,
        st.sampled_from([EventPriority.HIGH, EventPriority.NORMAL,
                         EventPriority.FAULT, EventPriority.LOW]),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=3.0,
                                       allow_nan=False, allow_infinity=False)),
    ),
    min_size=1,
    max_size=20,
)


def _replay(entries, drive):
    """Schedule ``entries`` on a fresh simulator, ``drive`` it to idle, and
    return the firing order."""
    sim = Simulator()
    fired = []

    def fire(label, delay):
        fired.append(label)
        if delay is not None:
            sim.schedule(delay, fired.append, f"{label}+")

    for index, (time, priority, delay) in enumerate(entries):
        sim.schedule_at(time, fire, index, delay, priority=priority)
    drive(sim)
    assert sim.peek_time() is None
    return fired


class TestTotalOrderReplay:
    """Property test of the event total order: the execution the engine
    replays is exactly the schedule sorted by ``Event.sort_key``."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_replay_is_the_sort_key_order(self, data):
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False),
                    st.sampled_from(
                        [EventPriority.HIGH, EventPriority.NORMAL,
                         EventPriority.FAULT, EventPriority.LOW]
                    ),
                ),
                min_size=1,
                max_size=30,
            )
        )
        sim = Simulator()
        fired = []
        events = [
            sim.schedule_at(
                time, fired.append, index, priority=priority
            )
            for index, (time, priority) in enumerate(entries)
        ]
        sim.run()
        expected = [
            event.args[0]
            for event in sorted(events, key=lambda e: e.sort_key)
        ]
        assert fired == expected

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_event_count_slices_replay_the_single_run(self, data):
        entries = data.draw(_SPAWNING_SCHEDULES)
        size = data.draw(st.integers(min_value=1, max_value=7))
        whole = _replay(entries, lambda sim: sim.run())

        def sliced(sim):
            while sim.peek_time() is not None:
                sim.run(max_events=size)

        assert _replay(entries, sliced) == whole

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_time_slices_replay_the_single_run(self, data):
        entries = data.draw(_SPAWNING_SCHEDULES)
        cuts = sorted(data.draw(st.lists(_TIMES, max_size=5)))
        whole = _replay(entries, lambda sim: sim.run())

        def sliced(sim):
            for cut in cuts:
                sim.run(until=cut)
            sim.run()

        assert _replay(entries, sliced) == whole


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42).stream("channel")
        b = RandomStreams(42).stream("channel")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        first = [streams.stream("a").random() for _ in range(3)]
        again = RandomStreams(42)
        again.stream("b").random()  # consuming another stream must not matter
        second = [again.stream("a").random() for _ in range(3)]
        assert first == second

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_creates_distinct_family(self):
        parent = RandomStreams(7)
        child = parent.spawn("rep-1")
        assert child.master_seed != parent.master_seed
