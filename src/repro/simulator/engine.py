"""Discrete-event simulation engine.

This is the scheduling core of the WSN simulator that replaces SENSE in the
reproduction: a priority queue of timestamped events, a simulated clock, and
a handful of convenience methods for periodic activities.  The engine is
single-threaded and deterministic: given the same seed and the same sequence
of ``schedule`` calls it always produces the same execution.

Determinism rests on the event total order ``(time, priority, sequence)``
documented in :mod:`repro.simulator.events`: the heap pops events in exactly
that order, :meth:`Simulator.run` asserts the clock never runs backwards,
and replaying an identical sequence of ``schedule`` calls replays an
identical execution.  The heap holds two kinds of tuple, and ``heapq``
compares them in C; ``sequence`` is unique, so nothing past it is compared:

* ``(time, priority, sequence, event)`` -- one :class:`Event`;
* ``(time, NORMAL, sequence, members, args)`` -- a fan-out from
  :meth:`Simulator.schedule_each`: ``members`` holds the callbacks still to
  fire, last one first, and each dispatch pops one of them.  The entry
  stays queued until its last member has fired.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence

from ..core.errors import SimulationError
from .events import Event, EventPriority, _sequence

__all__ = ["Simulator"]

_INF = float("inf")


class Simulator:
    """Event queue plus simulated clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> _ = sim.schedule(0.5, fired.append, "world")
    >>> sim.run()
    >>> fired
    ['world', 'hello']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[tuple] = []
        self._running = False
        self.events_executed = 0
        self.events_scheduled = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if not self._now <= time < _INF:
            raise SimulationError(
                f"event time must be finite and not before the current time "
                f"t={self._now}, got t={time}"
            )
        sequence = next(_sequence)
        event = Event(time, priority, sequence, callback, args)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        self.events_scheduled += 1
        return event

    def schedule_each(
        self, delay: float, callbacks: Sequence[Callable[..., Any]], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` for every callback, ``delay`` seconds
        from now.

        Exactly equivalent to one :meth:`schedule` call per callback, in
        list order, but held as one heap entry.  The entry takes one
        sequence number, so its members fire in list order from the place
        the first of them would take; an event a member schedules at the
        same instant with a higher priority still fires before the next
        member.  The members cannot be cancelled.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and non-negative, got {delay}")
        if not callbacks:
            return
        members = list(reversed(callbacks))
        heapq.heappush(
            self._queue,
            (self._now + delay, EventPriority.NORMAL, next(_sequence), members, args),
        )
        self.events_scheduled += len(members)

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        """Run ``callback(*args)`` every ``period`` seconds.

        The first invocation happens at ``start`` (defaults to one period from
        now); invocations stop once the next occurrence would be strictly
        after ``until``.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        first = self._now + period if start is None else start

        def _tick(when: float) -> None:
            callback(*args)
            nxt = when + period
            if until is None or nxt <= until:
                self.schedule_at(nxt, _tick, nxt)

        if until is None or first <= until:
            self.schedule_at(first, _tick, first)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event, or the next member of a fan-out.
        Returns ``False`` when idle."""
        executed = self.events_executed
        self.run(max_events=1)
        return self.events_executed > executed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, time ``until`` is reached, or
        ``max_events`` events have been executed.

        A fan-out member counts as one event.  A callback that raises
        leaves the events after it queued.  A NaN or infinite ``until`` is
        rejected: the clock would end at infinity, or the horizon would
        never stop a run.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        if until is not None and not -_INF < until < _INF:
            raise SimulationError(f"run horizon must be finite, got until={until}")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        try:
            while queue and executed < budget:
                entry = queue[0]
                time = entry[0]
                payload = entry[3]
                if payload.__class__ is Event:
                    if payload.cancelled:
                        heappop(queue)
                        continue
                    if time > horizon:
                        break
                    heappop(queue)
                    callback, args = payload.callback, payload.args
                else:
                    if time > horizon:
                        break
                    # A fan-out: fire its next member; the last one pops it.
                    callback = payload.pop()
                    if not payload:
                        heappop(queue)
                    args = entry[4]
                # The (time, priority, sequence) total order forbids the
                # clock from ever moving backwards; the schedule methods
                # reject past and non-finite times, so a violation here
                # would mean heap corruption.
                assert time >= self._now, (
                    f"event total order violated: t={time} < now={self._now}"
                )
                self._now = time
                callback(*args)
                executed += 1
            if until is not None and self._now < until and (
                not queue or queue[0][0] > until
            ):
                # Advance the clock to the end of the observation window so
                # that idle-energy accounting covers the full interval.
                self._now = until
        finally:
            self.events_executed += executed
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events (fan-out members included)
        still queued."""
        return sum(
            not entry[3].cancelled if entry[3].__class__ is Event else len(entry[3])
            for entry in self._queue
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle.

        Cancelled events at the head of the heap are lazily discarded here
        (mirroring :meth:`run`) so repeated peeks stay ``O(1)`` amortised
        instead of sorting the whole queue on every call.
        """
        while self._queue:
            head = self._queue[0]
            if head[3].__class__ is Event and head[3].cancelled:
                heapq.heappop(self._queue)
                continue
            return head[0]
        return None
