"""Discrete-event simulation engine.

This is the scheduling core of the WSN simulator that replaces SENSE in the
reproduction: a priority queue of timestamped events, a simulated clock, and
a handful of convenience methods for periodic activities.  The engine is
single-threaded and deterministic: given the same seed and the same sequence
of ``schedule`` calls it always produces the same execution.

Determinism rests on the event total order ``(time, priority, sequence)``
documented in :mod:`repro.simulator.events`: the heap pops events in exactly
that order, :meth:`Simulator.step` asserts the clock never runs backwards,
and replaying an identical sequence of ``schedule`` calls replays an
identical execution.  The heap holds ``(time, priority, sequence, event)``
tuples, so ``heapq`` compares plain tuples in C; ``sequence`` is unique, so
the event itself is never compared.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..core.errors import SimulationError
from .events import Event, EventPriority

__all__ = ["Simulator"]


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
        self._queue: List[Tuple[float, int, int, Event]] = []
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
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before the current time t={self._now}"
            )
        event = Event(time=time, priority=priority, callback=callback, args=args)
        heapq.heappush(self._queue, (time, priority, event.sequence, event))
        self.events_scheduled += 1
        return event

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
        """Execute the next pending event.  Returns ``False`` when idle."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            # The (time, priority, sequence) total order forbids the clock
            # from ever moving backwards; schedule()/schedule_at() reject
            # past events, so a violation here would mean heap corruption.
            assert event.time >= self._now, (
                f"event total order violated: t={event.time} < now={self._now}"
            )
            self._now = event.time
            event.fire()
            self.events_executed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, time ``until`` is reached, or
        ``max_events`` events have been executed."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                head = self._queue[0]
                if head[3].cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head[0] > until:
                    break
                self.step()
                executed += 1
            if until is not None and self._now < until and (
                not self._queue or self._queue[0][0] > until
            ):
                # Advance the clock to the end of the observation window so
                # that idle-energy accounting covers the full interval.
                self._now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle.

        Cancelled events at the head of the heap are lazily discarded here
        (mirroring :meth:`step`) so repeated peeks stay ``O(1)`` amortised
        instead of sorting the whole queue on every call.
        """
        while self._queue:
            head = self._queue[0]
            if head[3].cancelled:
                heapq.heappop(self._queue)
                continue
            return head[0]
        return None
