"""Event objects for the discrete-event simulation engine.

An :class:`Event` is a callback scheduled at a simulated time.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: first by explicit priority, then by
scheduling order.  Cancelled events stay in the heap but are skipped when
popped, which keeps cancellation O(1).

Total-order contract
--------------------
The tuple exposed as :attr:`Event.sort_key` is a *contract*, not an
implementation detail.  Determinism of every transcript in this repository
reduces to it:

* ``time`` is the simulated instant, compared first;
* ``priority`` breaks ties at one instant (:class:`EventPriority`; lower
  fires first, so ``FAULT`` availability flips precede same-instant traffic);
* ``sequence`` is a process-wide monotonically increasing counter stamped
  at construction, the final tie-break, so events that tie on time and
  priority fire in exactly the order they were scheduled.

``tests/test_simulator.py`` pins the contract with a property test: the
engine fires any schedule in exactly ``sort_key`` order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

__all__ = ["Event", "EventPriority"]


class EventPriority:
    """Relative ordering of events that fire at the same instant.

    ``FAULT`` sorts before everything else: availability flips from a
    fault-model schedule (node crash/recovery, duty-cycle sleep) must take
    effect before any sample, transmission or delivery that shares the same
    instant, so "the node was down at time t" has one unambiguous meaning.
    """

    FAULT = -10
    HIGH = 0
    NORMAL = 10
    LOW = 20


_sequence = itertools.count()


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Only ``time``, ``priority`` and ``sequence`` participate in ordering;
    the callback and its arguments are compared by identity never.  The
    engine's heap orders ``(time, priority, sequence, event)`` tuples
    instead of calling the generated comparisons, which is the same order.
    """

    time: float
    priority: int = EventPriority.NORMAL
    sequence: int = field(default_factory=lambda: next(_sequence))
    callback: Optional[Callable[..., Any]] = field(default=None, compare=False)
    args: Tuple[Any, ...] = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        """The total-order key ``(time, priority, sequence)``.

        This is exactly the comparison the dataclass ordering performs; it is
        exposed so tests can assert against the contract instead of
        re-deriving it.
        """
        return (self.time, self.priority, self.sequence)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True

    def fire(self) -> Any:
        """Invoke the callback (no-op when cancelled or callback-less)."""
        if self.cancelled or self.callback is None:
            return None
        return self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = getattr(self.callback, "__name__", "callback")
        state = " (cancelled)" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, {label}{state})"
