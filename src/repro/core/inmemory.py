"""In-memory, loss-free execution of the distributed protocol.

The discrete-event simulator (:mod:`repro.simulator`) is what the energy
experiments use, but for correctness work -- unit tests, property-based
convergence tests, quick what-if analyses -- it is convenient to run the
protocol over a perfect network with no radios at all.  This module provides
that: an :class:`InMemoryNetwork` holds one detector per sensor, delivers
broadcast packets instantly and reliably, and drains the message queue until
the protocol is quiescent.

Message ordering is configurable (FIFO by default, or randomised with a seed)
so the convergence tests can explore many asynchronous schedules.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .errors import ProtocolError, TopologyError
from .interfaces import OutlierDetector
from .messages import OutlierMessage
from .points import DataPoint

__all__ = ["InMemoryNetwork", "DeliveryLog"]


class DeliveryLog:
    """Record of protocol traffic observed while draining the network."""

    def __init__(self) -> None:
        self.messages: List[OutlierMessage] = []

    def record(self, message: OutlierMessage) -> None:
        self.messages.append(message)

    @property
    def point_transmissions(self) -> int:
        """Total number of distinct points placed on the wire, summed over
        packets (a point tagged for several recipients is counted once per
        packet, as it is transmitted once thanks to broadcast)."""
        return sum(len(m.unique_points()) for m in self.messages)


class InMemoryNetwork:
    """Drives a set of detectors over an instantaneous, reliable network.

    Parameters
    ----------
    detectors:
        Mapping from sensor id to its detector.  Each detector's neighbor set
        must be consistent with ``adjacency``.
    adjacency:
        Mapping from sensor id to the iterable of its neighbors.  Treated as
        undirected.
    seed:
        When given, pending packets are delivered in a pseudo-random order
        driven by this seed instead of FIFO, which exercises asynchronous
        schedules.
    """

    def __init__(
        self,
        detectors: Mapping[int, OutlierDetector],
        adjacency: Mapping[int, Iterable[int]],
        seed: Optional[int] = None,
    ) -> None:
        self.detectors: Dict[int, OutlierDetector] = dict(detectors)
        self.adjacency: Dict[int, Set[int]] = self._symmetrise(adjacency)
        unknown = set(self.adjacency) - set(self.detectors)
        if unknown:
            raise TopologyError(f"adjacency mentions unknown sensors: {sorted(unknown)}")
        for sensor_id, detector in self.detectors.items():
            expected = self.adjacency.get(sensor_id, set())
            if detector.neighbors != expected:
                detector.neighborhood_changed(expected)
        self._rng = random.Random(seed) if seed is not None else None
        self._queue: deque = deque()
        self.log = DeliveryLog()

    @staticmethod
    def _symmetrise(adjacency: Mapping[int, Iterable[int]]) -> Dict[int, Set[int]]:
        graph: Dict[int, Set[int]] = {node: set() for node in adjacency}
        for node, neighbors in adjacency.items():
            for other in neighbors:
                if other == node:
                    raise TopologyError(f"sensor {node} cannot neighbor itself")
                graph.setdefault(node, set()).add(other)
                graph.setdefault(other, set()).add(node)
        return graph

    # ------------------------------------------------------------------
    # Driving the protocol
    # ------------------------------------------------------------------
    def _enqueue(self, message: Optional[OutlierMessage]) -> None:
        if message is None or message.is_empty():
            return
        self.log.record(message)
        self._queue.append(message)

    def submit(self, message: Optional[OutlierMessage]) -> None:
        """Queue a message produced outside the network's own delivery loop
        (e.g. by driving a detector's event methods directly)."""
        self._enqueue(message)

    def inject_local_data(
        self, datasets: Mapping[int, Iterable[DataPoint]]
    ) -> None:
        """Feed locally sampled points to their sensors (data-change events)."""
        for sensor_id in sorted(datasets):
            detector = self.detectors.get(sensor_id)
            if detector is None:
                raise ProtocolError(f"no detector registered for sensor {sensor_id}")
            self._enqueue(detector.add_local_points(datasets[sensor_id]))

    def evict(self, datasets: Mapping[int, Iterable[DataPoint]]) -> None:
        """Evict points from the given sensors (sliding-window deletions)."""
        for sensor_id in sorted(datasets):
            detector = self.detectors[sensor_id]
            self._enqueue(detector.evict_points(datasets[sensor_id]))

    def _pop_next(self) -> OutlierMessage:
        if self._rng is None:
            return self._queue.popleft()
        index = self._rng.randrange(len(self._queue))
        self._queue.rotate(-index)
        message = self._queue.popleft()
        self._queue.rotate(index)
        return message

    def deliver_one(self) -> bool:
        """Deliver a single pending broadcast packet to all its neighbors.

        Returns ``False`` when no packet was pending.
        """
        if not self._queue:
            return False
        message = self._pop_next()
        neighbors = self.adjacency.get(message.sender, set())
        for neighbor in sorted(neighbors):
            detector = self.detectors[neighbor]
            reply = detector.receive(message)
            self._enqueue(reply)
        return True

    def run_to_quiescence(self, max_deliveries: int = 1_000_000) -> int:
        """Deliver packets until none are pending; returns deliveries made.

        Raises :class:`ProtocolError` if the bound is exceeded, which in a
        static network would indicate a termination bug.
        """
        deliveries = 0
        while self._queue:
            if deliveries >= max_deliveries:
                raise ProtocolError(
                    f"protocol did not quiesce within {max_deliveries} deliveries"
                )
            self.deliver_one()
            deliveries += 1
        return deliveries

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of packets waiting to be delivered."""
        return len(self._queue)

    def estimates(self) -> Dict[int, Set[DataPoint]]:
        """Every sensor's current outlier estimate (as sets)."""
        return {
            sensor_id: detector.estimate_set()
            for sensor_id, detector in self.detectors.items()
        }

    def estimates_agree(self) -> bool:
        """True when every sensor currently reports the same estimate,
        compared on the ``rest`` fields (hop counters are ignored)."""
        normalised = [
            frozenset(p.rest for p in estimate)
            for estimate in self.estimates().values()
        ]
        return len(set(normalised)) <= 1
