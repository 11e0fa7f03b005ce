"""Data-point model used by the outlier detection algorithms.

The paper (Section 4.1) works over an abstract data space ``D`` together with
a fixed total linear order ``≺`` that is used to break ties so that the
ranking function ``R(., Q)`` induces a strict total order.  Section 6 extends
points with a *hop* field used by the semi-global algorithm; the remaining
fields are collectively called ``x.rest``.

:class:`DataPoint` captures exactly this structure:

* ``values`` -- the numeric attributes consumed by the ranking function
  (e.g. ``(temperature, x, y)`` for the Intel-Lab workload),
* ``origin`` -- identifier of the sensor that sampled the point,
* ``epoch``  -- sequential sample number within the origin's stream,
* ``timestamp`` -- sampling time used by the sliding-window model,
* ``hop``    -- hop distance travelled from the origin (always ``0`` for the
  global algorithm).

Two points with equal ``rest`` fields but different ``hop`` values are
different :class:`DataPoint` instances; the semi-global algorithm collapses
them with :func:`min_hop_merge` (the ``[Q]^min`` operator of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .metrics import Metric

__all__ = [
    "DataPoint",
    "RestKey",
    "distance",
    "sort_key",
    "min_hop_merge",
    "restrict_by_hop",
    "make_point",
]

#: Key identifying the ``rest`` fields of a point (everything except ``hop``).
RestKey = Tuple[Tuple[float, ...], int, int]


@dataclass(frozen=True, order=False)
class DataPoint:
    """A single immutable sensor observation.

    Instances are hashable and can therefore be stored in sets, which is how
    the detectors represent the datasets ``D_i``, ``P_i`` and the per-neighbor
    bookkeeping sets ``D_{i,j}``.
    """

    values: Tuple[float, ...]
    origin: int
    epoch: int
    timestamp: float = 0.0
    hop: int = 0

    def __post_init__(self) -> None:
        # Normalise the value container to a tuple of floats so that equality
        # and hashing behave identically regardless of the caller's container.
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        # Points live in sets and dict keys on every hot path (holdings,
        # per-neighbor buckets, the neighborhood index); an immutable point is
        # hashed thousands of times per protocol event, so the hash is
        # computed once.  Equal points (all fields, timestamp included) agree
        # on this hash; points differing only in timestamp merely collide.
        object.__setattr__(
            self,
            "_cached_hash",
            hash((self.values, self.origin, self.epoch, self.hop)),
        )

    def __hash__(self) -> int:
        return self._cached_hash

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def rest(self) -> RestKey:
        """The ``x.rest`` fields of the paper: everything except ``hop``."""
        return (self.values, self.origin, self.epoch)

    @property
    def dimension(self) -> int:
        """Number of numeric attributes."""
        return len(self.values)

    def with_hop(self, hop: int) -> "DataPoint":
        """Return a copy of this point with the ``hop`` field replaced."""
        if hop < 0:
            raise ValueError(f"hop must be non-negative, got {hop}")
        return self._hop_copy(hop)

    def incremented(self) -> "DataPoint":
        """Return a copy with ``hop`` incremented by one (used before
        forwarding a point to a neighbor in the semi-global algorithm)."""
        return self._hop_copy(self.hop + 1)

    def _hop_copy(self, hop: int) -> "DataPoint":
        # The fields are already normalised, so the copy skips
        # ``__post_init__`` and recomputes only the hash, which covers hop.
        copy = object.__new__(self.__class__)
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["hop"] = hop
        fields["_cached_hash"] = hash((self.values, self.origin, self.epoch, hop))
        return copy

    def same_rest(self, other: "DataPoint") -> bool:
        """True when the two points differ at most in their ``hop`` field."""
        return self.rest == other.rest

    # ------------------------------------------------------------------
    # Ordering: the fixed total linear order ``≺`` used for tie-breaking.
    # ------------------------------------------------------------------
    def __lt__(self, other: "DataPoint") -> bool:
        if not isinstance(other, DataPoint):
            return NotImplemented
        return sort_key(self) < sort_key(other)

    def __le__(self, other: "DataPoint") -> bool:
        if not isinstance(other, DataPoint):
            return NotImplemented
        return sort_key(self) <= sort_key(other)

    def __gt__(self, other: "DataPoint") -> bool:
        if not isinstance(other, DataPoint):
            return NotImplemented
        return sort_key(self) > sort_key(other)

    def __ge__(self, other: "DataPoint") -> bool:
        if not isinstance(other, DataPoint):
            return NotImplemented
        return sort_key(self) >= sort_key(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vals = ", ".join(f"{v:g}" for v in self.values)
        return (
            f"DataPoint(({vals}), origin={self.origin}, epoch={self.epoch}, "
            f"t={self.timestamp:g}, hop={self.hop})"
        )


def make_point(
    values: Sequence[float],
    origin: int,
    epoch: int,
    timestamp: float | None = None,
    hop: int = 0,
) -> DataPoint:
    """Convenience constructor.

    When ``timestamp`` is omitted the epoch number is used as the timestamp,
    which matches the common case of one sample per sampling period.
    """
    ts = float(epoch) if timestamp is None else float(timestamp)
    return DataPoint(tuple(values), origin=origin, epoch=epoch, timestamp=ts, hop=hop)


def sort_key(point: DataPoint) -> Tuple[Tuple[float, ...], int, int]:
    """The fixed total linear order ``≺`` on the data space.

    The order is defined on the ``rest`` fields only, so two copies of a point
    that differ only in their hop count compare equal under ``≺`` (they are
    "the same point" as far as the ranking function is concerned).
    """
    return (point.values, point.origin, point.epoch)


def distance(a: DataPoint, b: DataPoint, metric: Optional[Metric] = None) -> float:
    """Distance between the value vectors of two points.

    Without a ``metric`` this is the Euclidean distance computed by
    :func:`math.dist` (the repository's historical default, kept on the
    fast path with its original ``ValueError`` contract).  Pass any
    :class:`~repro.core.metrics.Metric` to measure under a different
    geometry; the metric raises
    :class:`~repro.core.errors.RankingError` on dimension mismatch.
    """
    if metric is not None:
        return metric.distance(a.values, b.values)
    if len(a.values) != len(b.values):
        raise ValueError(
            f"dimension mismatch: {len(a.values)} != {len(b.values)}"
        )
    return math.dist(a.values, b.values)


def min_hop_merge(points: Iterable[DataPoint]) -> list[DataPoint]:
    """The ``[Q]^min`` operator of Section 6.

    Among points that share the same ``rest`` fields, only the one with the
    smallest hop count is retained.  The result is returned in ``≺`` order so
    that the operation is deterministic.
    """
    best: dict[RestKey, DataPoint] = {}
    for point in points:
        current = best.get(point.rest)
        if current is None or point.hop < current.hop:
            best[point.rest] = point
    return sorted(best.values(), key=sort_key)


def restrict_by_hop(points: Iterable[DataPoint], max_hop: int) -> set[DataPoint]:
    """Return the subset of ``points`` with ``hop <= max_hop`` (``Q^{<=h}``)."""
    return {p for p in points if p.hop <= max_hop}
