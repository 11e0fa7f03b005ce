"""Per-tick event batches: one protocol event's index mutations, as a unit.

Every protocol event delivers a *group* of data changes at once -- a
sampling tick expires a handful of window points while adding the fresh
reading, a crash reset evicts the whole window, a received message carries
many points.  An :class:`EventBatch` collects one event's worth of mutations
so :meth:`~repro.core.index.NeighborhoodIndex.apply_batch` can apply them as
a unit: a batch of many evictions is stripped from every surviving array in
one pass, and the additions are checked together before any is made.

Batch formation rules (what the detectors guarantee when they build one):

* **evictions before additions** -- ``apply_batch`` applies ``evicts``
  first, then ``adds``, then ``replaces``, matching the order of the
  per-event data-change handler (``update_local_data`` evicts expired
  points before inserting arrivals).  A point listed in both ``evicts`` and
  ``adds`` is therefore removed and re-inserted, ending *present* --
  exactly what the sequential path does.
* **replaces are ordered** -- each ``(old, new)`` pair is a hop-only
  relabel (the semi-global ``[·]^min`` merge); pairs are applied in list
  order, so a chain ``a -> b`` then ``b -> c`` within one batch is legal,
  as is relabelling a point added earlier in the same batch.
* **duplicates are harmless** -- an eviction of an absent point or an
  addition of a present one is skipped, mirroring ``discard``/``add``.

The batch is deliberately a dumb container: all correctness-critical
sequencing lives in ``apply_batch`` so the index remains the single owner
of its invariants.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .points import DataPoint

__all__ = ["EventBatch"]


class EventBatch:
    """One event's worth of index mutations, applied as a unit.

    Attributes
    ----------
    adds:
        Points to insert (applied second, in list order).
    evicts:
        Points to remove (applied first, in list order).
    replaces:
        ``(old, new)`` hop-relabel pairs (applied last, in list order).
    """

    __slots__ = ("adds", "evicts", "replaces")

    def __init__(
        self,
        adds: Iterable[DataPoint] = (),
        evicts: Iterable[DataPoint] = (),
        replaces: Iterable[Tuple[DataPoint, DataPoint]] = (),
    ) -> None:
        self.adds: List[DataPoint] = list(adds)
        self.evicts: List[DataPoint] = list(evicts)
        self.replaces: List[Tuple[DataPoint, DataPoint]] = list(replaces)

    def stage_put(self, previous, point: DataPoint) -> None:
        """Stage ``holdings[point.rest]`` changing from ``previous`` to
        ``point``: an addition when ``previous`` is ``None``, otherwise a
        hop relabel (mirrors the detectors' min-hop-merge ``_index_put``)."""
        if previous is None:
            self.adds.append(point)
        else:
            self.replaces.append((previous, point))

    def __len__(self) -> int:
        return len(self.adds) + len(self.evicts) + len(self.replaces)

    def __bool__(self) -> bool:
        return bool(self.adds or self.evicts or self.replaces)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventBatch(adds={len(self.adds)}, evicts={len(self.evicts)}, "
            f"replaces={len(self.replaces)})"
        )
