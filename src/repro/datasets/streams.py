"""Dataset bundles: per-sensor streams plus the deployment they belong to.

A :class:`SensorDataset` ties together node positions, per-sensor point
streams (one point per sensor per epoch) and the injection record, and
provides the per-round views the simulation runner needs (which points enter
the window at epoch ``t``, which points a window of length ``w`` contains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import DatasetError
from ..core.points import DataPoint
from .outlier_injection import InjectionRecord

__all__ = ["SensorDataset"]


@dataclass
class SensorDataset:
    """All the data one simulation run consumes.

    Attributes
    ----------
    positions:
        ``{node_id: (x, y)}`` placement of every sensor.
    streams:
        ``{node_id: [DataPoint, ...]}`` in epoch order; every sensor reports
        one point per epoch.
    injections:
        Record of artificially injected anomalies (may be empty).
    """

    positions: Dict[int, Tuple[float, float]]
    streams: Dict[int, List[DataPoint]]
    injections: InjectionRecord = field(default_factory=InjectionRecord)

    def __post_init__(self) -> None:
        if set(self.positions) != set(self.streams):
            raise DatasetError(
                "positions and streams must cover the same sensor ids"
            )
        lengths = {len(points) for points in self.streams.values()}
        if len(lengths) > 1:
            raise DatasetError(
                f"all sensors must have streams of equal length, got lengths {sorted(lengths)}"
            )
        for node_id, points in self.streams.items():
            for point in points:
                if point.origin != node_id:
                    raise DatasetError(
                        f"stream of sensor {node_id} contains a point originating at "
                        f"{point.origin}"
                    )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        return sorted(self.streams)

    @property
    def node_count(self) -> int:
        return len(self.streams)

    @property
    def epochs(self) -> int:
        """Number of sampling epochs in every stream."""
        if not self.streams:
            return 0
        return len(next(iter(self.streams.values())))

    # ------------------------------------------------------------------
    # Views used by the runner
    # ------------------------------------------------------------------
    def points_at(self, epoch_index: int) -> Dict[int, DataPoint]:
        """The one point each sensor samples at stream position ``epoch_index``."""
        if not 0 <= epoch_index < self.epochs:
            raise DatasetError(
                f"epoch index {epoch_index} out of range [0, {self.epochs})"
            )
        return {node_id: self.streams[node_id][epoch_index] for node_id in self.node_ids}

    def window(self, node_id: int, end_index: int, length: int) -> List[DataPoint]:
        """The last ``length`` points of ``node_id`` up to position ``end_index``
        inclusive (fewer at the start of the stream)."""
        if node_id not in self.streams:
            raise DatasetError(f"unknown sensor {node_id}")
        start = max(0, end_index - length + 1)
        return list(self.streams[node_id][start : end_index + 1])

    def windows(self, end_index: int, length: int) -> Dict[int, List[DataPoint]]:
        """Window contents of every sensor at position ``end_index``."""
        return {
            node_id: self.window(node_id, end_index, length)
            for node_id in self.node_ids
        }

    def union_window(self, end_index: int, length: int) -> Set[DataPoint]:
        """Union over sensors of the window contents (the global dataset the
        reference answer is computed over)."""
        union: Set[DataPoint] = set()
        for points in self.windows(end_index, length).values():
            union |= set(points)
        return union

    def restrict_nodes(self, node_ids: Iterable[int]) -> "SensorDataset":
        """A sub-dataset over the given sensors only (used for the 32-node
        scaling comparison mentioned in the paper)."""
        wanted = sorted(set(node_ids))
        missing = [n for n in wanted if n not in self.streams]
        if missing:
            raise DatasetError(f"unknown sensors {missing}")
        return SensorDataset(
            positions={n: self.positions[n] for n in wanted},
            streams={n: list(self.streams[n]) for n in wanted},
            injections=self.injections,
        )
