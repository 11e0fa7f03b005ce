"""Anomaly injection.

Sensor faults and genuine rare events are what the detection algorithms are
supposed to surface.  The injector corrupts a configurable fraction of the
generated readings with the fault types the WSN literature (and the paper's
motivation section) describe:

* **spike** -- a single reading jumps far away from the local trend
  (transient glitch, e.g. an ADC error or a transmission bit-flip);
* **stuck** -- the sensor repeats a constant, implausible value for a run of
  consecutive epochs (hardware fault / battery brown-out);
* **drift** -- the readings ramp away from the truth over a run of epochs
  (calibration loss as power dwindles).

Injected points are recorded so that experiments can measure how often the
detectors' top-n outliers coincide with true injected anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from ..core.errors import DatasetError
from ..core.points import DataPoint, RestKey, make_point
from ..simulator.rng import RandomStreams

__all__ = [
    "InjectionConfig",
    "InjectionRecord",
    "inject_anomalies",
    "apply_node_faults",
]


@dataclass(frozen=True)
class InjectionConfig:
    """Controls how many and what kind of anomalies are injected."""

    spike_probability: float = 0.01
    stuck_probability: float = 0.002
    drift_probability: float = 0.002
    spike_magnitude: float = 15.0
    stuck_value: float = 0.0
    stuck_duration: int = 5
    drift_rate: float = 1.5
    drift_duration: int = 5
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("spike_probability", "stuck_probability", "drift_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DatasetError(f"{name} must be in [0, 1], got {value}")
        if self.stuck_duration < 1 or self.drift_duration < 1:
            raise DatasetError("fault durations must be >= 1")

    @property
    def total_probability(self) -> float:
        return self.spike_probability + self.stuck_probability + self.drift_probability


@dataclass
class InjectionRecord:
    """Which points were corrupted, and how."""

    spikes: Set[RestKey] = field(default_factory=set)
    stuck: Set[RestKey] = field(default_factory=set)
    drifts: Set[RestKey] = field(default_factory=set)

    @property
    def all_keys(self) -> Set[RestKey]:
        return self.spikes | self.stuck | self.drifts

    def count(self) -> int:
        return len(self.all_keys)


def _replace_value(point: DataPoint, new_temperature: float) -> DataPoint:
    values = (new_temperature,) + point.values[1:]
    return make_point(values, origin=point.origin, epoch=point.epoch,
                      timestamp=point.timestamp, hop=point.hop)


def inject_anomalies(
    streams: Mapping[int, Sequence[DataPoint]],
    config: InjectionConfig = InjectionConfig(),
) -> Tuple[Dict[int, List[DataPoint]], InjectionRecord]:
    """Return a corrupted copy of ``streams`` plus the injection record.

    Only the first value component (the temperature) is corrupted; the
    coordinate components are left intact, matching the fault model of the
    paper's motivation (bad readings, not bad placements, are the common
    case -- though the algorithms would treat either identically).
    """
    rng = RandomStreams(config.seed).stream("injection")
    record = InjectionRecord()
    corrupted: Dict[int, List[DataPoint]] = {}

    for node_id in sorted(streams):
        original = list(streams[node_id])
        result: List[DataPoint] = []
        index = 0
        while index < len(original):
            point = original[index]
            draw = rng.random()
            if draw < config.spike_probability:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                magnitude = config.spike_magnitude * rng.uniform(0.8, 1.2)
                spiked = _replace_value(point, point.values[0] + sign * magnitude)
                result.append(spiked)
                record.spikes.add(spiked.rest)
                index += 1
                continue
            if draw < config.spike_probability + config.stuck_probability:
                duration = min(config.stuck_duration, len(original) - index)
                for offset in range(duration):
                    victim = original[index + offset]
                    stuck = _replace_value(victim, config.stuck_value)
                    result.append(stuck)
                    record.stuck.add(stuck.rest)
                index += duration
                continue
            if draw < config.total_probability:
                duration = min(config.drift_duration, len(original) - index)
                for offset in range(duration):
                    victim = original[index + offset]
                    drifted = _replace_value(
                        victim, victim.values[0] + config.drift_rate * (offset + 1)
                    )
                    result.append(drifted)
                    record.drifts.add(drifted.rest)
                index += duration
                continue
            result.append(point)
            index += 1
        corrupted[node_id] = result
    return corrupted, record


def apply_node_faults(
    streams: Mapping[int, Sequence[DataPoint]],
    record: InjectionRecord,
    stuck_probability: float,
    drift_probability: float,
    stuck_value: float = 0.0,
    drift_rate: float = 1.5,
    seed: int = 3,
) -> Tuple[Dict[int, List[DataPoint]], InjectionRecord]:
    """Whole-sensor faults: a node's sensor goes bad and *stays* bad.

    Unlike :func:`inject_anomalies` (transient, per-point faults), this
    models the fault-and-churn subsystem's permanent hardware failures: with
    the given per-node probabilities a sensor either sticks at
    ``stuck_value`` or drifts away at ``drift_rate`` per epoch, from a
    random onset epoch (drawn in the middle half of the stream) to the end.
    Corrupted points are added to ``record.stuck`` / ``record.drifts`` so
    robustness metrics can grade detectors on faulty-sensor points.

    Each node draws from its own named stream (``sensor-fault-<id>``), so
    one node's fault never perturbs another's draws.  With both
    probabilities zero this is an exact no-op: ``streams`` is returned
    unchanged (same objects) and no stream is consumed.
    """
    if not 0.0 <= stuck_probability <= 1.0 or not 0.0 <= drift_probability <= 1.0:
        raise DatasetError("sensor-fault probabilities must be in [0, 1]")
    if stuck_probability + drift_probability > 1.0:
        raise DatasetError(
            "stuck_probability + drift_probability must not exceed 1"
        )
    if stuck_probability == 0.0 and drift_probability == 0.0:
        return dict(streams), record

    family = RandomStreams(seed)
    corrupted: Dict[int, List[DataPoint]] = {}
    for node_id in sorted(streams):
        original = list(streams[node_id])
        rng = family.stream(f"sensor-fault-{node_id}")
        draw = rng.random()
        if draw >= stuck_probability + drift_probability or len(original) < 2:
            corrupted[node_id] = original
            continue
        # Onset in the middle half of the stream: the fault has clean data
        # before it (so it is detectable as a change) and a tail long enough
        # to dominate the final windows.
        epochs = len(original)
        onset = rng.randint(epochs // 4, max(epochs // 4, (3 * epochs) // 4))
        result = original[:onset]
        for offset, victim in enumerate(original[onset:]):
            if draw < stuck_probability:
                faulty = _replace_value(victim, stuck_value)
                record.stuck.add(faulty.rest)
            else:
                faulty = _replace_value(
                    victim, victim.values[0] + drift_rate * (offset + 1)
                )
                record.drifts.add(faulty.rest)
            result.append(faulty)
        corrupted[node_id] = result
    return corrupted, record
