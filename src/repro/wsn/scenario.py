"""Scenario configuration for simulated experiments.

A :class:`ScenarioConfig` fully describes one simulation run: the detection
algorithm and its parameters (a :class:`~repro.core.config.DetectionConfig`),
the deployment (node count, terrain, radio range), the workload (number of
sampling rounds, sampling period, anomaly injection, missing data), the
channel conditions (packet-loss probability) and the fault model (node
churn, duty-cycle sleep, burst loss, permanent sensor faults -- a
:class:`~repro.wsn.faults.FaultConfig`), plus the random seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from ..core.config import Algorithm, DetectionConfig
from ..core.errors import ConfigurationError, RankingError
from ..datasets.layout import (
    DEFAULT_NODE_COUNT,
    DEFAULT_TERRAIN_SIZE,
    DEFAULT_TRANSMISSION_RANGE,
)
from ..datasets.loader import DatasetConfig
from ..datasets.outlier_injection import InjectionConfig
from .faults import FaultConfig

__all__ = ["ScenarioConfig"]

#: Keys of the schema-4 ``detection`` encoding that no longer name a field.
#: They once selected the brute-force and per-point engines; every scenario
#: now runs the indexed, event-batched one.  The encoding keeps writing them
#: as ``true`` so that store keys and stored entries stay byte-identical,
#: and decoding rejects any other value.
FROZEN_DETECTION_KEYS = ("indexed", "batched")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation run.

    Attributes
    ----------
    detection:
        Algorithm, ranking function, ``n``, ``k``, window length, epsilon.
    node_count:
        Number of sensors (the paper uses 53; 32 for the scaling study).
    rounds:
        Number of sampling rounds simulated.
    sampling_period:
        Seconds of simulated time between successive samples of a sensor.
    terrain_size / transmission_range:
        Deployment geometry in metres.
    loss_probability:
        Independent per-receiver packet-loss probability.
    sink_id:
        Collection point used by the centralized baseline.
    use_static_routing:
        When true the centralized baseline uses precomputed shortest-path
        routes instead of AODV (ablation isolating route-discovery overhead).
    missing_probability / injection:
        Dataset preparation knobs (see :mod:`repro.datasets`).
    extra_channels:
        Number of additional correlated sensing channels beyond temperature
        (humidity, light, voltage, ...); each point then carries
        ``3 + extra_channels`` attributes, giving non-Euclidean and
        weighted metrics a genuinely multi-dimensional workload.  ``0``
        (default) reproduces the paper's ``(temperature, x, y)`` points
        bit-for-bit.
    faults:
        Fault-and-churn model (node crash/recovery, duty-cycle sleep,
        Gilbert-Elliott burst loss, permanent sensor faults).  The default
        configuration disables every fault and keeps the run byte-identical
        to a pre-fault-subsystem scenario.
    seed:
        Master random seed for the run.
    """

    detection: DetectionConfig = field(default_factory=DetectionConfig)
    node_count: int = DEFAULT_NODE_COUNT
    rounds: int = 30
    sampling_period: float = 30.0
    terrain_size: float = DEFAULT_TERRAIN_SIZE
    transmission_range: float = DEFAULT_TRANSMISSION_RANGE
    loss_probability: float = 0.0
    sink_id: int = 0
    use_static_routing: bool = False
    missing_probability: float = 0.03
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    extra_channels: int = 0
    faults: FaultConfig = field(default_factory=FaultConfig)
    broadcast_jitter: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ConfigurationError("a scenario needs at least two sensors")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if not 0 < self.sampling_period < math.inf:
            raise ConfigurationError("sampling_period must be positive and finite")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError("loss_probability must be in [0, 1)")
        if not 0 <= self.sink_id < self.node_count:
            raise ConfigurationError(
                f"sink_id {self.sink_id} outside the node id range [0, {self.node_count})"
            )
        if not 0 <= self.broadcast_jitter < math.inf:
            raise ConfigurationError("broadcast_jitter must be non-negative and finite")
        if self.extra_channels < 0:
            raise ConfigurationError("extra_channels must be non-negative")
        # The synthetic workload's points are (3 + extra_channels)-dimensional
        # (reading channels plus the two coordinates); a parameterised metric
        # sized for a different dimension would otherwise only blow up deep
        # inside the run, when the first distance is measured.
        try:
            self.detection.make_metric().validate_dimension(3 + self.extra_channels)
        except RankingError as error:
            raise ConfigurationError(
                f"metric does not fit this scenario's "
                f"{3 + self.extra_channels}-dimensional points: {error}"
            ) from None

    # ------------------------------------------------------------------
    # Derived values and copies
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> str:
        return self.detection.algorithm

    @property
    def duration(self) -> float:
        """Simulated seconds covered by the sampling schedule."""
        return self.rounds * self.sampling_period

    def dataset_config(self) -> DatasetConfig:
        """The dataset-generation parameters implied by this scenario."""
        return DatasetConfig(
            node_count=self.node_count,
            epochs=self.rounds,
            terrain_size=self.terrain_size,
            missing_probability=self.missing_probability,
            imputation_window=self.detection.window_length,
            injection=self.injection,
            extra_channels=self.extra_channels,
            node_stuck_probability=self.faults.sensor_stuck_probability,
            node_drift_probability=self.faults.sensor_drift_probability,
            field_seed=self.seed,
            missing_seed=self.seed + 1,
            node_fault_seed=self.seed + 2,
        )

    # ------------------------------------------------------------------
    # JSON serialisation (the persistent result store keys and payloads)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict covering *every* field of this configuration.

        The encoding is produced by :func:`dataclasses.asdict`, so a field
        added to this class (or to the nested :class:`DetectionConfig` /
        :class:`InjectionConfig`) is automatically part of the encoding --
        new scenario knobs can never be silently ignored by the result
        store's cache key.  The ``detection`` section also carries each of
        :data:`FROZEN_DETECTION_KEYS` as ``true``.
        """
        payload = asdict(self)
        payload["detection"].update(dict.fromkeys(FROZEN_DETECTION_KEYS, True))
        return payload

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        """Rebuild a scenario from :meth:`to_json_dict` output.

        Unknown fields raise ``TypeError`` (the constructors reject them),
        and a frozen detection key holding anything but ``true`` raises
        :class:`~repro.core.errors.ConfigurationError`, so a stale or
        corrupted encoding fails loudly instead of decoding to a subtly
        different scenario.
        """
        payload = dict(data)
        detection_fields = dict(payload.pop("detection"))
        for key in FROZEN_DETECTION_KEYS:
            value = detection_fields.pop(key, True)
            if value is not True:
                raise ConfigurationError(
                    f"detection.{key} must be true, got {value!r}"
                )
        detection = DetectionConfig(**detection_fields)
        injection = InjectionConfig(**payload.pop("injection"))
        faults = FaultConfig(**payload.pop("faults"))
        return cls(detection=detection, injection=injection, faults=faults, **payload)

    def with_detection(self, detection: DetectionConfig) -> "ScenarioConfig":
        return replace(self, detection=detection)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    def label(self) -> str:
        """Plot label (delegates to the detection configuration)."""
        return self.detection.label()
