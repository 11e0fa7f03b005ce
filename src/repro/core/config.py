"""Configuration objects shared by the detectors, the simulator and the
experiment harness.

A :class:`DetectionConfig` captures the user-facing parameters of the paper's
evaluation: which ranking function to use (``NN`` / ``KNN`` / ``COUNT``), the
number of reported outliers ``n``, the neighbor count ``k``, the sliding
window length ``w`` and -- for the semi-global algorithm -- the hop diameter
``epsilon``.  All values are validated eagerly so that misconfiguration fails
fast rather than deep inside a simulation run.

No field selects an execution engine: every detector and the centralized
sink run the incremental, event-batched
:class:`~repro.core.index.NeighborhoodIndex`.  The brute-force recompute
they are checked against lives in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Tuple

from .errors import ConfigurationError
from .metrics import Metric, metric_from_name
from .outliers import OutlierQuery
from .ranking import RankingFunction, ranking_from_name

__all__ = ["DetectionConfig", "Algorithm"]

#: Canonical encoding of a metric's keyword parameters: a tuple of
#: ``(name, value)`` pairs sorted by name, with every numeric leaf coerced
#: to ``float`` and every sequence to a tuple.  This form is hashable (the
#: configs are dict keys in the orchestrator's memory cache) and stable
#: under a JSON round-trip (JSON turns tuples into lists; re-freezing on
#: decode restores equality with the original).
MetricParams = Tuple[Tuple[str, Any], ...]


def _freeze_param_value(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param_value(v) for v in value)
    if isinstance(value, bool) or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigurationError(
        f"metric parameter values must be numbers, strings or nested "
        f"sequences thereof, got {value!r}"
    )


def _freeze_metric_params(params: Any) -> MetricParams:
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        try:
            items = [(key, value) for key, value in params]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"metric_params must be a mapping or an iterable of "
                f"(name, value) pairs, got {params!r}"
            ) from None
    return tuple(sorted((str(key), _freeze_param_value(value)) for key, value in items))


class Algorithm:
    """Names of the algorithms compared in the paper's evaluation."""

    GLOBAL = "global"
    SEMI_GLOBAL = "semi-global"
    CENTRALIZED = "centralized"

    ALL = (GLOBAL, SEMI_GLOBAL, CENTRALIZED)


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of one outlier-detection deployment.

    Attributes
    ----------
    algorithm:
        One of :attr:`Algorithm.GLOBAL`, :attr:`Algorithm.SEMI_GLOBAL`,
        :attr:`Algorithm.CENTRALIZED`.
    ranking:
        Short name of the ranking function (``"nn"``, ``"knn"``, ``"kth-nn"``
        or ``"count"``).
    metric / metric_params:
        Registry name of the metric space the ranking scores in (see
        :func:`~repro.core.metrics.metric_from_name`; default
        ``"euclidean"``) plus its keyword parameters as ``(name, value)``
        pairs -- e.g. ``(("weights", (1.0, 0.5, 0.1)),)`` for
        ``"weighted-euclidean"`` or ``(("cov", ...),)`` for
        ``"mahalanobis"``.  Both are validated eagerly; the parameters are
        frozen into a canonical hashable tuple form that survives the JSON
        round-trip of the persistent result store.
    n_outliers:
        Number of outliers to report (the paper's ``n``).
    k:
        Neighbor count for the k-NN family of ranking functions.
    alpha:
        Radius for the neighbor-count ranking function.
    window_length:
        Sliding window length ``w`` in sampling periods.
    hop_diameter:
        Spatial extent ``epsilon`` of the semi-global algorithm (ignored by
        the other algorithms).
    semiglobal_variant:
        ``"refined"`` or ``"paper"`` -- see
        :class:`~repro.core.semiglobal_detector.SemiGlobalOutlierDetector`.
    """

    algorithm: str = Algorithm.GLOBAL
    ranking: str = "nn"
    n_outliers: int = 4
    k: int = 4
    alpha: float = 1.0
    window_length: int = 20
    hop_diameter: int = 1
    semiglobal_variant: str = "refined"
    metric: str = "euclidean"
    metric_params: MetricParams = ()

    def __post_init__(self) -> None:
        if self.algorithm not in Algorithm.ALL:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {Algorithm.ALL}"
            )
        if self.n_outliers < 1:
            raise ConfigurationError(
                f"n_outliers must be >= 1, got {self.n_outliers}"
            )
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        # NaN slips through a plain ``<= 0`` comparison (every comparison
        # with NaN is false) and an infinite radius makes COUNT degenerate;
        # both used to surface deep inside a run instead of here.
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ConfigurationError(
                f"alpha must be a positive finite number, got {self.alpha}"
            )
        if self.window_length < 1:
            raise ConfigurationError(
                f"window_length must be >= 1, got {self.window_length}"
            )
        if self.hop_diameter < 1:
            raise ConfigurationError(
                f"hop_diameter must be >= 1, got {self.hop_diameter}"
            )
        if self.semiglobal_variant not in ("refined", "paper"):
            raise ConfigurationError(
                f"semiglobal_variant must be 'refined' or 'paper', "
                f"got {self.semiglobal_variant!r}"
            )
        # Freeze the metric parameters into their canonical hashable form
        # (lists from a JSON decode become tuples, numbers become floats),
        # then instantiate the ranking + metric eagerly so that unknown
        # names and invalid parameters fail here, not deep inside a run.
        object.__setattr__(
            self, "metric_params", _freeze_metric_params(self.metric_params)
        )
        self.make_ranking()

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def make_metric(self) -> Metric:
        """Instantiate the configured metric space."""
        return metric_from_name(self.metric, **dict(self.metric_params))

    def make_ranking(self) -> RankingFunction:
        """Instantiate the configured ranking function (with its metric)."""
        return ranking_from_name(
            self.ranking, k=self.k, alpha=self.alpha, metric=self.make_metric()
        )

    def make_query(self) -> OutlierQuery:
        """Bundle the ranking function with ``n`` into an
        :class:`~repro.core.outliers.OutlierQuery`."""
        return OutlierQuery(self.make_ranking(), n=self.n_outliers)

    def with_window(self, window_length: int) -> "DetectionConfig":
        """Copy of this configuration with a different window length."""
        return replace(self, window_length=window_length)

    def with_outliers(self, n_outliers: int) -> "DetectionConfig":
        """Copy of this configuration with a different ``n``."""
        return replace(self, n_outliers=n_outliers)

    def with_hop_diameter(self, hop_diameter: int) -> "DetectionConfig":
        """Copy of this configuration with a different ``epsilon``."""
        return replace(self, hop_diameter=hop_diameter)

    def with_metric(self, metric: str, **metric_params: Any) -> "DetectionConfig":
        """Copy of this configuration under a different metric space."""
        return replace(
            self, metric=metric, metric_params=tuple(metric_params.items())
        )

    def label(self) -> str:
        """Plot label matching the paper's naming convention."""
        if self.algorithm == Algorithm.CENTRALIZED:
            return "Centralized"
        ranking = "NN" if self.ranking == "nn" else "KNN"
        if self.algorithm == Algorithm.GLOBAL:
            return f"Global-{ranking}"
        return f"Semi-global, epsilon={self.hop_diameter}"
