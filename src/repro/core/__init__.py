"""Core library: the paper's outlier-detection model and distributed
protocols, free of any simulation concerns.

The public surface re-exported here is everything a downstream user needs to
run in-network outlier detection over their own transport:

* data model: :class:`DataPoint`, :func:`make_point`, :func:`distance`;
* metric spaces: :class:`Metric` and the registry
  (:func:`metric_from_name`) of concrete metrics -- Euclidean (default),
  Manhattan, Chebyshev, weighted Euclidean, Mahalanobis -- each bundling a
  pointwise ``distance`` with vectorized ``rows``/``pairwise`` kernels that
  agree bitwise, so every detector, index and ranking function runs
  unchanged over a pluggable geometry;
* ranking functions: :class:`NearestNeighborDistance`,
  :class:`KthNearestNeighborDistance`, :class:`AverageKNNDistance`,
  :class:`NeighborCountWithinRadius`;
* queries and reference answers: :class:`OutlierQuery`,
  :func:`top_n_outliers`, :func:`global_reference`,
  :func:`semi_global_reference`;
* the incremental hot-path engine: :class:`NeighborhoodIndex`, a persistent
  per-sensor structure caching every point's neighbor list sorted by
  ``(distance, ≺)``.  Every detector owns one and updates it once per
  event (one :class:`EventBatch`) with ``O(Δ·n)`` distance computations
  (plus C-level sorted-list maintenance) instead of rebuilding an
  ``O(n²·d)`` pairwise-distance matrix.  (The centralized sink reads only
  full-set scores, once per round, so it keeps that matrix instead and
  updates it per publication with the same ``O(Δ·n)`` distances.)  Every
  scoring computation accepts an optional ``index`` to run against the
  cache, and the detectors run the sufficient-set fixpoint, support sets
  included, on its slot ids; without the index everything recomputes by
  brute force, the path :mod:`repro.core.reference` and the test-suite's
  oracle detectors use, and the two agree bit for bit;
* the distributed detectors: :class:`GlobalOutlierDetector`,
  :class:`SemiGlobalOutlierDetector` and their shared
  :class:`OutlierMessage` packet type;
* supporting pieces: :class:`SlidingWindow`, :class:`DetectionConfig`,
  :class:`InMemoryNetwork`.
"""

from .batch import EventBatch
from .config import Algorithm, DetectionConfig
from .errors import (
    ConfigurationError,
    DatasetError,
    ExperimentError,
    ProtocolError,
    RankingError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from .global_detector import GlobalOutlierDetector
from .index import IndexSubset, NeighborhoodIndex
from .inmemory import DeliveryLog, InMemoryNetwork
from .interfaces import DetectorStatistics, OutlierDetector
from .messages import OutlierMessage
from .metrics import (
    EUCLIDEAN,
    ChebyshevMetric,
    EuclideanMetric,
    MahalanobisMetric,
    ManhattanMetric,
    Metric,
    WeightedEuclideanMetric,
    metric_from_name,
    registered_metrics,
)
from .outliers import OutlierQuery, ranked_points, top_n_outliers
from .rescoring import ScoreCache
from .points import (
    DataPoint,
    distance,
    make_point,
    min_hop_merge,
    restrict_by_hop,
    sort_key,
)
from .ranking import (
    DEFICIT_UNIT,
    AverageKNNDistance,
    KthNearestNeighborDistance,
    NearestNeighborDistance,
    NeighborCountWithinRadius,
    RankingFunction,
    ranking_from_name,
)
from .reference import (
    global_reference,
    hop_distances,
    semi_global_reference,
    semi_global_reference_all,
)
from .semiglobal_detector import SemiGlobalOutlierDetector
from .sliding_window import SlidingWindow
from .sufficient import compute_sufficient_set, satisfies_sufficiency
from .support import is_support_set, support_of_set, support_set

__all__ = [
    # configuration
    "Algorithm",
    "DetectionConfig",
    # errors
    "ReproError",
    "ConfigurationError",
    "RankingError",
    "ProtocolError",
    "TopologyError",
    "SimulationError",
    "RoutingError",
    "DatasetError",
    "ExperimentError",
    # data model
    "DataPoint",
    "make_point",
    "distance",
    "sort_key",
    "min_hop_merge",
    "restrict_by_hop",
    # metric spaces
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "WeightedEuclideanMetric",
    "MahalanobisMetric",
    "EUCLIDEAN",
    "metric_from_name",
    "registered_metrics",
    # ranking
    "RankingFunction",
    "NearestNeighborDistance",
    "KthNearestNeighborDistance",
    "AverageKNNDistance",
    "NeighborCountWithinRadius",
    "ranking_from_name",
    "DEFICIT_UNIT",
    # queries / reference answers
    "OutlierQuery",
    "top_n_outliers",
    "ranked_points",
    "global_reference",
    "semi_global_reference",
    "semi_global_reference_all",
    "hop_distances",
    # incremental hot-path engine
    "NeighborhoodIndex",
    "IndexSubset",
    "EventBatch",
    "ScoreCache",
    # support / sufficiency
    "support_set",
    "support_of_set",
    "is_support_set",
    "compute_sufficient_set",
    "satisfies_sufficiency",
    # detectors
    "OutlierDetector",
    "DetectorStatistics",
    "GlobalOutlierDetector",
    "SemiGlobalOutlierDetector",
    "OutlierMessage",
    # execution helpers
    "SlidingWindow",
    "InMemoryNetwork",
    "DeliveryLog",
]
