"""Outlier ranking functions ``R(x, Q)``.

Section 4.1 of the paper defines outliers through a *ranking function*
``R`` mapping a point ``x`` and a finite dataset ``Q`` to a non-negative real
number: the larger the value, the more outlying ``x`` is with respect to
``Q``.  The distributed algorithms are correct for every ``R`` that satisfies
two axioms:

* **anti-monotonicity** -- for ``Q1 ⊆ Q2``: ``R(x, Q1) >= R(x, Q2)``
  (adding points can only make ``x`` look *less* outlying);
* **smoothness** -- if ``R(x, Q1) > R(x, Q2)`` for ``Q1 ⊆ Q2`` then some
  single point ``z ∈ Q2 \\ Q1`` already lowers the rating:
  ``R(x, Q1) > R(x, Q1 ∪ {z})``.

This module ships the ranking functions used in the paper's evaluation plus
the distance-to-``α``-neighborhood count variant mentioned in the related-work
discussion:

* :class:`KthNearestNeighborDistance` -- distance to the k-th nearest
  neighbor (``NN`` in the plots is the ``k = 1`` special case,
  :class:`NearestNeighborDistance`);
* :class:`AverageKNNDistance` -- average distance to the k nearest neighbors
  (``KNN`` in the plots);
* :class:`NeighborCountWithinRadius` -- the inverse of the number of
  neighbors within distance ``α`` (Knorr & Ng style distance-based outliers).

Every ranking function also knows how to compute the *minimal support set*
``[P|x]`` required by the distributed protocol (see
:mod:`repro.core.support`).

All three rankings are metric-agnostic: they accept any
:class:`~repro.core.metrics.Metric` (default: Euclidean) and route every
distance -- scalar scoring, the vectorized bulk oracle and the sorted
support-set walks -- through it, so the paper's algorithms run unchanged
over Manhattan, Chebyshev, weighted or Mahalanobis geometry.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from functools import reduce
from operator import add
from typing import FrozenSet, Iterable, List, Optional, Sequence, Sized, Tuple

import numpy as np

from .errors import ConfigurationError, RankingError
from .metrics import EUCLIDEAN, Metric
from .points import DataPoint, sort_key

__all__ = [
    "RankingFunction",
    "KthNearestNeighborDistance",
    "NearestNeighborDistance",
    "AverageKNNDistance",
    "NeighborCountWithinRadius",
    "DEFICIT_UNIT",
    "ranking_from_name",
]

#: Penalty unit applied per *missing* neighbor when a point has fewer
#: candidate neighbors than the ranking function requires.  A point with a
#: neighbor deficit is maximally outlying, but a flat ``inf`` score would
#: violate the smoothness axiom (adding one neighbor would not change the
#: score while the deficit persists).  Scoring the deficit as
#: ``(k - available) * DEFICIT_UNIT`` keeps the function anti-monotone *and*
#: smooth: every additional neighbor strictly lowers the score.  The unit is
#: chosen far above any realistic inter-point distance so a deficient point
#: always outranks a non-deficient one.
DEFICIT_UNIT = 1.0e18


def _neighbors(x: DataPoint, Q: Iterable[DataPoint]) -> list[DataPoint]:
    """Candidate neighbors of ``x`` in ``Q``: every point of ``Q`` other than
    ``x`` itself (compared by the ``≺`` key, i.e. by ``rest`` fields)."""
    xkey = sort_key(x)
    return [q for q in Q if sort_key(q) != xkey]


def _sorted_by_distance(
    x: DataPoint, candidates: Sequence[DataPoint], metric: Metric = EUCLIDEAN
) -> list[DataPoint]:
    """Candidates sorted by increasing distance to ``x``; ties broken by the
    fixed total order ``≺`` so that the result is deterministic."""
    dist = metric.distance
    xv = x.values
    return sorted(candidates, key=lambda q: (dist(xv, q.values), sort_key(q)))


def _masked_head(values: Sequence, slots: Sequence[int], subset, k: int) -> Sequence:
    """The first ``k`` entries of ``values`` -- a cached row's distances, or
    its slots -- whose slot is a member of ``subset`` (any slot when
    ``subset`` is ``None``).

    Rows are sorted by ``(distance, ≺)``, so the full-index case is a head
    read and the subset case one masked walk -- no distance is recomputed and
    the order matches the brute-force ``_sorted_by_distance`` exactly.  Every
    k-NN score and support over the index reads its row through this walk.
    """
    if subset is None:
        return values[:k]
    mask = subset.mask
    head = []
    i = 0
    for slot in slots:
        if mask[slot]:
            head.append(values[i])
            if len(head) == k:
                break
        i += 1
    return head


def _left_sum(values: Iterable[float]) -> float:
    """``((v0 + v1) + v2) + ...`` in plain double additions (``values`` must
    not be empty).

    Every :class:`AverageKNNDistance` path adds its ``k`` distances through
    this one chain, and its ``scores_from_distances`` and
    :class:`~repro.core.rescoring.ScoreCache` add numpy columns in the same
    order, so all of them agree bit for bit.  The
    builtin ``sum()`` of floats is compensated since Python 3.12 and may
    round differently.
    """
    return reduce(add, values)


def _with_deficits(scores: np.ndarray, matrix: np.ndarray, k: int) -> List[float]:
    """``scores`` of a k-NN ranking, one per row of ``matrix``, with each
    ``+inf`` one -- a row with fewer than ``k`` finite entries -- replaced
    by that row's deficit score ``(k - finite) · DEFICIT_UNIT``."""
    short = np.isinf(scores)
    if short.any():
        finite = np.isfinite(matrix[short]).sum(axis=1)
        scores[short] = (k - finite) * DEFICIT_UNIT
    return scores.tolist()


def _within_row(row, alpha: float, subset) -> list:
    """Slots of a cached row's neighbors at distance ``<= alpha`` (members of
    ``subset`` when given), via one ``O(log n)`` bisection on the distance
    array: the support walk of :class:`NeighborCountWithinRadius`."""
    dists, slots = row
    cut = bisect.bisect_right(dists, alpha)
    if subset is None:
        return list(slots[:cut])
    mask = subset.mask
    return [slot for slot in slots[:cut] if mask[slot]]


class RankingFunction(ABC):
    """Abstract outlier ranking function.

    Concrete subclasses must implement :meth:`score` and :meth:`support`.
    ``score`` is the ``R(x, Q)`` of the paper, ``support`` is the unique
    smallest support set ``[Q|x]``.
    """

    #: Human-readable name used in plots, tables and the CLI.
    name: str = "abstract"

    #: The metric space the ranking scores in.  A class-level default keeps
    #: user-defined subclasses (which may never call a constructor that sets
    #: it) on the historical Euclidean geometry; the built-in rankings
    #: override it per instance from their ``metric=`` constructor argument.
    metric: Metric = EUCLIDEAN

    def _distance(self, x: DataPoint, q: DataPoint) -> float:
        """``dist(x, q)`` under the configured metric."""
        return self.metric.distance(x.values, q.values)

    def _check_index_metric(self, index) -> None:
        """Reject an index whose cached neighbor lists were sorted under a
        *different* metric: the built-in indexed fast paths read distances
        straight out of the cache, so a mismatch would silently return
        scores in the wrong geometry.  The identity check short-circuits
        every internal path (detectors build index and ranking from the same
        metric instance)."""
        metric = getattr(index, "metric", None)
        if metric is None or self.metric.compatible_with(metric):
            return
        raise RankingError(
            f"index is sorted under metric {metric!r} but the ranking "
            f"scores under {self.metric!r}; build the index with the "
            f"ranking's metric"
        )

    @abstractmethod
    def score(self, x: DataPoint, Q: Iterable[DataPoint]) -> float:
        """Return ``R(x, Q)``: the degree to which ``x`` is an outlier with
        respect to the dataset ``Q``.  Larger means more outlying."""

    @abstractmethod
    def support(self, x: DataPoint, P: Iterable[DataPoint]) -> FrozenSet[DataPoint]:
        """Return the unique smallest support set ``[P|x]``.

        The support set is the smallest ``Q1 ⊆ P`` with
        ``R(x, P) == R(x, Q1)``; minimality is with respect to cardinality and
        then the lexicographic extension of ``≺``.
        """

    def frontier_spec(self) -> Optional[Tuple[str, float]]:
        """Describe which neighbors can perturb ``R(x, Q)`` -- the hook the
        dirty-set rescoring engine (:class:`~repro.core.rescoring.ScoreCache`)
        uses to decide whose cached score a data change invalidates.

        Returns ``("knn", k)`` when the score depends only on the ``k``
        nearest neighbors (so a change at distance beyond the current k-th
        neighbor distance leaves it untouched), ``("radius", alpha)`` when it
        depends only on neighbors within a fixed radius, and ``None`` when
        the structure is unknown -- user-defined ranking functions default to
        ``None`` and the detectors fall back to full rescoring, which is
        always correct.
        """
        return None

    # ------------------------------------------------------------------
    # Index-aware fast paths
    #
    # ``index`` is a :class:`repro.core.index.NeighborhoodIndex` caching every
    # point's neighbor list sorted by ``(distance, ≺)``; ``subset`` is the
    # optional :class:`repro.core.index.IndexSubset` membership mask produced
    # by ``index.try_subset`` (``None`` means "against the whole index").
    # The brute-force :meth:`score` remains the reference oracle; the
    # default indexed implementations below fall back to it so user-defined
    # ranking functions keep working unchanged, while the built-in rankings
    # override with O(k)-per-point walks over the cached sorted lists.
    # ------------------------------------------------------------------
    def score_indexed(self, index, x: DataPoint, subset=None) -> float:
        """``R(x, Q)`` where ``Q`` is the index content filtered by
        ``subset``.  Default: materialise and defer to :meth:`score`."""
        return self.score(x, self._materialize(index, subset))

    def bulk_scores_indexed(
        self, index, points: Sequence[DataPoint], subset=None
    ) -> List[float]:
        """Score each of ``points`` against the index content filtered by
        ``subset`` (each point must itself be indexed)."""
        return [self.score_indexed(index, p, subset) for p in points]

    @staticmethod
    def _materialize(index, subset) -> List[DataPoint]:
        if subset is None:
            return list(index.points())
        return [
            index.point_at(slot)
            for slot, member in enumerate(subset.mask)
            if member
        ]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def bulk_scores(self, Q: Sequence[DataPoint]) -> List[float]:
        """Score every point of ``Q`` against ``Q`` itself, in order.

        The built-in rankings override this with
        ``scores_from_distances(_pairwise_distances(Q))``; the default
        simply loops over :meth:`score`.  Semantically equivalent to
        ``[self.score(p, Q) for p in Q]``.
        """
        return [self.score(p, Q) for p in Q]

    def _pairwise_distances(self, Q: Sequence[DataPoint]) -> "np.ndarray":
        """All-pairs distance matrix over the value vectors, under the
        configured metric's :meth:`~repro.core.metrics.Metric.pairwise`
        kernel.

        Every metric guarantees its kernel is bit-identical to its scalar
        ``distance`` -- the same floats the :meth:`score`/:meth:`support`
        paths and the incremental
        :class:`~repro.core.index.NeighborhoodIndex` see -- because a
        last-ulp disagreement is enough to flip a tie-break and
        desynchronise the indexed and brute-force answers on quantised
        sensor readings (see :mod:`repro.core.metrics`).

        The diagonal and all entries between points that share the same
        ``≺`` key (i.e. copies of the same observation) are set to ``+inf``
        so they are never counted as each other's neighbors, mirroring the
        candidate-exclusion rule of :func:`_neighbors`.
        """
        matrix = self.metric.pairwise([q.values for q in Q])
        np.fill_diagonal(matrix, np.inf)
        # Copies of the same observation (identical ``≺`` keys, e.g. hop
        # variants) must not count as each other's neighbors either.
        groups: dict = {}
        for index, q in enumerate(Q):
            groups.setdefault(sort_key(q), []).append(index)
        for indices in groups.values():
            if len(indices) > 1:
                block = np.ix_(indices, indices)
                matrix[block] = np.inf
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class KthNearestNeighborDistance(RankingFunction):
    """``R(x, Q)`` = distance from ``x`` to its k-th nearest neighbor in ``Q``.

    This is the classic distance-based outlier definition of Ramaswamy et
    al. / Bay & Schwabacher.  If ``Q`` contains fewer than ``k`` candidate
    neighbors the score is the deficit penalty
    ``(k - available) * DEFICIT_UNIT`` (see :data:`DEFICIT_UNIT`).

    *Anti-monotone*: adding points can only bring the k-th neighbor closer (or
    shrink the deficit).  *Smooth*: whenever enlarging the dataset lowered the
    score, one of the new points must itself be a closer neighbor (or shrink
    the deficit), and adding that point alone already lowers the score.
    """

    def __init__(self, k: int = 1, metric: Optional[Metric] = None) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.name = "NN" if self.k == 1 else f"{self.k}-NN"
        self.metric = EUCLIDEAN if metric is None else metric

    def score(self, x: DataPoint, Q: Iterable[DataPoint]) -> float:
        candidates = _neighbors(x, Q)
        if len(candidates) < self.k:
            return (self.k - len(candidates)) * DEFICIT_UNIT
        dists = sorted(self._distance(x, q) for q in candidates)
        return dists[self.k - 1]

    def bulk_scores(self, Q: Sequence[DataPoint]) -> List[float]:
        return self.scores_from_distances(self._pairwise_distances(Q))

    def scores_from_distances(self, matrix: np.ndarray) -> List[float]:
        """One score per row of a distance matrix whose ``+inf`` entries
        are not neighbors: the row's k-th smallest finite entry, the float
        :meth:`score` returns."""
        k = self.k
        if len(matrix) < k:
            kth = np.full(len(matrix), np.inf)
        elif k == 1:
            kth = matrix.min(axis=1)
        else:
            kth = np.partition(matrix, k - 1, axis=1)[:, k - 1]
        return _with_deficits(kth, matrix, k)

    def support(self, x: DataPoint, P: Iterable[DataPoint]) -> FrozenSet[DataPoint]:
        candidates = _sorted_by_distance(x, _neighbors(x, P), self.metric)
        if len(candidates) < self.k:
            # Every candidate is needed to certify that the k-th neighbor does
            # not exist (score stays infinite only if *no* subset has k
            # neighbors, and the smallest such certifying set is all of them).
            return frozenset(candidates)
        return frozenset(candidates[: self.k])

    def _head_score(self, head: Sequence[float]) -> float:
        """``R(x, Q)`` from ``head``: the distances from ``x`` to its first
        ``k`` neighbors in ``Q`` (all of them when ``Q`` has fewer)."""
        if len(head) < self.k:
            return (self.k - len(head)) * DEFICIT_UNIT
        return head[-1]

    def _score_row(self, row, subset) -> float:
        """``R(x, Q)`` from ``x``'s cached row, ``Q`` given by ``subset``."""
        return self._head_score(_masked_head(row[0], row[1], subset, self.k))

    def score_indexed(self, index, x: DataPoint, subset=None) -> float:
        self._check_index_metric(index)
        return self._score_row(index.row_for(x), subset)

    def bulk_scores_indexed(
        self, index, points: Sequence[DataPoint], subset=None
    ) -> List[float]:
        self._check_index_metric(index)
        if subset is not None:
            score_row, row_for = self._score_row, index.row_for
            return [score_row(row_for(p), subset) for p in points]
        k, row_for, deficit = self.k, index.row_for, DEFICIT_UNIT
        return [
            dists[k - 1]
            if len(dists := row_for(p)[0]) >= k
            else (k - len(dists)) * deficit
            for p in points
        ]

    def frontier_spec(self) -> Tuple[str, float]:
        return ("knn", self.k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KthNearestNeighborDistance(k={self.k})"


class NearestNeighborDistance(KthNearestNeighborDistance):
    """Distance to the nearest neighbor (``NN`` in the paper's plots)."""

    def __init__(self, metric: Optional[Metric] = None) -> None:
        super().__init__(k=1, metric=metric)


class AverageKNNDistance(RankingFunction):
    """``R(x, Q)`` = average distance from ``x`` to its k nearest neighbors.

    This is the ``KNN`` ranking function of the paper's evaluation (Angiulli &
    Pizzuti).  If fewer than ``k`` candidate neighbors exist the score is the
    deficit penalty ``(k - available) * DEFICIT_UNIT``.
    """

    def __init__(self, k: int = 4, metric: Optional[Metric] = None) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.name = f"KNN(k={self.k})"
        self.metric = EUCLIDEAN if metric is None else metric

    def score(self, x: DataPoint, Q: Iterable[DataPoint]) -> float:
        candidates = _neighbors(x, Q)
        if len(candidates) < self.k:
            return (self.k - len(candidates)) * DEFICIT_UNIT
        dists = sorted(self._distance(x, q) for q in candidates)
        return _left_sum(dists[: self.k]) / self.k

    def bulk_scores(self, Q: Sequence[DataPoint]) -> List[float]:
        return self.scores_from_distances(self._pairwise_distances(Q))

    def scores_from_distances(self, matrix: np.ndarray) -> List[float]:
        """One score per row of a distance matrix whose ``+inf`` entries
        are not neighbors: the float :meth:`score` returns."""
        k = self.k
        if len(matrix) < k:
            return _with_deficits(np.full(len(matrix), np.inf), matrix, k)
        head = np.sort(np.partition(matrix, k - 1, axis=1)[:, :k], axis=1)
        # Column by column, left to right: the :func:`_left_sum` chain, not
        # numpy's sum(), whose pairwise summation from 8 terms on can round
        # differently in the last ulp and flip a tie-break.
        total = head[:, 0].copy()
        for column in range(1, k):
            total += head[:, column]
        return _with_deficits(total / k, matrix, k)

    def support(self, x: DataPoint, P: Iterable[DataPoint]) -> FrozenSet[DataPoint]:
        candidates = _sorted_by_distance(x, _neighbors(x, P), self.metric)
        if len(candidates) < self.k:
            return frozenset(candidates)
        return frozenset(candidates[: self.k])

    def _head_score(self, head: Sequence[float]) -> float:
        """``R(x, Q)`` from ``head``: the distances from ``x`` to its first
        ``k`` neighbors in ``Q`` (all of them when ``Q`` has fewer)."""
        if len(head) < self.k:
            return (self.k - len(head)) * DEFICIT_UNIT
        return _left_sum(head) / self.k

    def _score_row(self, row, subset) -> float:
        """``R(x, Q)`` from ``x``'s cached row, ``Q`` given by ``subset``."""
        return self._head_score(_masked_head(row[0], row[1], subset, self.k))

    def score_indexed(self, index, x: DataPoint, subset=None) -> float:
        self._check_index_metric(index)
        return self._score_row(index.row_for(x), subset)

    def bulk_scores_indexed(
        self, index, points: Sequence[DataPoint], subset=None
    ) -> List[float]:
        self._check_index_metric(index)
        if subset is not None:
            score_row, row_for = self._score_row, index.row_for
            return [score_row(row_for(p), subset) for p in points]
        k, row_for, deficit = self.k, index.row_for, DEFICIT_UNIT
        return [
            _left_sum(dists[:k]) / k
            if len(dists := row_for(p)[0]) >= k
            else (k - len(dists)) * deficit
            for p in points
        ]

    def frontier_spec(self) -> Tuple[str, float]:
        return ("knn", self.k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AverageKNNDistance(k={self.k})"


class NeighborCountWithinRadius(RankingFunction):
    """``R(x, Q)`` = ``1 / (1 + |{q ∈ Q : dist(x, q) <= α}|)``.

    The inverse of the number of neighbors within distance ``α`` (Knorr & Ng
    distance-based outliers).  The ``1 +`` in the denominator keeps the score
    finite for isolated points while preserving the ordering.

    *Anti-monotone*: the neighbor count can only grow as ``Q`` grows, so the
    score can only shrink.  *Smooth*: if the score dropped, some new point is
    within ``α`` of ``x`` and adding it alone already drops the score.
    """

    def __init__(self, alpha: float, metric: Optional[Metric] = None) -> None:
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ConfigurationError(f"alpha must be a positive finite number, got {alpha}")
        self.alpha = float(alpha)
        self.name = f"COUNT(alpha={self.alpha:g})"
        self.metric = EUCLIDEAN if metric is None else metric

    def _within(self, x: DataPoint, Q: Iterable[DataPoint]) -> list[DataPoint]:
        return [q for q in _neighbors(x, Q) if self._distance(x, q) <= self.alpha]

    def score(self, x: DataPoint, Q: Iterable[DataPoint]) -> float:
        return 1.0 / (1.0 + len(self._within(x, Q)))

    def bulk_scores(self, Q: Sequence[DataPoint]) -> List[float]:
        return self.scores_from_distances(self._pairwise_distances(Q))

    def scores_from_distances(self, matrix: np.ndarray) -> List[float]:
        """One score per row of a distance matrix whose ``+inf`` entries
        are not neighbors: the float :meth:`score` returns."""
        within = (matrix <= self.alpha).sum(axis=1)
        return (1.0 / (1.0 + within)).tolist()

    def support(self, x: DataPoint, P: Iterable[DataPoint]) -> FrozenSet[DataPoint]:
        # The score depends only on the set of within-α neighbors, and every
        # support set must contain all of them (dropping any one changes the
        # count), so the minimal support set is exactly that set.
        return frozenset(self._within(x, P))

    def _head_score(self, head: Sized) -> float:
        """``R(x, Q)`` from ``head``: ``x``'s neighbors in ``Q`` within ``α``
        (only their number matters)."""
        return 1.0 / (1.0 + len(head))

    def score_indexed(self, index, x: DataPoint, subset=None) -> float:
        self._check_index_metric(index)
        head = _within_row(index.row_for(x), self.alpha, subset)
        return self._head_score(head)

    def frontier_spec(self) -> Tuple[str, float]:
        return ("radius", self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NeighborCountWithinRadius(alpha={self.alpha!r})"


#: The built-in rankings.  The kernels that score a point without calling
#: ``score`` -- the slot fixpoint of :mod:`repro.core.sufficient`, the bulk
#: rescoring of :class:`~repro.core.rescoring.ScoreCache` and the
#: centralized sink's ``scores_from_distances`` -- match these by exact
#: type: a subclass may override ``score``.
_BUILTIN_RANKINGS = (
    NearestNeighborDistance,
    KthNearestNeighborDistance,
    AverageKNNDistance,
    NeighborCountWithinRadius,
)


_RANKING_FACTORIES = {
    "nn": lambda k=1, alpha=None, metric=None: NearestNeighborDistance(metric=metric),
    "knn": lambda k=4, alpha=None, metric=None: AverageKNNDistance(k=k, metric=metric),
    "kth-nn": lambda k=4, alpha=None, metric=None: KthNearestNeighborDistance(
        k=k, metric=metric
    ),
    "count": lambda k=None, alpha=1.0, metric=None: NeighborCountWithinRadius(
        alpha=alpha, metric=metric
    ),
}


def ranking_from_name(
    name: str, k: int = 4, alpha: float = 1.0, metric: Optional[Metric] = None
) -> RankingFunction:
    """Build a ranking function from a short name.

    Recognised names (case-insensitive): ``"nn"``, ``"knn"``, ``"kth-nn"``,
    ``"count"``.  ``k`` applies to the k-NN family, ``alpha`` to ``"count"``.
    ``metric`` selects the metric space the ranking scores in (default:
    Euclidean, see :mod:`repro.core.metrics`).
    """
    try:
        factory = _RANKING_FACTORIES[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown ranking function {name!r}; expected one of "
            f"{sorted(_RANKING_FACTORIES)}"
        ) from None
    return factory(k=k, alpha=alpha, metric=metric)
