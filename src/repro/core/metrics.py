"""Pluggable metric spaces: the distance function under every detector.

The paper (Section 4.1) defines its detectors over an abstract data space
``D`` equipped with *any* distance function; the distance-based ranking
family it instantiates (k-th-NN distance, average-kNN, count-within-radius)
only ever looks at the data through ``dist(x, q)``.  This module makes that
metric a first-class component: a :class:`Metric` bundles the pointwise
``distance(a, b)`` with two vectorized kernels -- ``rows(x, X)`` (one
distance row) and ``pairwise(X)`` (the full distance matrix) -- and a name
registry (:func:`metric_from_name`) so configurations can select a metric by
string.  Metrics operate on raw value vectors (tuples or arrays of floats),
never on :class:`~repro.core.points.DataPoint` objects, so this module sits
below every other layer of :mod:`repro.core`.

Bit-exactness contract
----------------------
The detectors' correctness proofs assume every sensor computes ``O_n(P_i)``
*exactly*, and the incremental :class:`~repro.core.index.NeighborhoodIndex`
is validated against the brute-force oracle by bitwise comparison -- so a
metric must return the *same float* for the same pair on every code path.
A single last-ulp disagreement on a mathematically tied distance flips the
``≺`` tie-break and desynchronises indexed and brute-force transcripts.
Each metric therefore fixes one canonical arithmetic:

* :class:`EuclideanMetric` computes every entry with :func:`math.dist` --
  the function the seed implementation used on all paths -- so the default
  metric is bit-identical to the historical behavior.  Its kernels map
  ``math.dist`` over one row at a time by design: a vectorised
  ``sqrt(((a-b)**2).sum())`` differs from ``math.dist`` (which scales to
  avoid overflow) in the last ulp.  ``math.dist`` is symmetric, so
  ``pairwise`` computes each unordered pair once and mirrors it.
* Every other metric derives from :class:`VectorizedMetric`, whose three
  entry points all reshape their differences into one shared reduction over
  a C-contiguous ``(rows, dimension)`` array.  Because numpy's
  pairwise-summation cutover depends only on the reduction length, the
  pointwise, row and matrix paths produce identical floats by construction.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, RankingError

__all__ = [
    "Metric",
    "VectorizedMetric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "WeightedEuclideanMetric",
    "MahalanobisMetric",
    "EUCLIDEAN",
    "metric_from_name",
    "registered_metrics",
]

#: A value vector: the ``values`` tuple of a data point (or any float row).
Vector = Sequence[float]


class Metric(ABC):
    """A distance function over value vectors, with vectorized kernels.

    Concrete metrics guarantee that :meth:`distance`, :meth:`rows` and
    :meth:`pairwise` agree *bitwise* on identical pairs (see the module
    docstring); callers may mix the scalar and kernel paths freely.
    """

    #: Registry name (what :func:`metric_from_name` takes).
    name: str = "abstract"

    @abstractmethod
    def distance(self, a: Vector, b: Vector) -> float:
        """``dist(a, b)``: the distance between two value vectors."""

    @abstractmethod
    def rows(self, x: Vector, X: Sequence[Vector]) -> np.ndarray:
        """One distance row: ``[dist(x, q) for q in X]`` as a 1-d array."""

    @abstractmethod
    def pairwise(self, X: Sequence[Vector]) -> np.ndarray:
        """The full ``(n, n)`` distance matrix over ``X`` (zero diagonal)."""

    def cross(self, A: Sequence[Vector], B: Sequence[Vector]) -> np.ndarray:
        """The ``(len(A), len(B))`` distance block between two vector sets.

        The centralized sink's arrival kernel: one call yields the distances
        from every point of an arrival batch ``A`` to every held point
        ``B``.  The default stacks one :meth:`rows` call per left-hand
        vector, so the block is bitwise-identical to the rows by
        construction; vectorized metrics override it with a single shared
        reduction (same guarantee, one kernel dispatch).
        """
        block = [self.rows(a, B) for a in A]
        if not block:
            return np.zeros((0, len(B)))
        return np.stack(block)

    def params(self) -> Tuple[Tuple[str, object], ...]:
        """Canonical ``(name, value)`` parameter pairs of this instance."""
        return ()

    def validate_dimension(self, dimension: int) -> None:
        """Raise :class:`~repro.core.errors.RankingError` when this metric
        cannot measure ``dimension``-dimensional vectors (a parameterised
        metric whose weights/covariance are sized differently).  The default
        accepts any dimension.  Configuration layers that know their
        workload's dimensionality call this eagerly so the mismatch fails at
        construction time instead of mid-run."""

    def compatible_with(self, other: "Metric") -> bool:
        """Whether two metric instances define the same distance function
        (same registry name and parameters)."""
        return other is self or (
            self.name == other.name and self.params() == other.params()
        )

    @staticmethod
    def _check_dimensions(da: int, db: int) -> None:
        if da != db:
            raise RankingError(f"dimension mismatch: {da} != {db}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params())
        return f"{type(self).__name__}({rendered})"


class EuclideanMetric(Metric):
    """Euclidean distance, computed entry-by-entry with :func:`math.dist`.

    This is the repository's historical (and default) metric.  Every kernel
    is the ``math.dist`` row kernel, ``fromiter(map(math.dist, repeat(x),
    X))``: :meth:`rows` is one row, :meth:`cross` stacks one row per
    left-hand point, and :meth:`pairwise` fills each row's upper part and
    mirrors it into the column.  ``math.dist`` uses a scaled
    algorithm whose rounding a vectorised numpy recipe cannot reproduce
    exactly, and the default metric must stay bit-identical to the seed
    implementation so that every existing figure table, stored sweep result
    and tie-break is unchanged.
    """

    name = "euclidean"

    def distance(self, a: Vector, b: Vector) -> float:
        self._check_dimensions(len(a), len(b))
        return math.dist(a, b)

    def rows(self, x: Vector, X: Sequence[Vector]) -> np.ndarray:
        # ``fromiter(map(...))`` runs the whole row at C level; the floats
        # are the very same ``math.dist`` results the seed produced.
        try:
            return np.fromiter(
                map(math.dist, repeat(x), X), dtype=float, count=len(X)
            )
        except ValueError as error:  # math.dist's dimension mismatch
            raise RankingError(str(error)) from None

    def pairwise(self, X: Sequence[Vector]) -> np.ndarray:
        # Each unordered pair once: row i's distances to the points after
        # it, mirrored into column i.  ``math.dist`` is symmetric and
        # ``dist(a, a) == 0.0``, so this is bitwise the matrix that stacking
        # one full row per point would give.
        points = list(X)
        size = len(points)
        matrix = np.zeros((size, size))
        for i in range(size - 1):
            row = self.rows(points[i], points[i + 1:])
            matrix[i, i + 1:] = row
            matrix[i + 1:, i] = row
        return matrix


class VectorizedMetric(Metric):
    """Base class for metrics defined by one shared numpy reduction.

    Subclasses implement :meth:`_reduce`, mapping a C-contiguous
    ``(rows, dimension)`` difference array to a 1-d array of distances.
    ``distance``, ``rows`` and ``pairwise`` all funnel through that single
    reduction (reshaping as needed), which is what makes the three paths
    bitwise-identical regardless of batch shape.
    """

    @abstractmethod
    def _reduce(self, diffs: np.ndarray) -> np.ndarray:
        """Distances for each row of a ``(rows, dimension)`` array."""

    def distance(self, a: Vector, b: Vector) -> float:
        self._check_dimensions(len(a), len(b))
        self.validate_dimension(len(a))
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(self._reduce(np.ascontiguousarray(diff.reshape(1, -1)))[0])

    def rows(self, x: Vector, X: Sequence[Vector]) -> np.ndarray:
        others = np.asarray(list(X), dtype=float)
        if others.size == 0:
            return np.zeros(0)
        self._check_dimensions(len(x), others.shape[1])
        self.validate_dimension(others.shape[1])
        diffs = np.asarray(x, dtype=float)[None, :] - others
        return self._reduce(np.ascontiguousarray(diffs))

    def pairwise(self, X: Sequence[Vector]) -> np.ndarray:
        points = np.asarray(list(X), dtype=float)
        size = len(points)
        if size == 0:
            return np.zeros((0, 0))
        dimension = points.shape[1]
        self.validate_dimension(dimension)
        diffs = points[:, None, :] - points[None, :, :]
        flat = np.ascontiguousarray(diffs.reshape(size * size, dimension))
        return self._reduce(flat).reshape(size, size)

    def cross(self, A: Sequence[Vector], B: Sequence[Vector]) -> np.ndarray:
        left = np.asarray(list(A), dtype=float)
        right = np.asarray(list(B), dtype=float)
        if left.size == 0 or right.size == 0:
            return np.zeros((len(left), len(right)))
        self._check_dimensions(left.shape[1], right.shape[1])
        self.validate_dimension(left.shape[1])
        diffs = left[:, None, :] - right[None, :, :]
        flat = np.ascontiguousarray(
            diffs.reshape(len(left) * len(right), left.shape[1])
        )
        return self._reduce(flat).reshape(len(left), len(right))


class ManhattanMetric(VectorizedMetric):
    """L1 (city-block) distance: ``sum_i |a_i - b_i|``."""

    name = "manhattan"

    def _reduce(self, diffs: np.ndarray) -> np.ndarray:
        return np.abs(diffs).sum(axis=1)


class ChebyshevMetric(VectorizedMetric):
    """L-infinity distance: ``max_i |a_i - b_i|``."""

    name = "chebyshev"

    def _reduce(self, diffs: np.ndarray) -> np.ndarray:
        return np.abs(diffs).max(axis=1)


class WeightedEuclideanMetric(VectorizedMetric):
    """Anisotropic Euclidean distance: ``sqrt(sum_i w_i (a_i - b_i)^2)``.

    The weights rescale each attribute's contribution -- e.g. emphasising
    the sensed reading over the deployment coordinates, or normalising
    channels with very different physical units.  All weights must be
    positive and finite (a zero weight would collapse the metric to a
    pseudometric and break the identity axiom the support-set minimality
    argument relies on).
    """

    name = "weighted-euclidean"

    def __init__(self, weights: Iterable[float]) -> None:
        frozen = tuple(float(w) for w in weights)
        if not frozen:
            raise ConfigurationError("weighted-euclidean needs at least one weight")
        for weight in frozen:
            if not (weight > 0 and math.isfinite(weight)):
                raise ConfigurationError(
                    f"weights must be positive finite numbers, got {frozen}"
                )
        self.weights = frozen
        self._w = np.asarray(frozen)

    def params(self) -> Tuple[Tuple[str, object], ...]:
        return (("weights", self.weights),)

    def validate_dimension(self, dimension: int) -> None:
        if dimension != len(self.weights):
            raise RankingError(
                f"weighted-euclidean has {len(self.weights)} weight(s) but the "
                f"points are {dimension}-dimensional"
            )

    def _reduce(self, diffs: np.ndarray) -> np.ndarray:
        return np.sqrt((diffs * diffs * self._w).sum(axis=1))


class MahalanobisMetric(VectorizedMetric):
    """Mahalanobis distance: ``sqrt((a-b)^T C^{-1} (a-b))``.

    ``cov`` must be a symmetric positive-definite matrix (validated eagerly
    via a Cholesky factorisation); its inverse is precomputed once.  The
    quadratic form is evaluated as an elementwise outer-product expansion
    reduced by one ``sum(axis=1)`` over a contiguous ``(rows, d*d)`` array:
    unlike ``einsum``/BLAS contractions (whose accumulation interleaving
    varies with the batch size in the last ulp), that reduction's per-row
    summation order depends only on ``d``, preserving the bit-exactness
    contract.
    """

    name = "mahalanobis"

    def __init__(self, cov: Sequence[Sequence[float]]) -> None:
        frozen = tuple(tuple(float(v) for v in row) for row in cov)
        matrix = np.asarray(frozen)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
            raise ConfigurationError(
                f"cov must be a non-empty square matrix, got shape {matrix.shape}"
            )
        if not np.isfinite(matrix).all() or not np.array_equal(matrix, matrix.T):
            raise ConfigurationError("cov must be finite and symmetric")
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            raise ConfigurationError("cov must be positive definite") from None
        self.cov = frozen
        self._vi_flat = np.ascontiguousarray(np.linalg.inv(matrix).reshape(-1))

    def params(self) -> Tuple[Tuple[str, object], ...]:
        return (("cov", self.cov),)

    def validate_dimension(self, dimension: int) -> None:
        if dimension != len(self.cov):
            raise RankingError(
                f"mahalanobis covariance is {len(self.cov)}x{len(self.cov)} but "
                f"the points are {dimension}-dimensional"
            )

    def _reduce(self, diffs: np.ndarray) -> np.ndarray:
        rows, dimension = diffs.shape
        outer = (diffs[:, :, None] * diffs[:, None, :]).reshape(
            rows, dimension * dimension
        )
        quad = (outer * self._vi_flat).sum(axis=1)
        # Rounding can push a mathematically-zero quadratic form a few ulps
        # negative; clamp so sqrt never produces NaN.
        return np.sqrt(np.maximum(quad, 0.0))


#: Module-level singleton: the default metric of every ranking function,
#: index and configuration (and the only one the seed implementation had).
EUCLIDEAN = EuclideanMetric()

_MANHATTAN = ManhattanMetric()
_CHEBYSHEV = ChebyshevMetric()

_METRIC_FACTORIES = {
    "euclidean": lambda: EUCLIDEAN,
    "manhattan": lambda: _MANHATTAN,
    "chebyshev": lambda: _CHEBYSHEV,
    "weighted-euclidean": WeightedEuclideanMetric,
    "mahalanobis": MahalanobisMetric,
}


def registered_metrics() -> List[str]:
    """Names accepted by :func:`metric_from_name`, sorted."""
    return sorted(_METRIC_FACTORIES)


def metric_from_name(name: str, **params: object) -> Metric:
    """Build a metric from a registry name plus keyword parameters.

    Recognised names (case-insensitive): ``"euclidean"``, ``"manhattan"``,
    ``"chebyshev"``, ``"weighted-euclidean"`` (requires ``weights``) and
    ``"mahalanobis"`` (requires ``cov``).  Unknown names, missing or
    unexpected parameters, and invalid parameter values all raise
    :class:`~repro.core.errors.ConfigurationError` -- misconfiguration fails
    at construction time, never deep inside a run.
    """
    try:
        factory = _METRIC_FACTORIES[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; expected one of {registered_metrics()}"
        ) from None
    try:
        return factory(**params)
    except (TypeError, ValueError):
        # ValueError covers unparseable values and numpy's LinAlgError (a
        # singular or non-square covariance).
        raise ConfigurationError(
            f"invalid parameters for metric {name!r}: {params!r}"
        ) from None
