"""Top-n outlier selection ``O_n(D)`` (Section 4.1).

Given a ranking function ``R`` and a user parameter ``n``, the outliers of a
finite dataset ``D`` are the ``n`` points with the largest ``R(x, D)``; ties
are broken by the fixed total order ``≺`` so that the answer is unique.  When
``|D| < n`` the whole dataset is returned, as the paper specifies.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from .errors import ConfigurationError
from .points import DataPoint, sort_key
from .ranking import RankingFunction

__all__ = ["top_n_outliers", "ranked_points", "OutlierQuery"]


def ranked_points(
    ranking: RankingFunction,
    D: Iterable[DataPoint],
    index=None,
) -> List[Tuple[float, DataPoint]]:
    """Return ``(score, point)`` pairs for every point of ``D`` scored against
    ``D`` itself, sorted from most to least outlying (ties broken by ``≺``,
    larger key first, so the order is a strict total order).

    When a :class:`~repro.core.index.NeighborhoodIndex` covering ``D`` is
    supplied, scores are read from its cached sorted-neighbor lists instead
    of rebuilding the pairwise-distance matrix; otherwise (or when some point
    of ``D`` is not indexed) the brute-force oracle is used.
    """
    points = list(D)
    scores = None
    if index is not None and points:
        covered, subset = index.try_subset(points)
        if covered:
            scores = ranking.bulk_scores_indexed(index, points, subset)
    if scores is None:
        scores = ranking.bulk_scores(points)
    # Sort on materialised (score, ≺-key, point) triples: a key-function-free
    # sort is measurably faster on the per-event hot path, and the ordering
    # is identical (the point itself only breaks full ties, where ``≺``
    # comparison falls back to the stable input order either way).
    triples = sorted(
        zip(scores, (sort_key(p) for p in points), points), reverse=True
    )
    return [(score, point) for score, _, point in triples]


def top_n_outliers(
    ranking: RankingFunction,
    D: Iterable[DataPoint],
    n: int,
    index=None,
) -> List[DataPoint]:
    """Return ``O_n(D)``: the top ``n`` outliers of ``D`` under ``ranking``.

    The result is ordered from most to least outlying.  If ``D`` has fewer
    than ``n`` points, all of them are returned (still ordered).  ``index``
    is forwarded to :func:`ranked_points`.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    scored = ranked_points(ranking, D, index=index)
    return [p for _, p in scored[:n]] if n else []


class OutlierQuery:
    """Convenience object bundling a ranking function with the outlier count.

    The detectors take an :class:`OutlierQuery` so that the pair
    ``(R, n)`` -- which every sensor must agree on -- travels together.
    """

    def __init__(self, ranking: RankingFunction, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"number of outliers n must be >= 1, got {n}")
        self.ranking = ranking
        self.n = int(n)

    def outliers(self, D: Iterable[DataPoint], index=None) -> List[DataPoint]:
        """``O_n(D)`` as an ordered list (most outlying first)."""
        return top_n_outliers(self.ranking, D, self.n, index=index)

    def outlier_set(self, D: Iterable[DataPoint], index=None) -> Set[DataPoint]:
        """``O_n(D)`` as a set (order-free comparisons)."""
        return set(self.outliers(D, index=index))

    def score(self, x: DataPoint, D: Iterable[DataPoint]) -> float:
        """``R(x, D)`` under the query's ranking function."""
        return self.ranking.score(x, D)

    def support(self, x: DataPoint, P: Iterable[DataPoint]):
        """``[P|x]`` under the query's ranking function."""
        return self.ranking.support(x, P)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutlierQuery(ranking={self.ranking!r}, n={self.n})"
