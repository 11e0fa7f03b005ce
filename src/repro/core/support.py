"""Support-set computations ``[P|x]`` and ``[P|Q]`` (Section 5.2).

A *support set* of ``x`` over ``P`` is any ``Q1 ⊆ P`` with
``R(x, P) = R(x, Q1)``: the remaining points of ``P`` can be discarded
without changing how outlying ``x`` looks.  The paper uses the unique
*smallest* support set, written ``[P|x]`` (cardinality first, then the
lexicographic extension of the tie-break order ``≺``), and extends it to sets
of query points: ``[P|Q] = ∪_{x∈Q} [P|x]``.

The heavy lifting is delegated to the ranking function (each concrete
``R`` knows its own minimal support set in closed form); this module provides
the set-level wrappers plus a generic validity check used by the test-suite.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

from .points import DataPoint
from .ranking import RankingFunction

__all__ = ["support_set", "support_of_set", "is_support_set"]


def support_set(
    ranking: RankingFunction, x: DataPoint, P: Iterable[DataPoint]
) -> FrozenSet[DataPoint]:
    """Return the unique smallest support set ``[P|x]``."""
    return ranking.support(x, P)


def support_of_set(
    ranking: RankingFunction,
    Q: Iterable[DataPoint],
    P: Iterable[DataPoint],
) -> Set[DataPoint]:
    """Return ``[P|Q] = ∪_{x∈Q} [P|x]``.

    ``P`` is materialised once so that it may be any iterable.  The
    detectors read supports off their index's cached rows instead (see
    :class:`~repro.core.sufficient.SlotFixpoint`).
    """
    P_list = list(P)
    result: Set[DataPoint] = set()
    for x in Q:
        result |= ranking.support(x, P_list)
    return result


def is_support_set(
    ranking: RankingFunction,
    x: DataPoint,
    candidate: Iterable[DataPoint],
    P: Iterable[DataPoint],
) -> bool:
    """Check whether ``candidate ⊆ P`` is a (not necessarily minimal) support
    set of ``x`` over ``P``: ``R(x, P) == R(x, candidate)``.

    Used by the property-based tests to validate the closed-form supports
    returned by the ranking functions.
    """
    cand = set(candidate)
    P_set = set(P)
    if not cand <= P_set:
        return False
    return ranking.score(x, P_set) == ranking.score(x, cand)
