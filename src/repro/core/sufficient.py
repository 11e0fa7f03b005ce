"""Sufficient-set computation (equations (1)/(2) of the paper).

Before sensor ``p_i`` messages a neighbor ``p_j`` it computes a *sufficient
set* ``Z_j ⊆ P_i``: a set of points which, if known to ``p_j``, guarantees
that ``p_j`` could not improve ``p_i``'s current estimate without telling
``p_i`` about it.  Formally ``Z_j`` must satisfy

    (O_n(P_i) ∪ [P_i | O_n(P_i)])
        ∪ [P_i | O_n(D_{i,j} ∪ D_{j,i} ∪ Z_j)]  ⊆  Z_j        (eq. 2)

where ``D_{i,j}``/``D_{j,i}`` are the points ``p_i`` has already sent to /
received from ``p_j``.  The algorithm of the paper builds ``Z_j`` by a
fixpoint iteration:

    Z_j := O_n(P_i) ∪ [P_i | O_n(P_i)]
    repeat until no change:
        Z_j := Z_j ∪ [P_i | O_n(D_{i,j} ∪ D_{j,i} ∪ Z_j)]

which terminates because ``Z_j`` only grows and is bounded by the finite
``P_i``.  Only ``Z_j \\ (D_{i,j} ∪ D_{j,i})`` is actually transmitted.

:func:`compute_sufficient_set` states the fixpoint over
:class:`~repro.core.points.DataPoint` sets without any index; the
brute-force oracle and the detectors' capability fallback run it.  The
detectors' production path is :class:`SlotFixpoint`, the same fixpoint on
the slot ids of the sensor's
:class:`~repro.core.index.NeighborhoodIndex`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, count
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from .outliers import OutlierQuery
from .ranking import _BUILTIN_RANKINGS, _masked_head, _within_row
from .support import support_of_set

__all__ = [
    "compute_sufficient_set",
    "index_free_fixpoint",
    "satisfies_sufficiency",
    "SlotFixpoint",
]


def compute_sufficient_set(
    query: OutlierQuery,
    holdings: Iterable,
    known_shared: Iterable,
) -> Set:
    """Compute a set ``Z`` satisfying eq. (2).

    Parameters
    ----------
    query:
        The ``(R, n)`` outlier query shared by all sensors.
    holdings:
        ``P_i`` -- every point the sensor currently holds.
    known_shared:
        ``D_{i,j} ∪ D_{j,i}`` -- the points the sensor already knows it has in
        common with the neighbor under consideration.

    Returns
    -------
    set
        A sufficient set ``Z ⊆ P_i`` (not necessarily the smallest one --
        the paper's algorithm does not require minimality).
    """
    P = list(holdings)
    shared = frozenset(known_shared)
    ranking = query.ranking
    estimate = query.outliers(P)
    Z: Set = set(estimate) | support_of_set(ranking, estimate, P)
    while True:
        closure = support_of_set(ranking, query.outliers(shared | Z), P)
        if closure <= Z:
            return Z
        Z |= closure


def index_free_fixpoint(
    query: OutlierQuery,
    index,
    holdings: Sequence,
    shared: FrozenSet[int],
    target: Optional[FrozenSet[int]] = None,
) -> FrozenSet[int]:
    """:func:`compute_sufficient_set` with slot ids in and out: ``shared``
    and the returned ``Z`` are slots of ``index``, which holds every point
    of ``holdings``.  The detectors run it for the rankings
    :class:`SlotFixpoint` does not serve.  It always returns the full
    fixpoint, which meets :meth:`SlotFixpoint.run`'s contract for any
    ``target``."""
    Z = compute_sufficient_set(query, holdings, map(index.point_at, shared))
    return frozenset(map(index.slot_for, Z))


def satisfies_sufficiency(
    query: OutlierQuery,
    Z: Iterable,
    holdings: Iterable,
    known_shared: Iterable,
) -> bool:
    """Check that ``Z`` satisfies eq. (2) -- used by the test-suite.

    The check evaluates both halves of the containment:

    * the sensor's own estimate and its support are inside ``Z``;
    * the support (within ``P_i``) of the outliers of
      ``D_{i,j} ∪ D_{j,i} ∪ Z`` is inside ``Z``.
    """
    P = list(holdings)
    Z_set = set(Z)
    shared = set(known_shared)

    estimate = query.outliers(P)
    first = set(estimate) | support_of_set(query.ranking, estimate, P)
    if not first <= Z_set:
        return False

    combined = shared | Z_set
    second = support_of_set(query.ranking, query.outliers(combined), P)
    return second <= Z_set


class SlotFixpoint:
    """Eq. 2's fixpoint for one ``P`` during one protocol event, on the slot
    ids of a :class:`~repro.core.index.NeighborhoodIndex`.

    ``P`` is the index content filtered by ``subset`` (an
    :class:`~repro.core.index.IndexSubset`, or ``None`` for the whole
    index), ``estimate`` the slots of ``O_n(P)``, and every set the
    fixpoint handles -- the shared set, ``Z``, the scored ``C`` -- is a
    frozenset of slot ids.  ``O_n(C)`` walks each member's cached row,
    testing ``slot in C``, and breaks score ties on the index's cached ``≺``
    keys; ``[P|x]`` walks ``x``'s row under ``P``'s membership mask.  The
    ranking turns each walk's head into a score, so the sets equal
    :func:`compute_sufficient_set`'s on the points behind the slots.

    Two memos carry work across the fixpoints of one event; neither may
    outlive it.  ``outlier_memo`` maps ``C`` to ``O_n(C)``, which depends
    only on ``C``, so one dict serves every neighbor and hop level (and
    learns ``O_n(P) = estimate`` here).  The support memo maps ``x`` to
    ``[P|x]``, which depends on ``P``, so each instance keeps its own.

    Precondition: ``type(query.ranking)`` is a built-in ranking (see
    :meth:`handles`).  The index holds one copy per observation, so no two
    slots share a ``≺`` key and the ``(score, ≺)`` order has no full ties.
    An index sorted under another metric than the ranking's is rejected
    with :class:`~repro.core.errors.RankingError`.
    """

    __slots__ = (
        "query",
        "index",
        "subset",
        "start",
        "_size",
        "_outliers",
        "_supports",
        "_k",
        "_alpha",
        "_head_score",
    )

    def __init__(
        self,
        query: OutlierQuery,
        index,
        subset,
        estimate: Sequence[int],
        outlier_memo: Dict[FrozenSet[int], Tuple[int, ...]],
    ) -> None:
        ranking = query.ranking
        ranking._check_index_metric(index)
        self.query = query
        self.index = index
        self.subset = subset
        self._outliers = outlier_memo
        self._supports: Dict[int, FrozenSet[int]] = {}
        # [P|x] is the head of x's row: its first k members, or every
        # member within alpha.
        kind, param = ranking.frontier_spec()
        self._k, self._alpha = (param, None) if kind == "knn" else (None, param)
        self._head_score = ranking._head_score
        if subset is None:
            members = index.occupied_slots()
        else:
            members = frozenset(compress(count(), subset.mask))
        self._size = len(members)
        outlier_memo.setdefault(members, tuple(estimate))
        #: ``Z_0 = O_n(P) ∪ [P|O_n(P)]``, shared by every neighbor's run.
        self.start: FrozenSet[int] = frozenset(estimate).union(
            *map(self.support, estimate)
        )

    @staticmethod
    def handles(ranking) -> bool:
        """Whether the kernel scores ``ranking`` (exact built-in types)."""
        return type(ranking) in _BUILTIN_RANKINGS

    def run(
        self, shared: FrozenSet[int], target: Optional[FrozenSet[int]] = None
    ) -> FrozenSet[int]:
        """``Z`` for one neighbor whose shared set is ``shared``.

        Every ``[P|x]`` lies in ``P``, so once ``Z`` holds all of ``P`` an
        iteration could only confirm it: a start set that already covers
        ``P`` is returned without scoring anything.

        With a ``target``, the run stops as soon as ``Z`` covers it.  ``Z``
        only grows, so the returned set is a subset of the full fixpoint
        and agrees with it on ``target``: it holds all of ``target`` when
        the full ``Z`` does, and is the full ``Z`` otherwise.  Such a
        bounded ``Z`` need not satisfy eq. 2; it serves a caller that reads
        only ``Z ∩ target`` (an empty ``target`` returns :attr:`start`).
        """
        Z = self.start
        size = self._size
        support = self.support
        while len(Z) < size:
            if target is not None and target <= Z:
                break
            grown = Z.union(*map(support, self.outliers(shared | Z)))
            if len(grown) == len(Z):
                break
            Z = grown
        return Z

    def support(self, x: int) -> FrozenSet[int]:
        """``[P|x]``: ``x``'s row walked under ``P``'s membership mask."""
        support = self._supports.get(x)
        if support is None:
            row = self.index.row_at(x)
            if self._k is not None:
                head = _masked_head(row[1], row[1], self.subset, self._k)
            else:
                head = _within_row(row, self._alpha, self.subset)
            support = self._supports[x] = frozenset(head)
        return support

    def outliers(self, C: FrozenSet[int]) -> Tuple[int, ...]:
        """``O_n(C)``: the ``n`` largest ``(score, ≺ key)`` members of ``C``,
        most outlying first (all of ``C``, unordered, when it has at most
        ``n`` members)."""
        top = self._outliers.get(C)
        if top is not None:
            return top
        n = self.query.n
        if len(C) <= n:
            top = self._outliers[C] = tuple(C)
            return top
        # The live tables, not row_at/key_at: one method call per scored
        # member is a measurable share of global-fill's run.
        dists_of, slots_of, keys = self.index.slot_tables()
        k = self._k
        head_score = self._head_score
        ranked = []
        for x in C:
            dists = dists_of[x]
            if k is None:
                head = C.intersection(slots_of[x][: bisect_right(dists, self._alpha)])
            else:
                head = []
                i = 0
                for slot in slots_of[x]:
                    if slot in C:
                        head.append(dists[i])
                        if len(head) == k:
                            break
                    i += 1
            ranked.append((head_score(head), keys[x], x))
        ranked.sort(reverse=True)
        top = self._outliers[C] = tuple(entry[2] for entry in ranked[:n])
        return top
