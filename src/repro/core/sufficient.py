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

A sensor runs this fixpoint once per neighbor (and, in the semi-global
algorithm, once per hop level) on every event.  Within one event the
callers share two memos, which is exact because ``O_n(C)`` depends only on
the set ``C`` it scores and ``[P_i|x]`` only on ``P_i``, which one event
does not change: ``outlier_memo`` maps ``C`` to ``O_n(C)`` for every
neighbor and hop level, and ``support_memo`` maps ``x`` to ``[P_i|x]`` for
one ``P_i``.  Neither outlives the event.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from .outliers import OutlierQuery
from .ranking import UNRESOLVED_SUBSET
from .support import support_of_set

__all__ = ["compute_sufficient_set", "satisfies_sufficiency"]


def compute_sufficient_set(
    query: OutlierQuery,
    holdings: Iterable,
    known_shared: Iterable,
    estimate: Iterable = None,
    estimate_support: Iterable = None,
    index=None,
    holdings_subset=UNRESOLVED_SUBSET,
    outlier_memo: Optional[Dict[FrozenSet, List]] = None,
    support_memo: Optional[Dict] = None,
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
    estimate, estimate_support:
        Optional precomputed ``O_n(P_i)`` and ``[P_i | O_n(P_i)]``.  Both
        depend only on ``P_i``, so a sensor processing one event for several
        neighbors computes them once and passes them in; when omitted they
        are computed here.
    index:
        Optional :class:`~repro.core.index.NeighborhoodIndex` covering
        ``holdings ∪ known_shared``.  With it, every fixpoint iteration does
        set algebra over the cached sorted-neighbor lists (masked walks)
        instead of rebuilding a pairwise-distance matrix; the result is
        identical either way.
    holdings_subset:
        Optional pre-resolved membership mask for ``holdings`` (an
        :class:`~repro.core.index.IndexSubset`, or ``None`` when
        ``holdings`` is exactly the full index).  The detectors resolve the
        mask once per event and share it across every neighbor's fixpoint;
        when omitted it is resolved here.
    outlier_memo, support_memo:
        Optional per-event memos, read and filled on the indexed path only:
        ``outlier_memo`` maps ``frozenset(C)`` to ``O_n(C)`` for the current
        index content, ``support_memo`` maps ``x`` to ``[P_i|x]`` for this
        ``holdings``.  The caller drops both when the event ends.

    Returns
    -------
    set
        A sufficient set ``Z ⊆ P_i`` (not necessarily the smallest one --
        the paper's algorithm does not require minimality).
    """
    P = list(holdings)
    shared = frozenset(known_shared)

    # Resolve the membership mask of P once: every fixpoint iteration takes
    # supports within the same P, so the O(|P|) coverage check must not be
    # repeated per iteration (nor per neighbor, when the caller passes the
    # per-event mask in).
    ranking = query.ranking
    if index is None:
        use_index, P_subset = False, None
    elif holdings_subset is UNRESOLVED_SUBSET:
        use_index, P_subset = index.try_subset(P)
    else:
        use_index, P_subset = True, holdings_subset

    if estimate is None:
        if use_index:
            estimate = query.outliers(P, index=index, subset=P_subset)
        else:
            estimate = query.outliers(P, index=index)
    if estimate_support is None:
        if use_index:
            estimate_support = support_of_set(
                ranking, estimate, P, index=index, subset=P_subset
            )
        else:
            estimate_support = support_of_set(ranking, estimate, P, index=index)
    Z: Set = set(estimate) | set(estimate_support)

    if not use_index:
        outlier_memo = None
    elif support_memo is None:
        support_memo = {}
    while True:
        combined = shared | Z
        outliers = None if outlier_memo is None else outlier_memo.get(combined)
        if outliers is None:
            outliers = query.outliers(combined, index=index)
            if outlier_memo is not None:
                outlier_memo[combined] = outliers
        if use_index and index.covers(outliers):
            closure: Set = set()
            for x in outliers:
                support = support_memo.get(x)
                if support is None:
                    support = ranking.support_indexed(index, x, P_subset)
                    support_memo[x] = support
                closure |= support
        else:
            closure = support_of_set(ranking, outliers, P)
        if closure <= Z:
            break
        Z |= closure
    return Z


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
