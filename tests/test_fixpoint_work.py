"""The detectors run an eq. 2 fixpoint only where its result can be sent.

Only points the neighbor is not already known to hold leave the sensor,
and every ``Z ⊆ P``.  So the global detector skips a neighbor that already
shares all of ``P_i``.  The semi-global detector keeps each neighbor's
sendable slots (held below hop d, not known to the neighbor at hop + 1 or
less): it skips a neighbor with none, and runs hop level h only while some
sendable slot at hop <= h is outside every lower level's Z, stopping the
level's fixpoint as soon as its Z covers those slots.  The unit tests below
pin each skip in lockstep with the brute-force oracle, which runs every
fixpoint to the end; the gate at the end pins the fixpoint work of two
small benchmark-shaped scenarios, so a change that undoes a skip fails
here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import (
    AverageKNNDistance,
    GlobalOutlierDetector,
    OutlierQuery,
    SemiGlobalOutlierDetector,
    make_point,
)
from repro.core import global_detector, semiglobal_detector
from repro.core.config import Algorithm, DetectionConfig
from repro.core.sufficient import SlotFixpoint
from repro.wsn import ScenarioConfig, run_scenario

from brute_oracle import BruteGlobalDetector, BruteSemiGlobalDetector


class Subclassed(AverageKNNDistance):
    """A ranking subclass: the detectors run the index-free fixpoint."""


RANKINGS = [AverageKNNDistance(k=1), Subclassed(k=1)]
RANKING_IDS = ["kernel", "index-free"]


@pytest.fixture
def runs(monkeypatch):
    """The shared set of every fixpoint run, on the slot kernel or the
    index-free fallback of either detector."""
    shared_sets = []
    kernel = SlotFixpoint.run

    def counted_kernel(fixpoint, shared, target=None):
        shared_sets.append(shared)
        return kernel(fixpoint, shared, target)

    monkeypatch.setattr(SlotFixpoint, "run", counted_kernel)
    for module in (global_detector, semiglobal_detector):

        def counted_fallback(query, index, holdings, shared, target=None,
                             _fallback=module.index_free_fixpoint):
            shared_sets.append(shared)
            return _fallback(query, index, holdings, shared, target)

        monkeypatch.setattr(module, "index_free_fixpoint", counted_fallback)
    return shared_sets


@pytest.fixture
def level_runs(monkeypatch):
    """The hop level of every semi-global fixpoint run."""
    levels = []
    build = SemiGlobalOutlierDetector._level_fixpoint

    def recording(detector, level, outlier_memo):
        sufficient = build(detector, level, outlier_memo)

        def run(shared, target):
            levels.append(level)
            return sufficient(shared, target)

        return run

    monkeypatch.setattr(SemiGlobalOutlierDetector, "_level_fixpoint", recording)
    return levels


def _point(value, epoch, hop=0, origin=0):
    return make_point([float(value)], origin=origin, epoch=epoch, hop=hop)


def _message_view(message):
    return None if message is None else (message.sender, dict(message.payloads))


def _lockstep(fast, slow, step):
    fast_msg, slow_msg = step(fast), step(slow)
    assert _message_view(fast_msg) == _message_view(slow_msg)
    assert fast.holdings == slow.holdings
    assert fast.estimate() == slow.estimate()
    return fast_msg


def _semiglobal_pair(ranking, d, neighbors, n=2):
    query = OutlierQuery(ranking, n=n)
    return (
        SemiGlobalOutlierDetector(0, query, hop_diameter=d, neighbors=neighbors),
        BruteSemiGlobalDetector(0, query, hop_diameter=d, neighbors=neighbors),
    )


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_global_neighbor_that_shares_all_of_p_runs_no_fixpoint(ranking, runs):
    query = OutlierQuery(ranking, n=2)
    fast = GlobalOutlierDetector(0, query, neighbors=[1, 2])
    slow = BruteGlobalDetector(0, query, neighbors=[1, 2])
    remote = [_point(v, i, origin=1) for i, v in enumerate([0.0, 1.0, 9.0])]
    message = _lockstep(fast, slow, lambda d: d.handle_message(1, remote))
    # Neighbor 1 sent every held point: only neighbor 2 (sharing nothing)
    # ran a fixpoint, and only neighbor 2 is sent anything.
    assert fast.known_shared_with(1) == fast.holdings
    assert runs == [frozenset()]
    assert set(message.payloads) == {2}


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_semiglobal_neighbor_that_holds_all_of_p_runs_no_fixpoint(
    ranking, runs
):
    fast, slow = _semiglobal_pair(ranking, d=2, neighbors=[1, 2])
    remote = [_point(v, i, hop=1, origin=1) for i, v in enumerate([0.0, 1.0, 9.0])]
    message = _lockstep(fast, slow, lambda d: d.handle_message(1, remote))
    # Every point arrived from neighbor 1 at its held hop, which blocks a
    # resend: neighbor 2's one level-1 run is the only run.
    assert fast.received_from(1) == fast.holdings
    assert runs == [frozenset()]
    assert set(message.payloads) == {2}
    # A point neighbor 2 does not know, at a hop it cannot be sent at, runs
    # nothing for either neighbor.
    far = [_point(50.0, 7, hop=2, origin=2)]
    assert _lockstep(fast, slow, lambda d: d.handle_message(1, far)) is None
    assert len(runs) == 1


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_semiglobal_point_known_only_at_a_stale_hop_is_sent(ranking, runs):
    fast, slow = _semiglobal_pair(ranking, d=2, neighbors=[1, 2], n=1)
    far = _point(40.0, 0, origin=3)
    # Neighbor 1 delivers the point from three hops away: too far to
    # forward, so nothing runs.
    assert _lockstep(fast, slow, lambda d: d.handle_message(1, [far.with_hop(3)])) is None
    assert runs == []
    # Neighbor 2 knows a path of one hop.  The held copy is relabelled, and
    # neighbor 1's record (hop 3 > 1 + 1) no longer blocks it.
    message = _lockstep(fast, slow, lambda d: d.handle_message(2, [far.with_hop(1)]))
    assert message.payload_for(1) == frozenset({far.with_hop(2)})
    assert message.payload_for(2) == frozenset()
    assert fast.sent_to(1) == {far.with_hop(2)}
    assert fast.received_from(1) == {far.with_hop(3)}
    assert fast.known_shared_with(1) == {far.with_hop(2)}
    assert len(runs) == 1


@pytest.mark.parametrize("ranking", RANKINGS, ids=RANKING_IDS)
def test_semiglobal_levels_below_the_lowest_sendable_hop_do_not_run(
    ranking, level_runs
):
    fast, slow = _semiglobal_pair(ranking, d=3, neighbors=[1, 2])
    local = [_point(0.0, 0), _point(1.0, 1)]
    _lockstep(fast, slow, lambda d: d.add_local_points(local))
    # |P| = n, so Z = P and both neighbors now hold the local points at hop
    # 1.  Each ran level 0 only: its Z already holds the sendable slots of
    # levels 1 and 2 (both hop-0 points), so those levels have no target.
    assert level_runs == [0, 0]
    del level_runs[:]
    remote = [_point(5.0, 0, hop=1, origin=2)]
    message = _lockstep(fast, slow, lambda d: d.handle_message(2, remote))
    # Neighbor 1's lowest unknown hop is 1: level 0 does not run, and level
    # 1's Z holds the remote point, so level 2 does not either.  Neighbor 2
    # knows every point at a blocking hop and runs nothing.
    assert level_runs == [1]
    assert set(message.payloads) == {1}


# ----------------------------------------------------------------------
# Gate: the fixpoint work of two toy scenarios shaped like the benchmark's
# global-fill and semiglobal-slide workloads (8 sensors, seed 0)
# ----------------------------------------------------------------------
def _toy_global_fill() -> ScenarioConfig:
    detection = DetectionConfig(
        algorithm=Algorithm.GLOBAL, ranking="nn", n_outliers=4, k=4,
        window_length=3,
    )
    return ScenarioConfig(detection=detection, node_count=8, rounds=2, seed=0)


def _toy_semiglobal_slide() -> ScenarioConfig:
    detection = DetectionConfig(
        algorithm=Algorithm.SEMI_GLOBAL, ranking="knn", n_outliers=4, k=4,
        window_length=3, hop_diameter=2,
    )
    return ScenarioConfig(detection=detection, node_count=8, rounds=5, seed=0)


#: Per scenario: the sha256 of its canonical transcript (the toy digest
#: ``perfbench/bench_workloads.py`` pins), ``SlotFixpoint`` constructions,
#: ``SlotFixpoint.run`` calls and ``O_n(C)`` scorings (``outliers`` calls
#: that miss the event's memo with ``|C| > n``).  Before the send-side skips
#: the two scenarios ran 119 / 209 and 340 / 620 (constructions / runs);
#: before the semi-global runs stopped at their targets, semiglobal-slide
#: ran 140 / 200 / 15.
FIXPOINT_WORK = {
    "global-fill": (
        _toy_global_fill,
        "acdfe8c129ded7a259929db924ace294f933ea0769e0cc1d421ce4a59e1b85aa",
        97,
        115,
        47,
    ),
    "semiglobal-slide": (
        _toy_semiglobal_slide,
        "10dc351e6c0485afa985246cb8cc714992fb075add809cf8dada985c69edb435",
        100,
        130,
        1,
    ),
}


@pytest.mark.parametrize("workload", sorted(FIXPOINT_WORK))
def test_toy_scenario_fixpoint_work_is_pinned(workload, monkeypatch):
    scenario, pinned_digest, constructions, run_calls, scorings = (
        FIXPOINT_WORK[workload]
    )
    counts = {"constructions": 0, "runs": 0, "scorings": 0}
    init, run, outliers = (
        SlotFixpoint.__init__, SlotFixpoint.run, SlotFixpoint.outliers
    )

    def counted_init(fixpoint, *args):
        counts["constructions"] += 1
        init(fixpoint, *args)

    def counted_run(fixpoint, shared, target=None):
        counts["runs"] += 1
        return run(fixpoint, shared, target)

    def counted_outliers(fixpoint, C):
        if C not in fixpoint._outliers and len(C) > fixpoint.query.n:
            counts["scorings"] += 1
        return outliers(fixpoint, C)

    monkeypatch.setattr(SlotFixpoint, "__init__", counted_init)
    monkeypatch.setattr(SlotFixpoint, "run", counted_run)
    monkeypatch.setattr(SlotFixpoint, "outliers", counted_outliers)
    result = run_scenario(scenario())
    digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    assert digest == pinned_digest
    assert counts == {
        "constructions": constructions, "runs": run_calls, "scorings": scorings,
    }
