"""The benchmark's workloads and the checks every run's output must pass.

Each workload is one scenario on the paper's 53-sensor lab layout, chosen
to stress a different part of the stack (see METHODS.md):

* ``global-fill`` -- Global-NN flooding from empty windows until the
  network converges; the sufficient-set fixpoint and scoring dominate.
* ``semiglobal-slide`` -- semi-global KNN (epsilon 2) with a 3-round window
  run past round 3, so most rounds evict; per-hop-level fixpoints,
  point copies and the epsilon-hop reference at collection.
* ``centralized-aodv`` -- the centralized sink over AODV; dispatch, channel,
  routing and the sink's index do the work and no sensor runs a fixpoint
  (the control for fixpoint and scoring changes).

The ``toy`` scale runs the same code paths on a handful of sensors and
rounds; the benchmark's smoke test uses it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.core.config import Algorithm, DetectionConfig
from repro.wsn.results import SimulationResult
from repro.wsn.scenario import ScenarioConfig

WORKLOADS = ("global-fill", "semiglobal-slide", "centralized-aodv")
SCALES = ("paper", "toy")

#: Seed whose canonical transcripts are pinned below.
DEFAULT_SEED = 0

#: Rounds per workload and scale.  Paper-scale sizes keep one run at a few
#: seconds, so a measured interval holds several runs.
_ROUNDS = {
    "paper": {"global-fill": 1, "semiglobal-slide": 6, "centralized-aodv": 30},
    "toy": {"global-fill": 2, "semiglobal-slide": 5, "centralized-aodv": 12},
}
_NODES = {"paper": 53, "toy": 8}

#: sha256 of ``SimulationResult.canonical_json()`` at ``DEFAULT_SEED``.  A
#: change that only speeds the program up must leave these unchanged.
PINNED_DIGESTS = {
    ("paper", "global-fill"):
        "121c6a46ee2339a28e088a90cfad3bd6e8d3bfe553e4e30075e1c7cfafd0c58c",
    ("paper", "semiglobal-slide"):
        "f18186af7697fa36f8dcf13590a1fcdd9584561a1e133ca703de07eedcd5ca57",
    ("paper", "centralized-aodv"):
        "671f6d30daa2ab0dc13abaf09713cca0ebc5e2d7237d7718f8dce028aa24d33a",
    ("toy", "global-fill"):
        "acdfe8c129ded7a259929db924ace294f933ea0769e0cc1d421ce4a59e1b85aa",
    ("toy", "semiglobal-slide"):
        "10dc351e6c0485afa985246cb8cc714992fb075add809cf8dada985c69edb435",
    ("toy", "centralized-aodv"):
        "904802ff14eb402fe1599bb411b1e55d946858b7e8e05e597ae404af673f0cce",
}

#: Workloads whose every sensor must end with the exact reference answer at
#: any seed: the global algorithm's convergence theorem, and the sink's
#: exact answer relayed to every sensor.
EXACT_WORKLOADS = ("global-fill", "centralized-aodv")


def scenario(workload: str, seed: int, scale: str = "paper") -> ScenarioConfig:
    """The scenario a run of ``workload`` simulates."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    rounds = _ROUNDS[scale][workload]
    if workload == "global-fill":
        # A window longer than the run: nothing is ever evicted.
        detection = DetectionConfig(
            algorithm=Algorithm.GLOBAL, ranking="nn", n_outliers=4, k=4,
            window_length=rounds + 1,
        )
    elif workload == "semiglobal-slide":
        detection = DetectionConfig(
            algorithm=Algorithm.SEMI_GLOBAL, ranking="knn", n_outliers=4, k=4,
            window_length=3, hop_diameter=2,
        )
    else:
        detection = DetectionConfig(
            algorithm=Algorithm.CENTRALIZED, ranking="nn", n_outliers=4, k=4,
            window_length=10,
        )
    return ScenarioConfig(
        detection=detection, node_count=_NODES[scale], rounds=rounds, seed=seed
    )


def chunk_events(workload: str, scale: str = "paper") -> int:
    """Events per slice of a run: about fifty slices, each followed by a
    calibration in untraced runs."""
    if scale == "toy":
        return 20
    return 3500 if workload == "centralized-aodv" else 200


#: Nominal wall seconds of one paper-scale run's process (start-up, builds,
#: run and collection) on the host the benchmark was developed on.
_RUN_SECONDS = {"global-fill": 4.4, "semiglobal-slide": 8.0, "centralized-aodv": 5.0}


def runs_per_call(workload: str, seconds: float, scale: str = "paper") -> int:
    """Untraced runs a call of ``seconds`` makes: at least one.

    The count depends only on the workload and ``seconds``, never on how
    fast the program runs, so the medians taken over a call's runs are the
    same order statistics for every version of the program.
    """
    if scale == "toy":
        return 1
    return max(1, int(seconds // _RUN_SECONDS[workload]))


def digest(result: SimulationResult) -> str:
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


def outcome_metrics(result: SimulationResult) -> Dict[str, float]:
    """The simulated end-to-end metrics: for a given seed they repeat exactly."""
    scenario_ = result.scenario
    node_rounds = scenario_.node_count * scenario_.rounds
    return {
        "accuracy_exact": result.accuracy.exact_fraction,
        "tx_per_node_round": result.channel.transmissions / node_rounds,
        "tx_bytes_per_node_round": result.channel.bytes_transmitted / node_rounds,
        "energy_mj_per_node_round": 1000.0
        * result.energy.average_per_node_per_round("total_joules"),
    }


def check(workload: str, scale: str, result: SimulationResult, result_digest: str) -> List[str]:
    """Every way ``result`` fails this workload's output checks (empty: ok)."""
    problems = []
    if result.scenario.seed == DEFAULT_SEED:
        pinned = PINNED_DIGESTS[(scale, workload)]
        if result_digest != pinned:
            problems.append(
                f"canonical digest {result_digest} != pinned {pinned} at seed {DEFAULT_SEED}"
            )
    if workload in EXACT_WORKLOADS and result.accuracy.exact_fraction != 1.0:
        problems.append(
            f"accuracy_exact {result.accuracy.exact_fraction} != 1.0"
        )
    if result.channel.transmissions < 1 or result.events_executed < 1:
        problems.append("the run transmitted nothing")
    if result.channel.losses:
        problems.append(f"{result.channel.losses} losses on a loss-free channel")
    return problems
