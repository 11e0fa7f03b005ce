"""The one way a scenario runs: in process, staged.

``run_scenario`` is ``build_deployment -> schedule_workload ->
Simulator.run -> collect_result``, and the benchmark harness drives those
four stages itself, running the simulator in fixed-size event slices.
These tests pin that both drivings produce a transcript
(``SimulationResult.canonical_json``) byte-identical to ``run_scenario``
on the paper's 53-node deployment: every algorithm with fault churn off
and on, every registered metric space, and both channel-loss models.
They also pin what ``collect_result`` adds for the overheard unicasts the
channel never schedules, and that it refuses a run with events queued.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.core.config import Algorithm, DetectionConfig
from repro.core.errors import SimulationError
from repro.datasets.loader import build_intel_lab_dataset
from repro.experiments.sweeps import METRIC_VARIANTS
from repro.network import Packet, PacketKind
from repro.wsn.deployment import build_deployment
from repro.wsn.faults import FaultConfig
from repro.wsn.runner import collect_result, run_scenario, schedule_workload
from repro.wsn.scenario import ScenarioConfig

#: Crash/recovery churn plus duty-cycle sleep: down nodes, timed
#: recoveries and periodic sleep all go through the fault runtime.
CHURN = FaultConfig(
    crash_probability=0.25,
    recovery_probability=1.0,
    min_downtime_rounds=1,
    max_downtime_rounds=2,
    duty_cycle=0.9,
    duty_period_rounds=2,
)

_ALGORITHMS = {
    "global": DetectionConfig(
        algorithm=Algorithm.GLOBAL, ranking="nn", n_outliers=4, k=4,
        window_length=3,
    ),
    "semi-global": DetectionConfig(
        algorithm=Algorithm.SEMI_GLOBAL, ranking="knn", n_outliers=4, k=4,
        window_length=3, hop_diameter=2,
    ),
    "centralized": DetectionConfig(
        algorithm=Algorithm.CENTRALIZED, ranking="nn", n_outliers=4, k=4,
        window_length=3,
    ),
}


def algorithm_scenario(name: str, faults: bool) -> ScenarioConfig:
    return ScenarioConfig(
        detection=_ALGORITHMS[name],
        rounds=3,
        faults=CHURN if faults else FaultConfig(),
        seed=0,
    )


def metric_scenario(metric: str, metric_params) -> ScenarioConfig:
    """Semi-global NN on 4-d points (one extra reading channel)."""
    return ScenarioConfig(
        detection=DetectionConfig(
            algorithm=Algorithm.SEMI_GLOBAL, ranking="nn", n_outliers=4,
            k=4, window_length=2, hop_diameter=2, metric=metric,
            metric_params=metric_params,
        ),
        rounds=2,
        extra_channels=1,
        seed=0,
    )


def loss_scenario(model: str) -> ScenarioConfig:
    """Semi-global KNN over a lossy channel: i.i.d. or Gilbert-Elliott
    bursts."""
    if model == "iid":
        return ScenarioConfig(
            detection=_ALGORITHMS["semi-global"], rounds=2,
            loss_probability=0.1, seed=0,
        )
    return ScenarioConfig(
        detection=_ALGORITHMS["semi-global"],
        rounds=2,
        faults=FaultConfig(
            burst_to_bad=0.05, burst_to_good=0.25, burst_loss_bad=0.8
        ),
        seed=0,
    )


SCENARIOS = [
    pytest.param(algorithm_scenario(name, faults), id=f"{name}-{label}")
    for name in sorted(_ALGORITHMS)
    for faults, label in ((False, "static"), (True, "churn"))
] + [
    pytest.param(metric_scenario(metric, params), id=f"metric-{label}")
    for label, metric, params in METRIC_VARIANTS
] + [
    pytest.param(loss_scenario(model), id=f"loss-{model}")
    for model in ("iid", "burst")
]

#: ``run_scenario`` transcripts, computed once per scenario and shared by
#: both drivings.
_BASELINES: Dict[ScenarioConfig, str] = {}


def golden(scenario: ScenarioConfig) -> str:
    if scenario not in _BASELINES:
        _BASELINES[scenario] = run_scenario(scenario).canonical_json()
    return _BASELINES[scenario]


def deploy(scenario: ScenarioConfig):
    deployment = build_deployment(
        scenario, build_intel_lab_dataset(scenario.dataset_config())
    )
    schedule_workload(deployment)
    return deployment


class TestStagedRun:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_staged_run_matches_run_scenario(self, scenario):
        deployment = deploy(scenario)
        simulator, channel = deployment.simulator, deployment.channel
        simulator.run()
        result = collect_result(deployment)
        assert result.canonical_json() == golden(scenario)
        # One event per reception: the overheard unicasts the channel did
        # not schedule join the dispatched events.  Only the centralized
        # baseline sends unicasts (AODV).
        assert result.events_executed == (
            simulator.events_executed + channel.overheard_receptions
        )
        centralized = scenario.detection.algorithm == Algorithm.CENTRALIZED
        assert (channel.overheard_receptions > 0) == centralized

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_event_slices_replay_the_uninterrupted_run(self, scenario):
        """Slicing the run by event count, as the benchmark harness does,
        neither drops, repeats nor reorders an event."""
        deployment = deploy(scenario)
        simulator = deployment.simulator
        slices = 0
        while simulator.peek_time() is not None:
            before = simulator.events_executed
            simulator.run(max_events=97)
            assert 0 < simulator.events_executed - before <= 97
            slices += 1
        assert slices > 1
        assert collect_result(deployment).canonical_json() == golden(scenario)


class TestCollectResult:
    SCENARIO = ScenarioConfig(
        detection=_ALGORITHMS["centralized"], node_count=6, rounds=2, seed=0
    )

    def test_an_unscheduled_reception_moves_the_idle_horizon(self):
        """A unicast whose destination is down leaves no heap entry, yet
        its overheard receptions end the clock at their arrival, as their
        delivery events would have."""
        deployment = deploy(self.SCENARIO)
        simulator, channel = deployment.simulator, deployment.channel
        simulator.run()
        assert simulator.now < self.SCENARIO.duration
        topology = deployment.topology
        sender = next(
            node for node in topology.node_ids if len(topology.neighbors(node)) > 1
        )
        destination = topology.neighbors_sorted(sender)[0]
        deployment.nodes[destination].power_down()
        packet = Packet(PacketKind.APP_DATA, source=sender,
                        destination=destination, size_bytes=40)
        sent = self.SCENARIO.duration
        simulator.schedule_at(sent, deployment.nodes[sender].send, packet)
        overheard = channel.overheard_receptions
        simulator.run()
        assert simulator.now == sent and simulator.pending == 0
        assert channel.overheard_receptions == (
            overheard + len(topology.neighbors(sender)) - 1
        )
        model = deployment.nodes[sender].energy.model
        arrival = sent + (model.airtime(40) + channel.processing_delay)
        assert channel.last_overheard_arrival == arrival
        collect_result(deployment)
        for node in deployment.nodes.values():
            assert node.energy.idle_joules == node.energy.model.idle_energy(arrival)

    def test_a_run_with_events_queued_is_refused(self):
        deployment = deploy(self.SCENARIO)
        deployment.simulator.run(max_events=5)
        with pytest.raises(SimulationError, match="still queued"):
            collect_result(deployment)


def test_run_path_loads_no_sweep_machinery():
    """The run path stands alone: importing it pulls in neither the sweep
    orchestrator nor the experiment harness."""
    probe = (
        "import sys\n"
        "import repro.wsn.deployment, repro.wsn.runner\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.orchestrator', 'repro.experiments'))))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
