"""Scenario execution: schedule the workload, run the simulation, collect
energy, traffic and accuracy results.

:func:`run_scenario` is the single entry point the examples and the
experiment harness use; :func:`run_repetitions` repeats a scenario with
different seeds and returns all results (the paper averages four seeds per
configuration).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from ..analysis.accuracy import compare_estimates, normalise
from ..core.config import Algorithm
from ..core.errors import SimulationError
from ..core.points import DataPoint
from ..core.reference import semi_global_reference_all
from ..datasets.loader import build_intel_lab_dataset
from ..datasets.streams import SensorDataset
from ..network.stats import EnergyReport
from ..network.topology import Topology
from .deployment import Deployment, build_deployment
from .results import SimulationResult
from .scenario import ScenarioConfig

__all__ = [
    "run_scenario",
    "run_scenario_worker",
    "run_repetitions",
    "schedule_workload",
    "collect_result",
    "final_references",
]


def schedule_workload(deployment: Deployment) -> None:
    """Schedule every sampling event (and, for the centralized baseline, the
    sink's per-round outlier publication) on the deployment's simulator.

    With a fault model engaged, samples are routed through the fault
    runtime's availability guard (a down node misses its round) and the
    plan's power transitions are queued as
    :attr:`~repro.simulator.events.EventPriority.FAULT`-priority events;
    without one, the schedule is exactly the pre-fault-subsystem schedule.
    """
    scenario = deployment.scenario
    dataset = deployment.dataset
    simulator = deployment.simulator
    period = scenario.sampling_period
    fault_runtime = deployment.fault_runtime

    for round_index in range(scenario.rounds):
        base_time = round_index * period
        samples = dataset.points_at(round_index)
        for offset, node_id in enumerate(sorted(samples)):
            app = deployment.apps[node_id]
            # A tiny deterministic per-node offset keeps simultaneous events
            # ordered consistently without materially shifting the schedule.
            when = base_time + offset * 1e-4
            if fault_runtime is not None:
                simulator.schedule_at(
                    when, fault_runtime.sample_or_skip, node_id, samples[node_id]
                )
            else:
                simulator.schedule_at(when, app.sample, samples[node_id])
        sink_app = deployment.sink_app
        if sink_app is not None:
            simulator.schedule_at(
                base_time + 0.6 * period, sink_app.publish_outliers
            )

    if fault_runtime is not None:
        fault_runtime.schedule(simulator)


def final_references(
    scenario: ScenarioConfig,
    topology: Topology,
    final_windows: Dict[int, List[DataPoint]],
) -> Dict[int, List[DataPoint]]:
    """The correct answer each node should have converged to at the end."""
    query = scenario.detection.make_query()
    if scenario.algorithm == Algorithm.SEMI_GLOBAL:
        adjacency = topology.adjacency()
        return semi_global_reference_all(
            query, final_windows, adjacency, scenario.detection.hop_diameter
        )
    union: Set[DataPoint] = set()
    for points in final_windows.values():
        union |= set(points)
    answer = query.outliers(union)
    return {node_id: answer for node_id in final_windows}


def run_scenario(
    scenario: ScenarioConfig, dataset: Optional[SensorDataset] = None
) -> SimulationResult:
    """Run one complete simulation and return its results.

    Parameters
    ----------
    scenario:
        The run configuration.
    dataset:
        Pre-built dataset to use; when omitted one is generated from the
        scenario (deterministically, from the scenario seed).
    """
    started = time.perf_counter()
    data = dataset or build_intel_lab_dataset(scenario.dataset_config())
    deployment = build_deployment(scenario, data)
    schedule_workload(deployment)
    deployment.simulator.run()
    return collect_result(deployment, started=started)


def collect_result(
    deployment: Deployment, started: Optional[float] = None
) -> SimulationResult:
    """Finalise a fully-run deployment into a :class:`SimulationResult`.

    The last step of :func:`run_scenario`, public so a caller that drives
    ``build_deployment -> schedule_workload -> Simulator.run`` itself gets
    the identical result.  ``started`` is a ``time.perf_counter`` origin
    for the (non-canonical) wallclock field.  A deployment with events
    still queued raises :class:`~repro.core.errors.SimulationError`.

    The channel counts overheard unicasts at transmission time and never
    schedules them, so they join the event count and the clock here: the
    result is that of one event per reception.
    """
    scenario = deployment.scenario
    data = deployment.dataset
    simulator = deployment.simulator
    channel = deployment.channel
    if simulator.pending:
        raise SimulationError(
            f"collect_result needs a drained run: {simulator.pending} events "
            f"are still queued"
        )

    # Idle-energy accounting over the full observation interval.  Every
    # algorithm is charged over the same duration so idle energy never skews
    # the comparison.
    duration = max(simulator.now, channel.last_overheard_arrival, scenario.duration)
    for node in deployment.nodes.values():
        node.energy.charge_idle(duration)

    final_index = scenario.rounds - 1
    final_windows = data.windows(final_index, scenario.detection.window_length)
    if deployment.fault_runtime is not None:
        # A sample a down node never took does not exist anywhere in the
        # network; the reference answer ("what should the nodes have
        # converged to?") is therefore stated over the data that actually
        # entered the network, not over the dataset's counterfactual.
        skipped = deployment.fault_runtime.skipped_keys
        final_windows = {
            node_id: [p for p in points if (p.origin, p.epoch) not in skipped]
            for node_id, points in final_windows.items()
        }
    references = final_references(scenario, deployment.topology, final_windows)
    estimates = {
        node_id: app.estimate() for node_id, app in deployment.apps.items()
    }
    accuracy = compare_estimates(estimates, references)

    energy = EnergyReport.from_meters(
        {node_id: node.energy for node_id, node in deployment.nodes.items()},
        rounds=scenario.rounds,
    )
    protocol_stats = {
        node_id: detector.stats.as_dict()
        for node_id, detector in deployment.detectors.items()
    }

    fault_stats = (
        deployment.fault_runtime.stats()
        if deployment.fault_runtime is not None
        else {}
    )

    return SimulationResult(
        scenario=scenario,
        energy=energy,
        channel=channel.stats,
        accuracy=accuracy,
        estimates={n: normalise(e) for n, e in estimates.items()},
        references={n: normalise(r) for n, r in references.items()},
        protocol_stats=protocol_stats,
        fault_stats=fault_stats,
        events_executed=simulator.events_executed + channel.overheard_receptions,
        wallclock_seconds=(
            time.perf_counter() - started if started is not None else 0.0
        ),
    )


def run_scenario_worker(scenario: ScenarioConfig) -> SimulationResult:
    """Pool entry point used by the sweep executor.

    A module-level function so it pickles cleanly into ``multiprocessing``
    workers.  A scenario is a pure function of its configuration (the seed
    drives every random stream), so running it in a worker process yields
    the same result as running it inline.
    """
    return run_scenario(scenario)


def run_repetitions(
    scenario: ScenarioConfig, repetitions: int = 4, first_seed: int = 0
) -> List[SimulationResult]:
    """Run ``repetitions`` copies of ``scenario`` with distinct seeds."""
    results = []
    for repetition in range(repetitions):
        seeded = scenario.with_seed(first_seed + repetition)
        results.append(run_scenario(seeded))
    return results
