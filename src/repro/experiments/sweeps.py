"""Registry declarations for every experiment sweep.

Importing this module (it is pulled in by :mod:`repro.experiments`)
registers a :class:`~repro.orchestrator.registry.SweepFamily` for each of
the paper's nine figure/experiment sweeps plus two non-figure workloads
that only exist because the orchestrator makes them cheap to declare:

* ``stress-loss`` -- a packet-loss x algorithm stress grid probing how each
  protocol's accuracy and energy degrade as the channel gets lossy;
* ``scaling-nodes`` -- a large-network scaling sweep (1k/4k/16k sensors at
  the ``paper`` profile, scaled down for ``quick``/``tiny``) for the
  distributed algorithms, on a density-preserving terrain;
* ``metric-sensitivity`` -- every registered metric space (Euclidean,
  Manhattan, Chebyshev, weighted Euclidean, Mahalanobis) run over the same
  multi-attribute injected-anomaly workload, comparing convergence accuracy
  and how well each geometry's top-n outliers recover the injected faults;
* ``fault-churn`` -- the paper's robustness claim as a sweep: node
  crash/recovery and duty-cycle sleep at increasing churn intensity, with
  availability, convergence accuracy, injected-fault precision and
  data-level detection latency per algorithm;
* ``burst-loss`` -- correlated Gilbert-Elliott burst loss versus i.i.d.
  loss *at the same average loss rate*, isolating the cost of burstiness.

Every family is driven by ``repro-wsn sweep <name> --workers N --store D``:
the scenario grid resolves through the parallel executor and the optional
persistent store, then the family's report renders from warm cache.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..analysis.robustness import (
    detection_latency,
    injected_point_scores,
    mean_availability,
)
from ..core.config import Algorithm, DetectionConfig
from ..datasets.loader import build_intel_lab_dataset
from ..datasets.outlier_injection import InjectionConfig
from ..orchestrator import SweepFamily, register
from ..wsn.faults import FaultConfig
from ..wsn.scenario import ScenarioConfig
from .accuracy_experiment import accuracy_scenarios, run_accuracy_experiment
from .common import ExperimentProfile, FigureResult, run_many
from .example51 import run_example51
from .figure4 import global_window_scenarios, run_figure4
from .figure5 import run_figure5
from .figure6 import run_figure6
from .figure7 import run_figure7, semi_global_window_scenarios
from .figure8 import run_figure8
from .figure9 import outlier_count_scenarios, run_figure9
from .imbalance import imbalance_scenarios, run_imbalance_experiment

__all__ = [
    "LOSS_GRID",
    "stress_loss_scenarios",
    "run_stress_loss",
    "scaling_node_counts",
    "scaling_scenarios",
    "run_scaling",
    "METRIC_VARIANTS",
    "metric_sensitivity_windows",
    "metric_sensitivity_scenarios",
    "run_metric_sensitivity",
    "CHURN_LEVELS",
    "fault_churn_scenarios",
    "run_fault_churn",
    "BURST_RATES",
    "burst_loss_scenarios",
    "run_burst_loss",
]


# ----------------------------------------------------------------------
# New workload 1: packet-loss x algorithm stress grid
# ----------------------------------------------------------------------
#: Per-receiver loss probabilities of the stress grid (0 through severe).
LOSS_GRID = (0.0, 0.05, 0.1, 0.2)


def _stress_configurations(window: int) -> List[Tuple[str, DetectionConfig]]:
    return [
        ("Global-NN", DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="nn",
                                      n_outliers=4, k=4, window_length=window)),
        ("Global-KNN", DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="knn",
                                       n_outliers=4, k=4, window_length=window)),
        ("Semi-global, epsilon=2",
         DetectionConfig(algorithm=Algorithm.SEMI_GLOBAL, ranking="nn",
                         n_outliers=4, k=4, window_length=window, hop_diameter=2)),
        ("Centralized", DetectionConfig(algorithm=Algorithm.CENTRALIZED, ranking="nn",
                                        n_outliers=4, k=4, window_length=window)),
    ]


def _stress_window(profile: ExperimentProfile) -> int:
    # Keep the window inside the sampling schedule so it actually fills.
    return min(10, profile.rounds)


def stress_loss_scenarios(profile: ExperimentProfile) -> List[ScenarioConfig]:
    """The full loss x algorithm x repetition grid."""
    window = _stress_window(profile)
    return [
        replace(scenario, loss_probability=loss)
        for loss in LOSS_GRID
        for _label, detection in _stress_configurations(window)
        for scenario in profile.repetition_scenarios(detection)
    ]


def run_stress_loss(profile: ExperimentProfile) -> Sequence[FigureResult]:
    """Accuracy and energy of each algorithm as the channel degrades."""
    window = _stress_window(profile)
    configurations = _stress_configurations(window)
    run_many(stress_loss_scenarios(profile))

    accuracy: Dict[str, List[float]] = {label: [] for label, _ in configurations}
    energy: Dict[str, List[float]] = {label: [] for label, _ in configurations}
    for loss in LOSS_GRID:
        for label, detection in configurations:
            results = run_many(
                [
                    replace(scenario, loss_probability=loss)
                    for scenario in profile.repetition_scenarios(detection)
                ]
            )
            accuracy[label].append(
                sum(r.accuracy.exact_fraction for r in results) / len(results)
            )
            energy[label].append(
                sum(
                    r.energy.average_per_node_per_round("total_joules")
                    for r in results
                )
                / len(results)
            )

    note = (
        f"{profile.node_count} nodes, w={window}, n=4, "
        f"{profile.repetitions} seed(s), profile={profile.name}"
    )
    x_values = [float(loss) for loss in LOSS_GRID]
    return (
        FigureResult(
            figure="Loss stress: fraction of sensors with an exact estimate",
            x_label="loss probability",
            x_values=x_values,
            series=accuracy,
            notes=note,
        ),
        FigureResult(
            figure="Loss stress: avg total energy per node per round [J]",
            x_label="loss probability",
            x_values=x_values,
            series=energy,
            notes=note,
        ),
    )


# ----------------------------------------------------------------------
# New workload 2: large-network scaling sweep
# ----------------------------------------------------------------------
#: Network sizes per profile.  The paper-scale grid probes 1k/4k/16k
#: sensors -- two to three hundred times the paper's 53-node deployment.
_SCALING_COUNTS = {
    "tiny": (8, 12),
    "quick": (32, 64),
    "paper": (1024, 4096, 16384),
}

#: Largest network the flooding-based global detector is swept at.  Its
#: estimates gossip across the whole network, so simulated cost grows
#: super-linearly with n; beyond this cap the sweep follows the semi-global
#: (hop-bounded, in-network) detector only -- which is exactly the paper's
#: scalability argument for it.
_GLOBAL_SCALING_CAP = 256

#: Round budget per network size: the large grids exist to probe how
#: per-node energy/traffic scale with n, which stabilises within a few
#: windows, so the biggest networks run the fewest rounds.
def _scaling_rounds(profile: ExperimentProfile, nodes: int) -> int:
    if nodes <= 256:
        return profile.rounds
    if nodes <= 1024:
        return min(profile.rounds, 6)
    return min(profile.rounds, 3)


def scaling_node_counts(profile: ExperimentProfile) -> Tuple[int, ...]:
    """The node counts probed at this profile (quick: 32/64, paper: 1k/4k/16k)."""
    return _SCALING_COUNTS.get(profile.name, _SCALING_COUNTS["quick"])


def scaling_terrain(nodes: int) -> float:
    """Terrain side length keeping the paper's deployment density.

    The paper packs 53 sensors onto a 50 m x 50 m terrain; growing the
    terrain with ``sqrt(nodes / 53)`` keeps the sensor density (and with it
    the unit-disk degree distribution) constant, so the scaling sweep
    measures network *size*, not crowding.
    """
    from ..datasets.layout import DEFAULT_NODE_COUNT, DEFAULT_TERRAIN_SIZE

    return DEFAULT_TERRAIN_SIZE * math.sqrt(nodes / DEFAULT_NODE_COUNT)


def _scaling_configurations(
    window: int, nodes: int
) -> List[Tuple[str, DetectionConfig]]:
    configurations: List[Tuple[str, DetectionConfig]] = []
    if nodes <= _GLOBAL_SCALING_CAP:
        configurations.append(
            ("Global-NN",
             DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="nn",
                             n_outliers=4, k=4, window_length=window))
        )
    configurations.append(
        ("Semi-global, epsilon=2",
         DetectionConfig(algorithm=Algorithm.SEMI_GLOBAL, ranking="nn",
                         n_outliers=4, k=4, window_length=window, hop_diameter=2))
    )
    return configurations


def _scaling_scenario(
    profile: ExperimentProfile, detection: DetectionConfig, nodes: int
) -> ScenarioConfig:
    rounds = _scaling_rounds(profile, nodes)
    window = min(detection.window_length, rounds)
    return replace(
        profile.base_scenario(
            replace(detection, window_length=window), seed=0
        ),
        node_count=nodes,
        rounds=rounds,
        terrain_size=scaling_terrain(nodes),
    )


def scaling_scenarios(profile: ExperimentProfile) -> List[ScenarioConfig]:
    """One (single-seed) run per algorithm per network size."""
    window = _stress_window(profile)
    return [
        _scaling_scenario(profile, detection, nodes)
        for nodes in scaling_node_counts(profile)
        for _label, detection in _scaling_configurations(window, nodes)
    ]


def run_scaling(profile: ExperimentProfile) -> Sequence[FigureResult]:
    """Per-node energy and traffic as the network grows.

    Counts above ``_GLOBAL_SCALING_CAP`` report ``nan`` for the global
    detector (it is not swept there, see the cap's docstring); the
    semi-global series covers every count.
    """
    window = _stress_window(profile)
    run_many(scaling_scenarios(profile))

    counts = scaling_node_counts(profile)
    labels = [
        label for label, _ in _scaling_configurations(window, min(counts))
    ]
    energy: Dict[str, List[float]] = {label: [] for label in labels}
    traffic: Dict[str, List[float]] = {label: [] for label in labels}
    for nodes in counts:
        ran = dict(_scaling_configurations(window, nodes))
        for label in labels:
            detection = ran.get(label)
            if detection is None:
                energy[label].append(float("nan"))
                traffic[label].append(float("nan"))
                continue
            scenario = _scaling_scenario(profile, detection, nodes)
            (result,) = run_many([scenario])
            energy[label].append(
                result.energy.average_per_node_per_round("total_joules")
            )
            traffic[label].append(
                result.channel.transmissions / (nodes * scenario.rounds)
            )

    note = (
        f"w<={window}, n=4, seed 0, density-preserving terrain, "
        f"global capped at {_GLOBAL_SCALING_CAP} nodes, profile={profile.name}"
    )
    x_values = [float(n) for n in counts]
    return (
        FigureResult(
            figure="Scaling: avg total energy per node per round [J]",
            x_label="nodes",
            x_values=x_values,
            series=energy,
            notes=note,
        ),
        FigureResult(
            figure="Scaling: transmissions per node per round",
            x_label="nodes",
            x_values=x_values,
            series=traffic,
            notes=note,
        ),
    )


# ----------------------------------------------------------------------
# New workload 3: metric-space sensitivity sweep
# ----------------------------------------------------------------------
#: Attribute order of the multi-attribute workload below:
#: ``(temperature, humidity, x, y)`` (one extra channel).  The weighted and
#: Mahalanobis parameterisations are sized for that 4-dimensional space.
_METRIC_DIMENSION_CHANNELS = 1

#: Weights emphasising the sensed readings over the deployment coordinates
#: (a spiked reading should dominate a sensor merely sitting at the edge of
#: the terrain).
_METRIC_WEIGHTS = (1.0, 0.5, 0.02, 0.02)

#: Roughly attribute-variance-scaled covariance with a mild
#: temperature-humidity correlation: Mahalanobis distance then measures
#: "how anomalous given the usual joint spread", the textbook use.
_METRIC_COV = (
    (9.0, 3.0, 0.0, 0.0),
    (3.0, 36.0, 0.0, 0.0),
    (0.0, 0.0, 200.0, 0.0),
    (0.0, 0.0, 0.0, 200.0),
)

#: Denser-than-default fault injection so even the tiny smoke grids contain
#: anomalies to recover (the default rates expect paper-scale streams).
#: Identical across metrics: every geometry is graded on the same faults.
_METRIC_INJECTION = InjectionConfig(
    spike_probability=0.08, stuck_probability=0.01, drift_probability=0.01
)

#: ``(series label, registry name, metric_params)`` per curve -- every
#: registered metric, all run over the *same* injected-anomaly datasets.
METRIC_VARIANTS = (
    ("Euclidean", "euclidean", ()),
    ("Manhattan", "manhattan", ()),
    ("Chebyshev", "chebyshev", ()),
    ("Weighted-Euclidean", "weighted-euclidean", (("weights", _METRIC_WEIGHTS),)),
    ("Mahalanobis", "mahalanobis", (("cov", _METRIC_COV),)),
)


def _metric_detection(metric: str, metric_params, window: int) -> DetectionConfig:
    return DetectionConfig(
        algorithm=Algorithm.GLOBAL, ranking="knn", n_outliers=4, k=4,
        window_length=window, metric=metric, metric_params=metric_params,
    )


def metric_sensitivity_windows(profile: ExperimentProfile) -> Tuple[int, ...]:
    """The window sizes probed (the profile's, clipped to fit the rounds)."""
    return tuple(w for w in profile.window_sizes if w <= profile.rounds)


def _metric_repetitions(
    profile: ExperimentProfile, metric: str, metric_params, window: int
) -> List[ScenarioConfig]:
    # Built directly (not via ``replace`` on a base scenario): the weighted
    # and Mahalanobis parameterisations only fit the 4-dimensional workload,
    # so an intermediate 3-dimensional scenario would fail the eager
    # metric-vs-dimension validation.
    detection = _metric_detection(metric, metric_params, window)
    return [
        ScenarioConfig(
            detection=detection,
            node_count=profile.node_count,
            rounds=profile.rounds,
            sampling_period=profile.sampling_period,
            injection=_METRIC_INJECTION,
            extra_channels=_METRIC_DIMENSION_CHANNELS,
            seed=seed,
        )
        for seed in range(profile.repetitions)
    ]


def metric_sensitivity_scenarios(profile: ExperimentProfile) -> List[ScenarioConfig]:
    """The full metric x window x repetition grid (4-dimensional points)."""
    return [
        scenario
        for _label, metric, metric_params in METRIC_VARIANTS
        for window in metric_sensitivity_windows(profile)
        for scenario in _metric_repetitions(profile, metric, metric_params, window)
    ]


def run_metric_sensitivity(profile: ExperimentProfile) -> Sequence[FigureResult]:
    """Convergence accuracy and injected-anomaly recovery per metric space.

    Every metric sees the *same* corrupted datasets (the dataset pipeline
    does not depend on the detection configuration), so differences between
    the curves are attributable to the geometry alone.  Two tables result:

    * the fraction of sensors whose converged estimate equals the reference
      answer (protocol convergence is metric-independent, so this should
      stay flat across metrics -- a live guard that the whole stack really
      works under every registered geometry);
    * the injected-anomaly precision of the converged reference answer --
      which fraction of the top-n outliers under that metric are really
      injected faults -- where the geometry genuinely matters.
    """
    run_many(metric_sensitivity_scenarios(profile))

    injected_cache: Dict[object, frozenset] = {}

    def injected_keys(scenario: ScenarioConfig) -> frozenset:
        config = scenario.dataset_config()
        if config not in injected_cache:
            dataset = build_intel_lab_dataset(config)
            injected_cache[config] = frozenset(dataset.injections.all_keys)
        return injected_cache[config]

    windows = metric_sensitivity_windows(profile)
    exact: Dict[str, List[float]] = {label: [] for label, _, _ in METRIC_VARIANTS}
    precision: Dict[str, List[float]] = {label: [] for label, _, _ in METRIC_VARIANTS}
    for label, metric, metric_params in METRIC_VARIANTS:
        for window in windows:
            scenarios = _metric_repetitions(profile, metric, metric_params, window)
            results = run_many(scenarios)
            exact[label].append(
                sum(r.accuracy.exact_fraction for r in results) / len(results)
            )
            hits: List[float] = []
            for scenario, result in zip(scenarios, results):
                injected = injected_keys(scenario)
                for reference in result.references.values():
                    hits.append(
                        len(set(reference) & injected) / len(reference)
                        if reference else 0.0
                    )
            precision[label].append(sum(hits) / len(hits) if hits else 0.0)

    note = (
        f"{profile.node_count} nodes, 4-d points (temperature, humidity, x, y), "
        f"Global-KNN n=4 k=4, {profile.repetitions} seed(s), profile={profile.name}"
    )
    x_values = [float(w) for w in windows]
    return (
        FigureResult(
            figure="Metric sensitivity: fraction of sensors with an exact estimate",
            x_label="window size w",
            x_values=x_values,
            series=exact,
            notes=note,
        ),
        FigureResult(
            figure="Metric sensitivity: injected-anomaly precision of the "
                   "reference top-n outliers",
            x_label="window size w",
            x_values=x_values,
            series=precision,
            notes=note,
        ),
    )


# ----------------------------------------------------------------------
# New workload 4: fault-and-churn robustness sweep
# ----------------------------------------------------------------------
#: Churn intensities probed, from the static baseline to a network where
#: half the nodes crash, a third of them stay dead, everyone duty-cycles
#: and a tenth of the sensors go permanently bad.  The x value of the
#: report tables is the crash probability.
CHURN_LEVELS: Tuple[Tuple[str, FaultConfig], ...] = (
    ("static", FaultConfig()),
    (
        "light",
        FaultConfig(
            crash_probability=0.25,
            recovery_probability=1.0,
            min_downtime_rounds=1,
            max_downtime_rounds=2,
        ),
    ),
    (
        "heavy",
        FaultConfig(
            crash_probability=0.5,
            recovery_probability=0.7,
            min_downtime_rounds=1,
            max_downtime_rounds=3,
            duty_cycle=0.75,
            duty_period_rounds=2,
            sensor_stuck_probability=0.1,
        ),
    ),
)

#: Same dense injection the metric sweep uses: even tiny smoke grids then
#: contain faults for the precision/latency metrics to recover.
_FAULT_INJECTION = _METRIC_INJECTION


def _fault_configurations(window: int) -> List[Tuple[str, DetectionConfig]]:
    return [
        ("Global-NN", DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="nn",
                                      n_outliers=4, k=4, window_length=window)),
        ("Semi-global, epsilon=2",
         DetectionConfig(algorithm=Algorithm.SEMI_GLOBAL, ranking="nn",
                         n_outliers=4, k=4, window_length=window, hop_diameter=2)),
    ]


def _fault_repetitions(
    profile: ExperimentProfile, detection: DetectionConfig, faults: FaultConfig
) -> List[ScenarioConfig]:
    return [
        replace(scenario, injection=_FAULT_INJECTION, faults=faults)
        for scenario in profile.repetition_scenarios(detection)
    ]


def fault_churn_scenarios(profile: ExperimentProfile) -> List[ScenarioConfig]:
    """The full churn-level x algorithm x repetition grid."""
    window = _stress_window(profile)
    return [
        scenario
        for _level, faults in CHURN_LEVELS
        for _label, detection in _fault_configurations(window)
        for scenario in _fault_repetitions(profile, detection, faults)
    ]


def run_fault_churn(profile: ExperimentProfile) -> Sequence[FigureResult]:
    """Robustness under node churn: availability, accuracy, fault recovery.

    Four tables over the churn axis (x = crash probability):

    * planned mean node availability (a sanity anchor: the availability the
      schedules imply, independent of any protocol);
    * convergence accuracy -- the paper's metric, now under churn.  The
      reference answer is computed over the points that actually entered
      the network, so the degradation measures protocol behaviour, not the
      impossibility of knowing unsampled data;
    * precision of the union of final estimates on injected faulty points
      (are the outliers the network reports actual faults?);
    * data-level detection latency of the injected faults under the same
      query (how many rounds until a fault is geometrically visible in the
      reference top-n) -- identical across algorithms by construction, so
      it is reported once per churn level.
    """
    window = _stress_window(profile)
    configurations = _fault_configurations(window)
    run_many(fault_churn_scenarios(profile))

    availability: Dict[str, List[float]] = {label: [] for label, _ in configurations}
    accuracy: Dict[str, List[float]] = {label: [] for label, _ in configurations}
    precision: Dict[str, List[float]] = {label: [] for label, _ in configurations}
    latency: Dict[str, List[float]] = {"Reference (data-level)": []}
    dataset_cache: Dict[object, object] = {}

    def dataset_for(scenario: ScenarioConfig):
        config = scenario.dataset_config()
        if config not in dataset_cache:
            dataset_cache[config] = build_intel_lab_dataset(config)
        return dataset_cache[config]

    for _level, faults in CHURN_LEVELS:
        for label, detection in configurations:
            scenarios = _fault_repetitions(profile, detection, faults)
            results = run_many(scenarios)
            availability[label].append(
                sum(mean_availability(r) for r in results) / len(results)
            )
            accuracy[label].append(
                sum(r.accuracy.exact_fraction for r in results) / len(results)
            )
            precision[label].append(
                sum(
                    injected_point_scores(result, dataset_for(scenario)).precision
                    for scenario, result in zip(scenarios, results)
                )
                / len(results)
            )
        # Latency is a property of (dataset, query, window) only -- every
        # configuration shares those, so compute it once per level, over
        # the first configuration's repetitions.
        _first_label, first_detection = configurations[0]
        latency_samples: List[float] = [
            detection_latency(
                dataset_for(scenario),
                first_detection.make_query(),
                first_detection.window_length,
            ).mean_rounds
            for scenario in _fault_repetitions(profile, first_detection, faults)
        ]
        latency["Reference (data-level)"].append(
            sum(latency_samples) / len(latency_samples) if latency_samples else 0.0
        )

    note = (
        f"{profile.node_count} nodes, w={window}, n=4, levels "
        f"{'/'.join(level for level, _ in CHURN_LEVELS)}, "
        f"{profile.repetitions} seed(s), profile={profile.name}"
    )
    x_values = [float(faults.crash_probability) for _level, faults in CHURN_LEVELS]
    return (
        FigureResult(
            figure="Fault churn: planned mean node availability",
            x_label="crash probability",
            x_values=x_values,
            series=availability,
            notes=note,
        ),
        FigureResult(
            figure="Fault churn: fraction of sensors with an exact estimate",
            x_label="crash probability",
            x_values=x_values,
            series=accuracy,
            notes=note,
        ),
        FigureResult(
            figure="Fault churn: injected-fault precision of the union of "
                   "final estimates",
            x_label="crash probability",
            x_values=x_values,
            series=precision,
            notes=note,
        ),
        FigureResult(
            figure="Fault churn: mean detection latency of injected faults "
                   "[rounds]",
            x_label="crash probability",
            x_values=x_values,
            series=latency,
            notes=note,
        ),
    )


# ----------------------------------------------------------------------
# New workload 5: correlated burst loss vs i.i.d. loss
# ----------------------------------------------------------------------
#: Average loss rates at which the two channel models are compared.
BURST_RATES = (0.05, 0.1, 0.2)

#: Fixed shape of the Gilbert-Elliott chain: mean bad-burst length
#: ``1 / p_bad_to_good`` = 4 delivery attempts, 80% loss while bad.
_BURST_TO_GOOD = 0.25
_BURST_LOSS_BAD = 0.8


def _burst_config_for_rate(rate: float) -> FaultConfig:
    """Gilbert-Elliott parameters whose stationary loss equals ``rate``."""
    pi_bad = rate / _BURST_LOSS_BAD
    to_bad = _BURST_TO_GOOD * pi_bad / (1.0 - pi_bad)
    return FaultConfig(
        burst_to_bad=to_bad,
        burst_to_good=_BURST_TO_GOOD,
        burst_loss_bad=_BURST_LOSS_BAD,
    )


def _burst_detection(window: int) -> DetectionConfig:
    return DetectionConfig(algorithm=Algorithm.GLOBAL, ranking="nn",
                           n_outliers=4, k=4, window_length=window)


def _burst_scenarios_for(
    profile: ExperimentProfile, rate: float, bursty: bool
) -> List[ScenarioConfig]:
    detection = _burst_detection(_stress_window(profile))
    if bursty:
        return [
            replace(scenario, faults=_burst_config_for_rate(rate))
            for scenario in profile.repetition_scenarios(detection)
        ]
    return [
        replace(scenario, loss_probability=rate)
        for scenario in profile.repetition_scenarios(detection)
    ]


def burst_loss_scenarios(profile: ExperimentProfile) -> List[ScenarioConfig]:
    """The full rate x channel-model x repetition grid."""
    return [
        scenario
        for rate in BURST_RATES
        for bursty in (False, True)
        for scenario in _burst_scenarios_for(profile, rate, bursty)
    ]


def run_burst_loss(profile: ExperimentProfile) -> Sequence[FigureResult]:
    """Does loss *correlation* hurt beyond the average loss rate?

    Both series lose the same expected fraction of packets; the
    Gilbert-Elliott series loses them in bursts (mean bad-burst length 4,
    80% loss while bad).  Burst loss wipes out consecutive repair rounds of
    the same neighborhood, which the protocol tolerates worse than the
    same number of scattered losses -- the gap between the curves is the
    cost of correlation.  The second table reports the *observed* loss
    fraction as a live check that the two models really operate at the
    same average rate.
    """
    run_many(burst_loss_scenarios(profile))
    models = (("IID loss", False), ("Gilbert-Elliott burst", True))
    accuracy: Dict[str, List[float]] = {label: [] for label, _ in models}
    similarity: Dict[str, List[float]] = {label: [] for label, _ in models}
    observed: Dict[str, List[float]] = {label: [] for label, _ in models}
    for rate in BURST_RATES:
        for label, bursty in models:
            results = run_many(_burst_scenarios_for(profile, rate, bursty))
            accuracy[label].append(
                sum(r.accuracy.exact_fraction for r in results) / len(results)
            )
            similarity[label].append(
                sum(r.accuracy.mean_similarity for r in results) / len(results)
            )
            observed[label].append(
                sum(
                    r.channel.losses / (r.channel.losses + r.channel.deliveries)
                    if (r.channel.losses + r.channel.deliveries)
                    else 0.0
                    for r in results
                )
                / len(results)
            )

    window = _stress_window(profile)
    note = (
        f"{profile.node_count} nodes, w={window}, Global-NN n=4, mean "
        f"burst length {1.0 / _BURST_TO_GOOD:.0f}, "
        f"{profile.repetitions} seed(s), profile={profile.name}"
    )
    x_values = [float(rate) for rate in BURST_RATES]
    return (
        FigureResult(
            figure="Burst loss: fraction of sensors with an exact estimate",
            x_label="average loss rate",
            x_values=x_values,
            series=accuracy,
            notes=note,
        ),
        FigureResult(
            figure="Burst loss: mean Jaccard similarity of estimates to the "
                   "reference",
            x_label="average loss rate",
            x_values=x_values,
            series=similarity,
            notes=note,
        ),
        FigureResult(
            figure="Burst loss: observed per-delivery loss fraction",
            x_label="average loss rate",
            x_values=x_values,
            series=observed,
            notes=note,
        ),
    )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def _flatten(report) -> Sequence[FigureResult]:
    """Normalise report outputs (single result, tuple or list) to a list."""
    if isinstance(report, FigureResult):
        return [report]
    return list(report)


_FAMILIES = (
    SweepFamily(
        name="figure4",
        description="Global detection: TX/RX energy vs window size "
                    "(Centralized / Global-NN / Global-KNN)",
        build=global_window_scenarios,
        report=lambda profile: _flatten(run_figure4(profile)),
    ),
    SweepFamily(
        name="figure5",
        description="Global detection: min/avg/max node energy vs window size "
                    "(same grid as figure4)",
        build=global_window_scenarios,
        report=lambda profile: _flatten(run_figure5(profile)),
    ),
    SweepFamily(
        name="figure6",
        description="Global detection: normalised per-node energy spread "
                    "(same grid as figure4)",
        build=global_window_scenarios,
        report=lambda profile: _flatten(run_figure6(profile)),
    ),
    SweepFamily(
        name="figure7",
        description="Semi-global detection (NN): TX/RX energy vs window size",
        build=lambda profile: semi_global_window_scenarios("nn", profile),
        report=lambda profile: _flatten(run_figure7(profile)),
    ),
    SweepFamily(
        name="figure8",
        description="Semi-global detection (KNN): TX/RX energy vs window size",
        build=lambda profile: semi_global_window_scenarios("knn", profile),
        report=lambda profile: _flatten(run_figure8(profile)),
    ),
    SweepFamily(
        name="figure9",
        description="Semi-global detection: TX/RX energy vs reported "
                    "outlier count n",
        # Window pinned to the benchmark suite's choice so the family's
        # store-rendered tables stay byte-identical to results/figure9.txt.
        build=lambda profile: outlier_count_scenarios(
            window=profile.window_sizes[-1], profile=profile
        ),
        report=lambda profile: _flatten(
            run_figure9(profile, window=profile.window_sizes[-1])
        ),
    ),
    SweepFamily(
        name="accuracy",
        description="Convergence accuracy per algorithm, with and without "
                    "packet loss (Section 7.1)",
        # Window pinned to the benchmark suite's choice (see
        # benchmarks/test_bench_accuracy.py) for the results/*.txt round-trip.
        build=lambda profile: accuracy_scenarios(
            profile, window=profile.window_sizes[0]
        ),
        report=lambda profile: _flatten(
            run_accuracy_experiment(profile, window=profile.window_sizes[0])
        ),
    ),
    SweepFamily(
        name="imbalance",
        description="Traffic concentration around the collection point "
                    "(Section 8)",
        # Window pinned to the benchmark suite's choice (see
        # benchmarks/test_bench_imbalance.py) for the results/*.txt round-trip.
        build=lambda profile: imbalance_scenarios(
            profile, window=profile.window_sizes[0]
        ),
        report=lambda profile: _flatten(
            run_imbalance_experiment(profile, window=profile.window_sizes[0])
        ),
    ),
    SweepFamily(
        name="example51",
        description="Section 5.1 worked example (in-memory protocol trace; "
                    "no simulated scenarios)",
        build=lambda profile: [],
        report=lambda profile: _flatten(run_example51()),
    ),
    SweepFamily(
        name="stress-loss",
        description="Packet-loss x algorithm stress grid: accuracy and "
                    "energy under 0-20% loss",
        build=stress_loss_scenarios,
        report=run_stress_loss,
    ),
    SweepFamily(
        name="scaling-nodes",
        description="Large-network scaling sweep (1k/4k/16k sensors at the "
                    "paper profile) for the distributed algorithms",
        build=scaling_scenarios,
        report=run_scaling,
    ),
    SweepFamily(
        name="metric-sensitivity",
        description="Every registered metric space over the same "
                    "multi-attribute injected-anomaly workload: convergence "
                    "and injected-fault precision per geometry",
        build=metric_sensitivity_scenarios,
        report=run_metric_sensitivity,
    ),
    SweepFamily(
        name="fault-churn",
        description="Node crash/recovery + duty-cycle churn grid: "
                    "availability, accuracy, injected-fault precision and "
                    "detection latency per algorithm",
        build=fault_churn_scenarios,
        report=run_fault_churn,
    ),
    SweepFamily(
        name="burst-loss",
        description="Correlated Gilbert-Elliott burst loss vs i.i.d. loss "
                    "at matched average rates (the cost of burstiness)",
        build=burst_loss_scenarios,
        report=run_burst_loss,
    ),
)

for _family in _FAMILIES:
    register(_family, replace=True)
