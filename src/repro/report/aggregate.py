"""Cross-seed / cross-cell aggregation for the report pipeline.

Three kinds of aggregation the report pages need, all deterministic and
dependency-free (sorted-list percentiles, not numpy, so a page renders
byte-identically on every machine):

* :func:`summarize` -- order statistics (mean / median / p95 / min / max)
  over one metric across a family's seeds or cells;
* :func:`paired_ratio` -- baseline-vs-variant ratios (the building block of
  the perf-trajectory regression diff, where every comparison is "new
  value over old value");
* :func:`summary_rollup` / :func:`robustness_rollup` -- whole-family
  rollups over stored results: the former aggregates every key of
  ``SimulationResult.summary()``, the latter reuses
  :mod:`repro.analysis.robustness` to grade injected-fault
  precision/recall and availability across a fault family's runs.

Invariants (pinned by hypothesis property tests in
``tests/test_report.py``): every statistic of :func:`summarize` lies within
``[min, max]``; ``paired_ratio(a, b) * paired_ratio(b, a) == 1`` up to
float rounding; and all of them are invariant under permutation of the
input order -- aggregation must not depend on which cell happened to be
listed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..analysis.robustness import injected_point_scores
from ..core.errors import ExperimentError
from ..datasets.loader import build_intel_lab_dataset
from ..wsn.results import SimulationResult
from ..wsn.scenario import ScenarioConfig

__all__ = [
    "SummaryStats",
    "percentile",
    "summarize",
    "paired_ratio",
    "summary_rollup",
    "robustness_rollup",
]


@dataclass(frozen=True)
class SummaryStats:
    """Order statistics of one metric across seeds/cells."""

    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float

    def as_row(self) -> Tuple[float, float, float, float, float, float]:
        """``(count, mean, median, p95, min, max)`` -- one table row."""
        return (
            float(self.count),
            self.mean,
            self.median,
            self.p95,
            self.minimum,
            self.maximum,
        )


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches numpy's default (``linear``) method on sorted data, but stays
    pure python so aggregation cannot drift with a numpy upgrade.
    """
    if not values:
        raise ExperimentError("percentile() of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ExperimentError(f"percentile q must be within [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def summarize(values: Iterable[float]) -> SummaryStats:
    """Order statistics over ``values`` (raises on an empty input)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ExperimentError("summarize() of an empty sequence")
    # The rounded sum of n equal values over n can land one ulp outside
    # them (eight copies of 688843.7030500963 average to ...964), so the
    # mean is clamped into [min, max].
    mean = sum(ordered) / len(ordered)
    return SummaryStats(
        count=len(ordered),
        mean=min(max(mean, ordered[0]), ordered[-1]),
        median=percentile(ordered, 50.0),
        p95=percentile(ordered, 95.0),
        minimum=ordered[0],
        maximum=ordered[-1],
    )


def paired_ratio(baseline: float, variant: float) -> float:
    """``variant / baseline`` -- the regression diff's unit of comparison.

    Symmetric by construction: ``paired_ratio(a, b)`` is the reciprocal of
    ``paired_ratio(b, a)``.  A zero baseline has no meaningful ratio and is
    rejected (benchmark metrics are strictly positive; a zero means the
    artifact lied and should have failed schema validation).
    """
    if baseline == 0:
        raise ExperimentError("paired_ratio() against a zero baseline")
    return variant / baseline


def summary_rollup(
    results: Sequence[SimulationResult],
) -> Dict[str, SummaryStats]:
    """Aggregate every ``summary()`` key across a family's stored results.

    Keys present in only some results (e.g. ``mean_availability``, which
    fault-free runs omit) are aggregated over the runs that report them.
    """
    samples: Dict[str, List[float]] = {}
    for result in results:
        for key, value in result.summary().items():
            samples.setdefault(key, []).append(float(value))
    return {key: summarize(values) for key, values in sorted(samples.items())}


def robustness_rollup(
    pairs: Sequence[Tuple[ScenarioConfig, SimulationResult]],
) -> Dict[str, SummaryStats]:
    """Injected-fault retrieval + availability rollup across stored runs.

    Reuses :func:`repro.analysis.robustness.injected_point_scores` per run:
    the dataset behind each scenario is rebuilt from its config (dataset
    construction is deterministic and is *not* a simulation -- the
    store-only guarantee is about protocol runs, which this never
    triggers).  Runs whose datasets carry no injections grade as
    precision/recall 1.0 by the robustness module's convention.
    """
    if not pairs:
        raise ExperimentError("robustness_rollup() over no results")
    datasets: Dict[object, object] = {}
    precision: List[float] = []
    recall: List[float] = []
    availability: List[float] = []
    for scenario, result in pairs:
        config = scenario.dataset_config()
        if config not in datasets:
            datasets[config] = build_intel_lab_dataset(config)
        scores = injected_point_scores(result, datasets[config])
        precision.append(scores.precision)
        recall.append(scores.recall)
        availability.append(result.mean_availability)
    return {
        "injected_precision": summarize(precision),
        "injected_recall": summarize(recall),
        "mean_availability": summarize(availability),
    }
