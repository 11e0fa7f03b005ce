"""Sweep analytics and the regression-report pipeline.

Everything between "a directory full of stored simulation results plus
committed ``BENCH_*.json`` artifacts" and "a report a human (or CI) can
act on" lives here:

* :mod:`~repro.report.schemas` -- the single home of every benchmark
  artifact schema (``python -m repro.report FILE...`` validates files);
* :mod:`~repro.report.reader` -- typed loaders over the result store
  (per-family completeness against the registry, quarantine-aware) and the
  artifacts;
* :mod:`~repro.report.aggregate` -- deterministic cross-seed/cross-cell
  statistics and robustness rollups;
* :mod:`~repro.report.render` / :mod:`~repro.report.site` -- the
  byte-deterministic markdown report site (``repro-wsn report``);
* :mod:`~repro.report.trajectory` -- the cross-PR perf-trajectory artifact
  and its regression diff (``repro-wsn report --diff``).
"""

from .aggregate import (
    SummaryStats,
    paired_ratio,
    percentile,
    robustness_rollup,
    summarize,
    summary_rollup,
)
from .reader import (
    FamilyStatus,
    ResultSet,
    family_status,
    load_bench_artifacts,
    read_family,
    store_health,
)
from .schemas import (
    BENCH_FILENAMES,
    SCHEMA_VERSIONS,
    SchemaError,
    validate_bench,
    validate_bench_file,
)
from .site import SiteBuild, build_site, resolve_git_sha
from .trajectory import (
    GATES,
    TRAJECTORY_SCHEMA,
    DiffRow,
    MetricGate,
    RegressionReport,
    append_entry,
    baseline_metrics,
    diff_metrics,
    extract_metrics,
    gate_for,
    load_trajectory,
    new_entry,
)

__all__ = [
    "SCHEMA_VERSIONS",
    "BENCH_FILENAMES",
    "SchemaError",
    "validate_bench",
    "validate_bench_file",
    "FamilyStatus",
    "ResultSet",
    "family_status",
    "read_family",
    "load_bench_artifacts",
    "store_health",
    "SummaryStats",
    "percentile",
    "summarize",
    "paired_ratio",
    "summary_rollup",
    "robustness_rollup",
    "SiteBuild",
    "build_site",
    "resolve_git_sha",
    "TRAJECTORY_SCHEMA",
    "MetricGate",
    "GATES",
    "gate_for",
    "extract_metrics",
    "new_entry",
    "append_entry",
    "load_trajectory",
    "baseline_metrics",
    "DiffRow",
    "RegressionReport",
    "diff_metrics",
]
