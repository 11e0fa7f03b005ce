"""Cross-PR perf trajectory: extraction, the v1 artifact, regression diffs.

The committed ``BENCH_hotpath.json`` measurement artifact records one PR's
measurement of the detector hot path.  This module flattens it into a
namespace of **trajectory metrics** and maintains
``results/BENCH_trajectory.json`` (schema v1), which appends one entry per
PR so the perf story of the repo is a diffable artifact instead of
archaeology over git history.  Older entries also hold ``e2e.*`` keys from
a single-run scenario suite that ``perfbench/`` has since replaced, and
``setup.*`` keys from a topology-build suite retired with the grid spatial
index; no artifact produces them any more, so diffs list them as base-only.

Metric keys are parameterised by the configuration that produced them --
``hotpath.batched_speedup.w256`` -- because a number measured at a
different window size is a *different metric*, not a comparable one.  A
diff therefore only compares the **intersection** of two entries' keys: a
quick CI run (windows 64/256) gates against a committed full run exactly on
the configurations both measured, and everything else is listed as skipped
rather than silently compared across configs.

Regression gating is deliberately restricted to **dimensionless speedup
ratios**, with generous per-metric thresholds: raw latencies and
wall-clocks vary several-fold between a dev box and a shared CI runner, so
they are tracked and rendered but never gated -- the absolute floors in
CI's perf-smoke job already guard them at fixed configurations.  The gate
here exists to catch the order-of-magnitude regressions (a batched path
that stopped batching) that a same-machine floor can miss when the floor
itself is conservative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from .schemas import SCHEMA_VERSIONS, SchemaError, validate_bench
from .reader import load_bench_artifacts

__all__ = [
    "TRAJECTORY_SCHEMA",
    "MetricGate",
    "GATES",
    "gate_for",
    "extract_metrics",
    "new_entry",
    "empty_trajectory",
    "load_trajectory",
    "append_entry",
    "baseline_metrics",
    "DiffRow",
    "RegressionReport",
    "diff_metrics",
]

#: Version of the ``BENCH_trajectory.json`` artifact this module writes.
TRAJECTORY_SCHEMA = SCHEMA_VERSIONS["trajectory"]


# ----------------------------------------------------------------------
# Metric extraction
# ----------------------------------------------------------------------
def extract_metrics(
    artifacts: Mapping[str, Mapping[str, Any]]
) -> Dict[str, float]:
    """Flatten validated bench artifacts into ``{metric key: value}``.

    ``artifacts`` is ``{kind: payload}`` as returned by
    :func:`~repro.report.reader.load_bench_artifacts`; kinds that are
    absent contribute nothing (their metrics simply don't exist for this
    entry), and a ``trajectory`` payload is ignored -- it is the history,
    not a measurement.
    """
    metrics: Dict[str, float] = {}

    hotpath = artifacts.get("hotpath")
    if hotpath is not None:
        for row in hotpath["windows"]:
            w = int(row["window"])
            metrics[f"hotpath.indexed_ms.w{w}"] = float(row["indexed_ms"])
            metrics[f"hotpath.batched_ms.w{w}"] = float(row["batched_ms"])
            metrics[f"hotpath.batched_speedup.w{w}"] = float(
                row["batched_speedup"]
            )

    return dict(sorted(metrics.items()))


# ----------------------------------------------------------------------
# Regression gates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricGate:
    """Gating rule for one metric-key prefix: every gated metric is a
    speedup (higher is better), so a current/base ratio below ``ratio``
    regresses.
    """

    prefix: str
    ratio: float

    def regressed(self, base: float, current: float) -> bool:
        return current / base < self.ratio


#: Gated prefixes, first match wins.  Thresholds are calibrated so a quick
#: CI run diffing against a committed full-profile artifact stays clean on
#: any plausible runner while an order-of-magnitude regression still trips:
#: e.g. the committed window-256 batched speedup is ~5x, so the 0.2 gate
#: fires near 1x -- batching that no longer amortizes anything.
GATES: Tuple[MetricGate, ...] = (
    MetricGate("hotpath.batched_speedup.", ratio=0.2),
)


def gate_for(key: str) -> Optional[MetricGate]:
    """The gate covering ``key``, or ``None`` (tracked but not gated)."""
    for gate in GATES:
        if key.startswith(gate.prefix):
            return gate
    return None


# ----------------------------------------------------------------------
# The trajectory artifact
# ----------------------------------------------------------------------
def empty_trajectory() -> Dict[str, Any]:
    return {
        "benchmark": "trajectory",
        "schema": TRAJECTORY_SCHEMA,
        "entries": [],
    }


def new_entry(
    metrics: Mapping[str, float],
    sha: str,
    note: Optional[str] = None,
) -> Dict[str, Any]:
    """One trajectory entry: a git SHA plus its flattened metrics."""
    if not sha:
        raise SchemaError("a trajectory entry needs a non-empty sha")
    if not metrics:
        raise SchemaError(
            "a trajectory entry needs at least one metric (no artifacts read?)"
        )
    entry: Dict[str, Any] = {
        "sha": sha,
        "metrics": {key: float(metrics[key]) for key in sorted(metrics)},
    }
    if note:
        entry["note"] = note
    return entry


def load_trajectory(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a trajectory artifact."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such trajectory artifact") from None
    except ValueError as error:
        raise SchemaError(f"{path}: not valid JSON ({error})") from None
    if validate_bench(payload) != "trajectory":
        raise SchemaError(f"{path}: not a trajectory artifact")
    return payload


def append_entry(path: Union[str, Path], entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``entry`` to the artifact at ``path`` (created if absent).

    An existing entry with the same ``sha`` is *replaced in place* rather
    than duplicated, so re-running the report on the same commit is
    idempotent.  The updated payload is validated before being written and
    returned.
    """
    path = Path(path)
    payload = load_trajectory(path) if path.is_file() else empty_trajectory()
    for index, existing in enumerate(payload["entries"]):
        if existing.get("sha") == entry["sha"]:
            payload["entries"][index] = entry
            break
    else:
        payload["entries"].append(entry)
    validate_bench(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return payload


def baseline_metrics(base: Union[str, Path]) -> Tuple[str, Dict[str, float]]:
    """Resolve a ``--diff BASE`` operand to ``(label, metrics)``.

    ``BASE`` is either a directory of committed ``BENCH_*.json`` artifacts
    (metrics are extracted from them) or a ``BENCH_trajectory.json`` file
    (the newest entry's metrics are used, labelled by its SHA).
    """
    base = Path(base)
    if base.is_dir():
        artifacts = load_bench_artifacts(base)
        metrics = extract_metrics(artifacts)
        if not metrics:
            raise SchemaError(f"{base}: no BENCH_*.json artifacts to diff against")
        return str(base), metrics
    payload = load_trajectory(base)
    entry = payload["entries"][-1]
    return entry["sha"], {k: float(v) for k, v in entry["metrics"].items()}


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffRow:
    """One compared metric of a regression diff."""

    key: str
    base: float
    current: float
    gate: Optional[MetricGate]

    @property
    def ratio(self) -> float:
        return self.current / self.base

    @property
    def regression(self) -> bool:
        return self.gate is not None and self.gate.regressed(
            self.base, self.current
        )

    @property
    def verdict(self) -> str:
        if self.gate is None:
            return "info"
        return "REGRESSION" if self.regression else "ok"


@dataclass(frozen=True)
class RegressionReport:
    """Every compared metric plus the keys only one side measured."""

    base_label: str
    rows: Tuple[DiffRow, ...]
    only_base: Tuple[str, ...]
    only_current: Tuple[str, ...]

    @property
    def regressions(self) -> List[DiffRow]:
        return [row for row in self.rows if row.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Readable text table of the whole diff (printed by the CLI)."""
        from ..analysis.tables import format_table

        table_rows = []
        for row in self.rows:
            gate = "-"
            if row.gate is not None:
                gate = f">= {row.gate.ratio:g}x"
            table_rows.append(
                (row.key, row.base, row.current, row.ratio, gate, row.verdict)
            )
        lines = [
            format_table(
                ("metric", "base", "current", "ratio", "gate", "verdict"),
                table_rows,
                precision=4,
                title=f"Perf trajectory diff vs {self.base_label}",
            )
        ]
        if self.only_base:
            lines.append(
                f"skipped (base only): {len(self.only_base)} metric(s) "
                f"not measured by the current run"
            )
        if self.only_current:
            lines.append(
                f"skipped (current only): {len(self.only_current)} new "
                f"metric(s) with no baseline"
            )
        verdict = (
            "clean: no gated metric regressed"
            if self.ok
            else f"REGRESSION: {len(self.regressions)} gated metric(s) "
            f"beyond threshold"
        )
        lines.append(verdict)
        return "\n".join(lines)


def diff_metrics(
    base: Mapping[str, float],
    current: Mapping[str, float],
    base_label: str = "baseline",
) -> RegressionReport:
    """Compare two metric namespaces over their key intersection."""
    shared = sorted(set(base) & set(current))
    if not shared:
        raise SchemaError(
            "regression diff has no metrics in common with the baseline "
            "(were the runs configured so differently?)"
        )
    rows = tuple(
        DiffRow(
            key=key,
            base=float(base[key]),
            current=float(current[key]),
            gate=gate_for(key),
        )
        for key in shared
    )
    return RegressionReport(
        base_label=base_label,
        rows=rows,
        only_base=tuple(sorted(set(base) - set(current))),
        only_current=tuple(sorted(set(current) - set(base))),
    )
