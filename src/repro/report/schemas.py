"""Centralised validation of every ``BENCH_*.json`` artifact schema.

Until this module existed, each benchmark artifact's shape was asserted by
an ad-hoc ``python - <<PY`` block inside the CI workflow -- five copies of
"load, check keys, print ok" that nothing else could reuse and no unit
test covered.  The validators here are that knowledge as a library: the CI
perf-smoke job runs ``python -m repro.report FILE...``, the report
pipeline validates artifacts before reading them, and
``tests/test_report.py`` pins every committed artifact (plus a malformed
rejection per schema) against the same code.  Run as a module, this file
validates nothing: it names that command and exits 2.

Each validator checks both *structure* (required keys, value types) and the
*semantic invariants* an artifact must never violate regardless of the
machine that produced it -- e.g. a hotpath artifact without its batched
columns is invalid, not merely slow.

The validated benchmark kinds and their current schema versions are listed
in :data:`SCHEMA_VERSIONS`; ``trajectory`` is the cross-PR perf-trajectory
artifact introduced by the report pipeline (see
:mod:`repro.report.trajectory`).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Union

from ..core.errors import ReproError

__all__ = [
    "SCHEMA_VERSIONS",
    "BENCH_FILENAMES",
    "SchemaError",
    "validate_bench",
    "validate_bench_file",
]

#: ``benchmark`` field -> current schema version, for every artifact kind.
SCHEMA_VERSIONS: Dict[str, int] = {
    "hotpath": 3,
    "trajectory": 1,
}

#: ``benchmark`` field -> conventional filename under ``results/`` (or a CI
#: artifact directory).
BENCH_FILENAMES: Dict[str, str] = {
    kind: f"BENCH_{kind}.json" for kind in SCHEMA_VERSIONS
}


class SchemaError(ReproError):
    """Raised when a benchmark artifact violates its schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _number(payload: Mapping[str, Any], key: str, context: str) -> float:
    value = payload.get(key)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{context}: {key!r} must be a number, got {value!r}",
    )
    _require(
        math.isfinite(float(value)), f"{context}: {key!r} must be finite"
    )
    return float(value)


def _positive(payload: Mapping[str, Any], key: str, context: str) -> float:
    value = _number(payload, key, context)
    _require(value > 0, f"{context}: {key!r} must be > 0, got {value!r}")
    return value


def _rows(payload: Mapping[str, Any], key: str, context: str) -> List[Mapping[str, Any]]:
    rows = payload.get(key)
    _require(
        isinstance(rows, list) and rows,
        f"{context}: {key!r} must be a non-empty list",
    )
    for row in rows:
        _require(isinstance(row, Mapping), f"{context}: {key!r} rows must be objects")
    return rows


def _header(payload: Mapping[str, Any], kind: str) -> None:
    _require(isinstance(payload, Mapping), f"{kind}: payload must be an object")
    _require(
        payload.get("benchmark") == kind,
        f"{kind}: 'benchmark' must be {kind!r}, got {payload.get('benchmark')!r}",
    )
    _require(
        payload.get("schema") == SCHEMA_VERSIONS[kind],
        f"{kind}: 'schema' must be {SCHEMA_VERSIONS[kind]}, "
        f"got {payload.get('schema')!r}",
    )


def _validate_hotpath(payload: Mapping[str, Any]) -> None:
    _header(payload, "hotpath")
    for row in _rows(payload, "windows", "hotpath"):
        context = f"hotpath window {row.get('window')!r}"
        window = _positive(row, "window", context)
        _require(window == int(window), f"{context}: 'window' must be integral")
        _positive(row, "indexed_ms", context)
        # The batched columns are load-bearing: CI's trajectory diff gates them,
        # and an artifact without them means the batch sweep never ran.
        _positive(row, "batched_ms", context)
        _positive(row, "batched_speedup", context)
        sweep = _rows(row, "batch_sweep", context)
        for cell in sweep:
            _positive(cell, "batch_size", context)
            _positive(cell, "batched_ms", context)
            _positive(cell, "speedup", context)


def _validate_trajectory(payload: Mapping[str, Any]) -> None:
    _header(payload, "trajectory")
    for entry in _rows(payload, "entries", "trajectory"):
        context = f"trajectory entry {entry.get('sha')!r}"
        _require(
            isinstance(entry.get("sha"), str) and entry["sha"],
            f"{context}: 'sha' must be a non-empty string",
        )
        metrics = entry.get("metrics")
        _require(
            isinstance(metrics, Mapping) and metrics,
            f"{context}: 'metrics' must be a non-empty object",
        )
        for key, value in metrics.items():
            _require(
                isinstance(key, str) and key,
                f"{context}: metric keys must be non-empty strings",
            )
            _require(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(float(value)),
                f"{context}: metric {key!r} must be a finite number, "
                f"got {value!r}",
            )


_VALIDATORS: Dict[str, Callable[[Mapping[str, Any]], None]] = {
    "hotpath": _validate_hotpath,
    "trajectory": _validate_trajectory,
}


def validate_bench(payload: Mapping[str, Any]) -> str:
    """Validate ``payload`` against its schema; returns the benchmark kind.

    The kind is dispatched from the payload's own ``benchmark`` field, so a
    caller holding an arbitrary ``BENCH_*.json`` needs no out-of-band
    knowledge.  Raises :class:`SchemaError` on any violation.
    """
    if not isinstance(payload, Mapping):
        raise SchemaError(f"artifact payload must be an object, got {type(payload).__name__}")
    kind = payload.get("benchmark")
    validator = _VALIDATORS.get(kind)
    if validator is None:
        raise SchemaError(
            f"unknown benchmark kind {kind!r}; expected one of "
            f"{sorted(_VALIDATORS)}"
        )
    validator(payload)
    return kind


def validate_bench_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate one artifact file; returns the parsed payload."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such artifact") from None
    except ValueError as error:
        raise SchemaError(f"{path}: not valid JSON ({error})") from None
    try:
        validate_bench(payload)
    except SchemaError as error:
        raise SchemaError(f"{path}: {error}") from None
    return payload


if __name__ == "__main__":  # pragma: no cover - run as a subprocess by the tests
    print("validate artifacts with: python -m repro.report FILE...", file=sys.stderr)
    sys.exit(2)
