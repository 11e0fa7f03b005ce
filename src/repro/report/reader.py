"""Typed read layer over the result store and the benchmark artifacts.

Everything the report site renders comes through here:

* :func:`family_status` / :func:`read_family` -- per-sweep-family views of
  a :class:`~repro.orchestrator.store.ResultStore`: which scenarios of the
  family's registered grid are present on disk, which are missing, and the
  decoded results themselves (a :class:`ResultSet`).  Completeness is
  checked against the **registry** -- the family's own ``build(profile)``
  grid is the ground truth of what a complete sweep holds -- so the report
  can prove "this page was regenerated from the store alone" before
  rendering a single number.
* Store health (``.corrupt`` quarantine files, ``.poison`` markers) is
  surfaced alongside, via
  :meth:`~repro.orchestrator.store.ResultStore.health`, so a report over a
  store with quarantined entries says so instead of silently rendering the
  survivors.
* :func:`load_bench_artifacts` -- the ``BENCH_hotpath.json`` perf artifact
  (plus the trajectory artifact), each validated against its schema
  (:mod:`repro.report.schemas`) before anything reads a number out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..orchestrator.registry import SweepFamily
from ..orchestrator.store import ResultStore, StoreHealth
from ..wsn.results import SimulationResult
from ..wsn.scenario import ScenarioConfig
from .schemas import BENCH_FILENAMES, validate_bench_file

__all__ = [
    "FamilyStatus",
    "ResultSet",
    "family_status",
    "read_family",
    "load_bench_artifacts",
    "store_health",
]


@dataclass(frozen=True)
class FamilyStatus:
    """Completeness of one sweep family's grid against a store.

    ``total`` counts the *unique* scenarios of the family's registered
    ``build(profile)`` grid (families may list duplicates; the executor
    deduplicates, and so does the store).  ``present`` counts how many of
    those have an entry on disk.  A family with an empty build grid (e.g.
    the in-memory ``example51`` trace) is complete by definition.
    """

    name: str
    description: str
    profile: str
    total: int
    present: int
    missing_labels: Tuple[str, ...]

    @property
    def missing(self) -> int:
        return self.total - self.present

    @property
    def complete(self) -> bool:
        return self.present == self.total

    @property
    def status(self) -> str:
        """One-word rendering state: ``complete`` / ``partial`` / ``empty``."""
        if self.complete:
            return "complete"
        return "empty" if self.present == 0 else "partial"


@dataclass(frozen=True)
class ResultSet:
    """The decoded results of one family's grid, aligned with the grid.

    ``results[i]`` is the stored :class:`SimulationResult` for
    ``scenarios[i]``, or ``None`` when that cell is missing from the store.
    """

    family: str
    profile: str
    scenarios: Tuple[ScenarioConfig, ...]
    results: Tuple[Optional[SimulationResult], ...]

    @property
    def present(self) -> List[Tuple[ScenarioConfig, SimulationResult]]:
        """Every ``(scenario, result)`` pair that resolved from the store."""
        return [
            (scenario, result)
            for scenario, result in zip(self.scenarios, self.results)
            if result is not None
        ]

    @property
    def complete(self) -> bool:
        return all(result is not None for result in self.results)


def _unique_grid(family: SweepFamily, profile: Any) -> List[ScenarioConfig]:
    unique: List[ScenarioConfig] = []
    seen = set()
    for scenario in family.build(profile):
        if scenario not in seen:
            seen.add(scenario)
            unique.append(scenario)
    return unique


def family_status(
    family: SweepFamily,
    profile: Any,
    store: ResultStore,
    max_missing_labels: int = 3,
) -> FamilyStatus:
    """Check the family's grid for presence in ``store`` (no decoding).

    Presence is a file-existence check against the content-addressed path,
    deliberately cheaper than a decode: several families share grids, and a
    status sweep over the whole registry should not re-parse every entry
    once per family.  A present-but-corrupt entry is therefore counted here
    and only discovered by :func:`read_family` (which quarantines it).
    """
    grid = _unique_grid(family, profile)
    missing = [
        scenario
        for scenario in grid
        if not store.path_for(scenario).is_file()
    ]
    labels = tuple(
        f"{scenario.label()} seed={scenario.seed}"
        for scenario in missing[:max_missing_labels]
    )
    return FamilyStatus(
        name=family.name,
        description=family.description,
        profile=getattr(profile, "name", str(profile)),
        total=len(grid),
        present=len(grid) - len(missing),
        missing_labels=labels,
    )


def read_family(
    family: SweepFamily, profile: Any, store: ResultStore
) -> ResultSet:
    """Decode the family's grid from ``store`` (missing cells stay ``None``).

    Goes through :meth:`ResultStore.get`, so undecodable entries are
    quarantined to ``.corrupt`` exactly as the executor would -- a
    subsequent :meth:`~repro.orchestrator.store.ResultStore.health` call
    sees them.
    """
    grid = tuple(_unique_grid(family, profile))
    return ResultSet(
        family=family.name,
        profile=getattr(profile, "name", str(profile)),
        scenarios=grid,
        results=tuple(store.get(scenario) for scenario in grid),
    )


def load_bench_artifacts(
    directory: Union[str, Path],
    kinds: Optional[Tuple[str, ...]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Load every present ``BENCH_<kind>.json`` under ``directory``.

    Returns ``{kind: validated payload}`` for the artifacts that exist;
    absent files are simply omitted (a repo mid-way through growing its
    benchmark suite has fewer than the full set).  An artifact that exists
    but fails validation raises
    :class:`~repro.report.schemas.SchemaError` -- a malformed committed
    artifact should fail the report, not vanish from it.
    """
    directory = Path(directory)
    artifacts: Dict[str, Dict[str, Any]] = {}
    for kind in kinds if kinds is not None else sorted(BENCH_FILENAMES):
        path = directory / BENCH_FILENAMES[kind]
        if not path.is_file():
            continue
        artifacts[kind] = validate_bench_file(path)
    return artifacts


def store_health(store: ResultStore) -> StoreHealth:
    """Convenience re-export of :meth:`ResultStore.health` for report code
    that only imports the reader."""
    return store.health()
