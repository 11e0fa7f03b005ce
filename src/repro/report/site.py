"""Assemble the static report site from a result store.

:func:`build_site` is the report pipeline's top: given a persistent
:class:`~repro.orchestrator.store.ResultStore` and a set of registered
sweep families, it renders one markdown page per family, an index page and
(when benchmark artifacts are available) a perf-trajectory page, plus
machine-readable ``data/<family>.txt`` / ``data/<family>.json`` files.

Two properties the whole pipeline leans on:

* **Store-only rendering.**  Every ``family.report(profile)`` call runs
  with ``REPRO_STORE_ONLY`` exported, so a missing cache entry raises
  instead of silently re-simulating -- a built site is *proof* that the
  store holds the complete sweep.  Families whose grids are incomplete get
  a status page saying exactly what is missing and no tables.
* **Determinism.**  The ``data/<family>.txt`` files are written in exactly
  the format the benchmark harness commits under ``results/`` (figure
  reports joined by blank lines), so CI byte-compares the regenerated
  tables against the committed ones; pages carry no timestamps, paths or
  machine identifiers, and the git SHA in the footer is injected by the
  caller (:func:`resolve_git_sha` is a convenience, not something the
  renderers consult).
"""

from __future__ import annotations

import json
import os
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..orchestrator.executor import STORE_ONLY_ENV
from ..orchestrator.registry import SweepFamily
from ..orchestrator.store import ResultStore, StoreHealth
from .aggregate import SummaryStats, robustness_rollup, summary_rollup
from .reader import FamilyStatus, family_status, read_family
from .render import (
    Heading,
    LinkList,
    Page,
    Paragraph,
    Pre,
    Spark,
    TableBlock,
    render_markdown,
)
from .trajectory import extract_metrics, gate_for

__all__ = [
    "ROBUSTNESS_FAMILIES",
    "SiteBuild",
    "resolve_git_sha",
    "build_site",
]

#: Families whose workloads inject dataset-level faults, and therefore get
#: the injected-fault precision/recall rollup on their pages.
ROBUSTNESS_FAMILIES = frozenset({"metric-sensitivity", "fault-churn"})


def resolve_git_sha(explicit: Optional[str] = None) -> str:
    """The commit to stamp pages with: explicit > ``GITHUB_SHA`` > git."""
    if explicit:
        return explicit
    from_env = os.environ.get("GITHUB_SHA")
    if from_env:
        return from_env
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "unknown"
    if proc.returncode == 0 and proc.stdout.strip():
        return proc.stdout.strip()
    return "unknown"


@contextmanager
def _store_only_env(store: ResultStore) -> Iterator[None]:
    """Export the store-only execution contract for a report call.

    The experiments layer resolves scenarios through the ``REPRO_*``
    environment (same pattern as the sweep CLI's report phase); here we
    additionally flip ``REPRO_STORE_ONLY`` so any cache miss raises instead
    of simulating.
    """
    names = ("REPRO_RESULT_STORE", "REPRO_WORKERS", STORE_ONLY_ENV)
    saved = {name: os.environ.get(name) for name in names}
    os.environ["REPRO_RESULT_STORE"] = str(store.root)
    os.environ["REPRO_WORKERS"] = "1"
    os.environ[STORE_ONLY_ENV] = "1"
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass
class SiteBuild:
    """What :func:`build_site` wrote, for the CLI to report."""

    out_dir: Path
    pages: List[Path] = field(default_factory=list)
    data_files: List[Path] = field(default_factory=list)
    statuses: List[FamilyStatus] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    health: Optional[StoreHealth] = None


def _stats_table(rollup: Mapping[str, SummaryStats]) -> TableBlock:
    return TableBlock(
        headers=("metric", "count", "mean", "median", "p95", "min", "max"),
        rows=tuple(
            (
                key,
                stats.count,
                stats.mean,
                stats.median,
                stats.p95,
                stats.minimum,
                stats.maximum,
            )
            for key, stats in rollup.items()
        ),
    )


def _family_page(
    family: SweepFamily,
    profile: Any,
    store: ResultStore,
    status: FamilyStatus,
) -> Tuple[Page, Optional[List[Any]]]:
    """Build one family's page; returns ``(page, figures or None)``."""
    page = Page(name=family.name, title=f"Sweep family: {family.name}")
    page.add(Paragraph(family.description))
    page.add(
        Paragraph(
            f"Grid: {status.present}/{status.total} scenario(s) present in "
            f"the store ({status.status}, profile {status.profile})."
        )
    )
    if not status.complete:
        if status.missing_labels:
            page.add(
                Paragraph(
                    "Missing, e.g.: " + "; ".join(status.missing_labels)
                )
            )
        page.add(
            Paragraph(
                f"Tables are not rendered from a partial store; run "
                f"`repro-wsn sweep {family.name} --store DIR` to complete "
                f"the family first."
            )
        )
        return page, None

    figures: List[Any] = []
    if family.report is not None:
        with _store_only_env(store):
            figures = list(family.report(profile))
    if figures:
        page.add(Heading("Figure tables"))
        for figure in figures:
            page.add(Pre(figure.report()))

    result_set = read_family(family, profile, store)
    present = result_set.present
    if present:
        page.add(Heading("Stored-run rollup"))
        page.add(
            Paragraph(
                f"Order statistics of every result-summary metric across "
                f"the family's {len(present)} stored run(s)."
            )
        )
        page.add(_stats_table(summary_rollup([r for _, r in present])))
        if family.name in ROBUSTNESS_FAMILIES:
            page.add(Heading("Injected-fault robustness rollup"))
            page.add(
                Paragraph(
                    "Precision/recall of the final estimates against the "
                    "injected dataset faults, and planned node "
                    "availability, across the same stored runs."
                )
            )
            page.add(_stats_table(robustness_rollup(present)))
    return page, figures


def _index_page(
    statuses: Sequence[FamilyStatus],
    health: StoreHealth,
    has_trajectory: bool,
    profile_name: str,
) -> Page:
    page = Page(
        name="index",
        title="WSN outlier-detection reproduction -- sweep report",
    )
    page.add(
        Paragraph(
            f"Every table on this site was rendered from the persistent "
            f"result store alone (profile {profile_name}); store-only mode "
            f"was enforced, so nothing was simulated at report time."
        )
    )
    page.add(
        Paragraph(
            f"Store health: {health.entries} entries, {health.corrupt} "
            f"corrupt, {health.poison} poisoned."
        )
    )
    if health.quarantined:
        page.add(
            Paragraph(
                f"Warning: {health.quarantined} quarantined entrie(s) were "
                f"excluded from every table on this site."
            )
        )
    page.add(
        TableBlock(
            headers=("family", "scenarios", "present", "status"),
            rows=tuple(
                (status.name, status.total, status.present, status.status)
                for status in statuses
            ),
        )
    )
    links = [(status.name, f"{status.name}.md") for status in statuses]
    if has_trajectory:
        links.append(("perf trajectory", "trajectory.md"))
    page.add(Heading("Pages"))
    page.add(LinkList(tuple(links)))
    return page


def _trajectory_page(
    bench: Optional[Mapping[str, Mapping[str, Any]]],
    trajectory: Optional[Mapping[str, Any]],
) -> Page:
    page = Page(name="trajectory", title="Perf trajectory")
    page.add(
        Paragraph(
            "Benchmark metrics flattened from the BENCH_*.json artifacts "
            "(keys are parameterised by configuration, so only like-for-"
            "like configurations ever get compared), and their history "
            "across committed PRs."
        )
    )
    if bench:
        metrics = extract_metrics(bench)
        page.add(Heading("Current artifact metrics"))
        page.add(
            TableBlock(
                headers=("metric", "value", "gated"),
                rows=tuple(
                    (key, value, gate_for(key) is not None)
                    for key, value in metrics.items()
                ),
                precision=4,
            )
        )
    entries = list(trajectory["entries"]) if trajectory else []
    if entries:
        page.add(Heading("Committed trajectory"))
        page.add(
            TableBlock(
                headers=("commit", "metrics", "note"),
                rows=tuple(
                    (
                        str(entry["sha"])[:12],
                        len(entry["metrics"]),
                        entry.get("note", ""),
                    )
                    for entry in entries
                ),
            )
        )
        gated_keys = sorted(
            {
                key
                for entry in entries
                for key in entry["metrics"]
                if gate_for(key) is not None
            }
        )
        if gated_keys:
            page.add(Heading("Gated metrics across PRs"))
            for key in gated_keys:
                values = tuple(
                    float(entry["metrics"][key])
                    for entry in entries
                    if key in entry["metrics"]
                )
                page.add(Spark(label=key, values=values))
    return page


def build_site(
    store: ResultStore,
    profile: Any,
    families: Sequence[SweepFamily],
    out_dir: Union[str, Path],
    git_sha: str = "unknown",
    bench: Optional[Mapping[str, Mapping[str, Any]]] = None,
    trajectory: Optional[Mapping[str, Any]] = None,
) -> SiteBuild:
    """Render the full report site under ``out_dir``.

    ``bench`` is the validated ``{kind: payload}`` artifact mapping (see
    :func:`~repro.report.reader.load_bench_artifacts`) and ``trajectory``
    the committed trajectory payload; either being present adds the
    perf-trajectory page.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    build = SiteBuild(out_dir=out_dir, health=store.health())
    profile_name = getattr(profile, "name", str(profile))
    footer = (
        f"repro-wsn report -- commit {git_sha} -- profile {profile_name}"
    )

    def write_page(page: Page) -> None:
        path = out_dir / f"{page.name}.md"
        path.write_text(render_markdown(page, footer=footer))
        build.pages.append(path)

    data_dir = out_dir / "data"
    for family in families:
        status = family_status(family, profile, store)
        build.statuses.append(status)
        page, figures = _family_page(family, profile, store, status)
        write_page(page)
        if figures is None:
            build.skipped.append(family.name)
            continue
        if figures:
            data_dir.mkdir(exist_ok=True)
            # Exactly the committed ``results/<family>.txt`` format: the
            # figure reports joined by blank lines (CI byte-compares).
            text_path = data_dir / f"{family.name}.txt"
            text_path.write_text(
                "\n\n".join(figure.report() for figure in figures) + "\n"
            )
            json_path = data_dir / f"{family.name}.json"
            json_path.write_text(
                json.dumps(
                    {
                        "family": family.name,
                        "profile": profile_name,
                        "figures": [f.to_json_dict() for f in figures],
                    },
                    sort_keys=True,
                    indent=1,
                )
                + "\n"
            )
            build.data_files.extend([text_path, json_path])

    has_trajectory = bool(bench) or bool(
        trajectory and trajectory.get("entries")
    )
    if has_trajectory:
        write_page(_trajectory_page(bench, trajectory))

    write_page(
        _index_page(build.statuses, build.health, has_trajectory, profile_name)
    )
    return build
