"""Tests for the report pipeline: schemas, reader, aggregate, site, trajectory.

The load-bearing guarantees:

* the report site is **byte-deterministic**: two scratch sweep families are
  simulated into a fixture store and rendered (markdown pages + data
  files), and every produced byte is pinned against committed goldens under
  ``tests/goldens/report/`` (regenerate deliberately with
  ``REPRO_UPDATE_GOLDENS=1 pytest tests/test_report.py``);
* rendering is **store-only**: a complete family renders without a single
  simulation, an incomplete one is skipped with its gap reported -- never
  silently recomputed;
* every committed ``BENCH_*.json`` artifact validates against the
  centralised schemas, and each schema rejects a characteristic
  malformation;
* aggregation obeys its order-statistics invariants (hypothesis property
  tests): bounded by min/max, ratio symmetry, permutation invariance;
* the perf-trajectory diff compares only like-for-like metric keys, trips
  its gates on injected regressions, and appending entries is idempotent
  per commit.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.experiments  # noqa: F401  (importing registers the sweep families)
from repro.core.config import DetectionConfig
from repro.core.errors import ExperimentError
from repro.experiments import TINY_PROFILE
from repro.experiments.common import FigureResult, run_many
from repro.orchestrator import (
    ResultStore,
    SweepFamily,
    clear_memory,
    register,
    run_scenarios,
    unregister,
)
from repro.orchestrator import executor as executor_module
from repro.report import (
    GATES,
    SchemaError,
    append_entry,
    baseline_metrics,
    build_site,
    diff_metrics,
    extract_metrics,
    family_status,
    gate_for,
    load_bench_artifacts,
    load_trajectory,
    new_entry,
    paired_ratio,
    percentile,
    read_family,
    robustness_rollup,
    summarize,
    summary_rollup,
    validate_bench,
    validate_bench_file,
)
from repro.wsn.scenario import ScenarioConfig

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
GOLDEN_ROOT = Path(__file__).resolve().parent / "goldens" / "report"

#: All committed benchmark measurement artifacts (kind -> filename).
COMMITTED_KINDS = ("hotpath",)


@pytest.fixture(autouse=True)
def fresh_memory():
    clear_memory()
    yield
    clear_memory()


# ----------------------------------------------------------------------
# Scratch sweep families (the golden fixture workload)
# ----------------------------------------------------------------------
def _alpha_build(profile):
    return [
        ScenarioConfig(
            detection=DetectionConfig(window_length=2),
            node_count=6,
            rounds=3,
            seed=seed,
        )
        for seed in (0, 1)
    ]


def _alpha_report(profile):
    results = run_many(_alpha_build(profile))
    x_values = [0.0, 1.0]
    return [
        FigureResult(
            figure="Scratch alpha: fraction of sensors with an exact estimate",
            x_label="seed",
            x_values=x_values,
            series={"exact": [r.accuracy.exact_fraction for r in results]},
            notes="golden fixture",
        ),
        FigureResult(
            figure="Scratch alpha: transmissions",
            x_label="seed",
            x_values=x_values,
            series={"tx": [float(r.channel.transmissions) for r in results]},
            notes="golden fixture",
        ),
    ]


def _beta_build(profile):
    return [
        ScenarioConfig(
            detection=DetectionConfig(window_length=2, ranking="knn"),
            node_count=6,
            rounds=3,
            seed=seed,
        )
        for seed in (0, 1)
    ]


def _beta_report(profile):
    scenarios = _beta_build(profile)
    results = run_many(scenarios)
    return [
        FigureResult(
            figure="Scratch beta: avg energy per node per round [J]",
            x_label="seed",
            x_values=[float(s.seed) for s in scenarios],
            series={
                "tx": [
                    r.energy.average_per_node_per_round("tx_joules")
                    for r in results
                ],
                "rx": [
                    r.energy.average_per_node_per_round("rx_joules")
                    for r in results
                ],
            },
            notes="golden fixture",
        )
    ]


@pytest.fixture
def scratch_families():
    families = [
        SweepFamily(
            name="scratch-alpha",
            description="Golden fixture family A (global NN, w=2)",
            build=_alpha_build,
            report=_alpha_report,
        ),
        SweepFamily(
            name="scratch-beta",
            description="Golden fixture family B (global KNN, w=2)",
            build=_beta_build,
            report=_beta_report,
        ),
    ]
    for family in families:
        register(family, replace=True)
    yield families
    for family in families:
        unregister(family.name)


@pytest.fixture
def fixture_store(tmp_path, scratch_families):
    store = ResultStore(tmp_path / "store")
    scenarios = [
        scenario
        for family in scratch_families
        for scenario in family.build(TINY_PROFILE)
    ]
    run_scenarios(scenarios, workers=1, store=store)
    clear_memory()  # the site build must resolve purely from disk
    return store


#: Static benchmark fixtures for the trajectory page: committed-artifact
#: payloads would churn the goldens every PR, these never change.
FIXTURE_HOTPATH = {
    "benchmark": "hotpath",
    "schema": 3,
    "windows": [
        {
            "window": 64,
            "indexed_ms": 0.5,
            "batched_ms": 0.1,
            "batched_speedup": 5.0,
            "batch_sweep": [
                {"batch_size": 4, "batched_ms": 0.2, "speedup": 2.5}
            ],
        },
        {
            "window": 256,
            "indexed_ms": 1.0,
            "batched_ms": 0.25,
            "batched_speedup": 4.0,
            "batch_sweep": [
                {"batch_size": 4, "batched_ms": 0.5, "speedup": 2.0}
            ],
        },
    ],
}

FIXTURE_TRAJECTORY = {
    "benchmark": "trajectory",
    "schema": 1,
    "entries": [
        {
            "sha": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "metrics": {
                "hotpath.indexed_ms.w256": 1.1,
                "hotpath.batched_speedup.w256": 3.6,
            },
        },
        {
            "sha": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
            "metrics": {
                "hotpath.indexed_ms.w256": 1.0,
                "hotpath.batched_speedup.w256": 4.0,
            },
            "note": "per-event hot path sped up",
        },
    ],
}

GOLDEN_SHA = "0123456789abcdef0123456789abcdef01234567"


# ----------------------------------------------------------------------
# Golden-file site rendering
# ----------------------------------------------------------------------
class TestGoldenSite:
    def _build(self, fixture_store, scratch_families, out_dir):
        return build_site(
            fixture_store,
            TINY_PROFILE,
            scratch_families,
            out_dir,
            git_sha=GOLDEN_SHA,
            bench={"hotpath": copy.deepcopy(FIXTURE_HOTPATH)},
            trajectory=copy.deepcopy(FIXTURE_TRAJECTORY),
        )

    def test_site_matches_goldens_byte_for_byte(
        self, fixture_store, scratch_families, tmp_path
    ):
        site_dir = tmp_path / "site"
        build = self._build(fixture_store, scratch_families, site_dir)
        assert not build.skipped

        generated = {
            str(path.relative_to(site_dir)): path.read_bytes()
            for path in sorted(site_dir.rglob("*"))
            if path.is_file()
        }
        assert generated, "site build produced no files"

        if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
            shutil.rmtree(GOLDEN_ROOT, ignore_errors=True)
            for rel, data in generated.items():
                dest = GOLDEN_ROOT / rel
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(data)
            pytest.skip("goldens regenerated")

        golden = {
            str(path.relative_to(GOLDEN_ROOT)): path.read_bytes()
            for path in sorted(GOLDEN_ROOT.rglob("*"))
            if path.is_file()
        }
        assert sorted(generated) == sorted(golden)
        for rel in sorted(generated):
            assert generated[rel] == golden[rel], f"{rel} differs from golden"

    def test_rebuild_is_byte_identical(
        self, fixture_store, scratch_families, tmp_path
    ):
        """Two builds over the same store produce the same bytes -- no
        hidden timestamps, dict-order dependence or machine identifiers."""
        first_dir, second_dir = tmp_path / "one", tmp_path / "two"
        self._build(fixture_store, scratch_families, first_dir)
        clear_memory()
        self._build(fixture_store, scratch_families, second_dir)
        first = sorted(p for p in first_dir.rglob("*") if p.is_file())
        second = sorted(p for p in second_dir.rglob("*") if p.is_file())
        assert [p.relative_to(first_dir) for p in first] == [
            p.relative_to(second_dir) for p in second
        ]
        for left, right in zip(first, second):
            assert left.read_bytes() == right.read_bytes(), left.name

    def test_build_never_simulates(
        self, fixture_store, scratch_families, tmp_path, monkeypatch
    ):
        def forbidden(_scenario):
            raise AssertionError("report build must not simulate")

        monkeypatch.setattr(executor_module, "run_scenario_worker", forbidden)
        build = self._build(fixture_store, scratch_families, tmp_path / "s")
        assert not build.skipped

    def test_incomplete_family_is_skipped_not_simulated(
        self, tmp_path, scratch_families
    ):
        empty_store = ResultStore(tmp_path / "empty")
        build = build_site(
            empty_store,
            TINY_PROFILE,
            scratch_families,
            tmp_path / "site",
            git_sha=GOLDEN_SHA,
        )
        assert build.skipped == ["scratch-alpha", "scratch-beta"]
        assert build.data_files == []
        page = (tmp_path / "site" / "scratch-alpha.md").read_text()
        assert "0/2 scenario(s)" in page
        assert "not rendered from a partial store" in page


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class TestReader:
    def test_family_status_counts(self, fixture_store, scratch_families):
        alpha = scratch_families[0]
        status = family_status(alpha, TINY_PROFILE, fixture_store)
        assert (status.total, status.present, status.missing) == (2, 2, 0)
        assert status.complete and status.status == "complete"

    def test_partial_and_empty_status(self, tmp_path, scratch_families):
        alpha = scratch_families[0]
        store = ResultStore(tmp_path / "partial")
        status = family_status(alpha, TINY_PROFILE, store)
        assert status.status == "empty"
        run_scenarios(_alpha_build(TINY_PROFILE)[:1], store=store)
        status = family_status(alpha, TINY_PROFILE, store)
        assert status.status == "partial"
        assert status.missing == 1
        assert len(status.missing_labels) == 1
        assert "seed=1" in status.missing_labels[0]

    def test_read_family_aligns_results_with_grid(
        self, fixture_store, scratch_families
    ):
        result_set = read_family(
            scratch_families[0], TINY_PROFILE, fixture_store
        )
        assert result_set.complete
        assert len(result_set.present) == 2
        for scenario, result in result_set.present:
            assert result.scenario == scenario

    def test_read_family_leaves_missing_cells_none(
        self, tmp_path, scratch_families
    ):
        store = ResultStore(tmp_path / "p")
        run_scenarios(_alpha_build(TINY_PROFILE)[:1], store=store)
        result_set = read_family(scratch_families[0], TINY_PROFILE, store)
        assert not result_set.complete
        assert result_set.results[0] is not None
        assert result_set.results[1] is None

    def test_load_bench_artifacts_omits_missing_files(self, tmp_path):
        (tmp_path / "BENCH_hotpath.json").write_text(
            json.dumps(FIXTURE_HOTPATH)
        )
        artifacts = load_bench_artifacts(tmp_path)
        assert sorted(artifacts) == ["hotpath"]

    def test_load_bench_artifacts_raises_on_invalid(self, tmp_path):
        (tmp_path / "BENCH_hotpath.json").write_text("{}")
        with pytest.raises(SchemaError):
            load_bench_artifacts(tmp_path)

    def test_load_bench_artifacts_ignores_a_stray_e2e_file(self, tmp_path):
        """``BENCH_e2e.json`` is no longer an artifact kind: a leftover copy
        in a bench directory is neither validated nor read."""
        (tmp_path / "BENCH_hotpath.json").write_text(
            json.dumps(FIXTURE_HOTPATH)
        )
        (tmp_path / "BENCH_e2e.json").write_text("{}")
        assert sorted(load_bench_artifacts(tmp_path)) == ["hotpath"]

    def test_load_bench_artifacts_ignores_a_stray_setup_file(self, tmp_path):
        """``BENCH_setup.json`` left with the grid spatial index: a leftover
        copy in a bench directory is neither validated nor read."""
        (tmp_path / "BENCH_hotpath.json").write_text(
            json.dumps(FIXTURE_HOTPATH)
        )
        (tmp_path / "BENCH_setup.json").write_text("{}")
        assert sorted(load_bench_artifacts(tmp_path)) == ["hotpath"]


# ----------------------------------------------------------------------
# Schemas: every committed artifact validates; malformations are rejected
# ----------------------------------------------------------------------
class TestSchemas:
    @pytest.mark.parametrize("kind", COMMITTED_KINDS)
    def test_committed_artifact_validates(self, kind):
        path = RESULTS_DIR / f"BENCH_{kind}.json"
        assert path.is_file(), f"missing committed artifact {path}"
        payload = validate_bench_file(path)
        assert payload["benchmark"] == kind

    @staticmethod
    def _committed(kind):
        return json.loads((RESULTS_DIR / f"BENCH_{kind}.json").read_text())

    def test_hotpath_rejects_nonpositive_speedup(self):
        payload = self._committed("hotpath")
        payload["windows"][0]["batched_speedup"] = 0
        with pytest.raises(SchemaError, match="batched_speedup"):
            validate_bench(payload)

    def test_e2e_payload_is_an_unknown_kind(self):
        payload = {
            "benchmark": "e2e",
            "schema": 2,
            "scenarios": [
                {"label": "global-nn", "nodes": 9, "rounds": 6, "window": 8,
                 "wallclock_seconds": 0.5, "accuracy_exact": 1.0}
            ],
        }
        with pytest.raises(SchemaError, match="unknown benchmark kind 'e2e'"):
            validate_bench(payload)
        assert not (RESULTS_DIR / "BENCH_e2e.json").exists()

    def test_setup_payload_is_an_unknown_kind(self):
        payload = {
            "benchmark": "setup",
            "schema": 1,
            "brute_cap": 4096,
            "sizes": [
                {"nodes": 1024, "terrain": 219.8, "layout_ms": 1.0,
                 "grid_ms": 10.0, "brute_ms": 70.0, "speedup": 7.0,
                 "edges": 2548}
            ],
        }
        with pytest.raises(SchemaError, match="unknown benchmark kind 'setup'"):
            validate_bench(payload)
        assert not (RESULTS_DIR / "BENCH_setup.json").exists()

    def test_trajectory_rejects_non_numeric_metric(self):
        payload = copy.deepcopy(FIXTURE_TRAJECTORY)
        payload["entries"][0]["metrics"]["hotpath.batched_speedup.w256"] = "fast"
        with pytest.raises(SchemaError, match="finite number"):
            validate_bench(payload)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SchemaError, match="unknown benchmark kind"):
            validate_bench({"benchmark": "warp-drive", "schema": 1})

    def test_wrong_schema_version_is_rejected(self):
        payload = copy.deepcopy(FIXTURE_HOTPATH)
        payload["schema"] = 99
        with pytest.raises(SchemaError, match="'schema'"):
            validate_bench(payload)

    def test_cli_validates_and_reports(self, capsys, tmp_path):
        from repro.report.__main__ import main

        paths = [
            str(RESULTS_DIR / f"BENCH_{kind}.json") for kind in COMMITTED_KINDS
        ]
        assert main(paths) == 0
        out = capsys.readouterr().out
        for kind in COMMITTED_KINDS:
            assert f"{kind} schema" in out

        bad = tmp_path / "BENCH_hotpath.json"
        bad.write_text("{}")
        assert main([str(bad)]) == 1
        assert main([]) == 2

    def test_cli_runs_as_a_module_without_warnings(self):
        """``python -m repro.report`` imports every module once: under
        ``-W error`` a double import (runpy's RuntimeWarning) would fail."""
        env = {**os.environ, "PYTHONPATH": str(RESULTS_DIR.parent / "src")}
        paths = sorted(str(path) for path in RESULTS_DIR.glob("BENCH_*.json"))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.report", *paths],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.count(" ok\n") == len(paths)

    def test_schemas_module_run_directly_exits_two(self, tmp_path):
        """``python -m repro.report.schemas`` is not the validator CLI: it
        must fail with the bad-input code instead of passing unchecked."""
        env = {**os.environ, "PYTHONPATH": str(RESULTS_DIR.parent / "src")}
        bad = tmp_path / "BENCH_hotpath.json"
        bad.write_text("{}")
        done = subprocess.run(
            [sys.executable, "-m", "repro.report.schemas", str(bad)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert "python -m repro.report FILE..." in done.stderr


# ----------------------------------------------------------------------
# Aggregation invariants (hypothesis)
# ----------------------------------------------------------------------
finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_values, min_size=1, max_size=50)

#: One representative summary key per metric space the results report in:
#: energy, accuracy, traffic, event counts, availability.
SUMMARY_KEYS = (
    "avg_total_per_round",
    "accuracy_exact",
    "transmissions",
    "events",
    "mean_availability",
)


class _StubResult:
    """Quacks like a SimulationResult for summary_rollup."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)

    def summary(self):
        return dict(self._mapping)


class TestAggregateProperties:
    @given(values=value_lists)
    @example(values=[688843.7030500963] * 8)
    @settings(max_examples=100, deadline=None)
    def test_statistics_are_bounded_by_min_and_max(self, values):
        stats = summarize(values)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
        for statistic in (stats.mean, stats.median, stats.p95):
            assert stats.minimum <= statistic <= stats.maximum

    @given(values=value_lists)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values):
        assert summarize(values) == summarize(list(reversed(values)))
        assert summarize(values) == summarize(sorted(values))

    @given(
        baseline=st.floats(min_value=1e-6, max_value=1e9),
        variant=st.floats(min_value=1e-6, max_value=1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_ratio_symmetry(self, baseline, variant):
        forward = paired_ratio(baseline, variant)
        backward = paired_ratio(variant, baseline)
        assert forward * backward == pytest.approx(1.0, rel=1e-9)

    @given(values=value_lists, q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_percentile_within_range_and_monotone_endpoints(self, values, q):
        assert min(values) <= percentile(values, q) <= max(values)
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 100.0) == max(values)

    @given(
        summaries=st.lists(
            st.dictionaries(
                keys=st.sampled_from(SUMMARY_KEYS),
                values=finite_values,
                min_size=1,
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_summary_rollup_is_permutation_invariant(self, summaries):
        results = [_StubResult(mapping) for mapping in summaries]
        assert summary_rollup(results) == summary_rollup(
            list(reversed(results))
        )

    def test_empty_inputs_are_rejected(self):
        with pytest.raises(ExperimentError):
            summarize([])
        with pytest.raises(ExperimentError):
            percentile([], 50.0)
        with pytest.raises(ExperimentError):
            paired_ratio(0.0, 1.0)


class TestRobustnessRollup:
    def test_rollup_over_injected_runs(self):
        from repro.datasets.outlier_injection import InjectionConfig

        scenarios = [
            ScenarioConfig(
                detection=DetectionConfig(
                    ranking="knn", k=4, n_outliers=4, window_length=2
                ),
                node_count=6,
                rounds=3,
                injection=InjectionConfig(spike_probability=0.2),
                seed=seed,
            )
            for seed in (0, 1)
        ]
        results = run_many(scenarios)
        rollup = robustness_rollup(list(zip(scenarios, results)))
        assert sorted(rollup) == [
            "injected_precision",
            "injected_recall",
            "mean_availability",
        ]
        for stats in rollup.values():
            assert stats.count == 2
            assert 0.0 <= stats.minimum <= stats.maximum <= 1.0
            assert len(stats.as_row()) == 6

    def test_rollup_rejects_empty_input(self):
        with pytest.raises(ExperimentError):
            robustness_rollup([])


# ----------------------------------------------------------------------
# Trajectory: extraction, gates, diffs, the committed artifact
# ----------------------------------------------------------------------
class TestTrajectory:
    def test_extraction_keys_are_config_parameterised(self):
        metrics = extract_metrics({"hotpath": FIXTURE_HOTPATH})
        assert metrics["hotpath.indexed_ms.w64"] == 0.5
        assert metrics["hotpath.batched_speedup.w64"] == 5.0
        assert metrics["hotpath.batched_speedup.w256"] == 4.0

    def test_extraction_over_committed_artifacts(self):
        metrics = extract_metrics(load_bench_artifacts(RESULTS_DIR))
        assert "hotpath.batched_speedup.w256" in metrics
        assert not any(key.startswith(("e2e.", "setup.")) for key in metrics)

    def test_gates_cover_ratios_but_not_raw_latencies(self):
        assert gate_for("hotpath.batched_speedup.w256") is not None
        assert gate_for("hotpath.indexed_ms.w256") is None
        assert gate_for("e2e.total_wallclock_s") is None

    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.prefix)
    def test_every_gate_covers_a_committed_metric(self, gate):
        """No gate is left guarding a metric no artifact produces."""
        metrics = extract_metrics(load_bench_artifacts(RESULTS_DIR))
        assert any(gate_for(key) is gate for key in metrics)

    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.prefix)
    def test_gate_trips_only_below_its_ratio(self, gate):
        assert gate.regressed(10.0, 10.0 * gate.ratio * 0.99)
        assert not gate.regressed(10.0, 10.0 * gate.ratio)
        assert not gate.regressed(10.0, 20.0)

    def test_committed_trajectory_matches_committed_artifacts(self):
        """The newest committed trajectory entry is exactly the metrics of
        the committed BENCH_*.json artifacts -- regenerating it is a no-op."""
        payload = load_trajectory(RESULTS_DIR / "BENCH_trajectory.json")
        artifacts = load_bench_artifacts(RESULTS_DIR)
        artifacts.pop("trajectory", None)
        assert payload["entries"][-1]["metrics"] == extract_metrics(artifacts)

    def test_older_e2e_keys_diff_as_base_only(self):
        """Entries from before the e2e suite's removal keep their ``e2e.*``
        keys; diffing current artifacts against one lists them as base-only
        and gates none of them."""
        payload = load_trajectory(RESULTS_DIR / "BENCH_trajectory.json")
        older = [
            entry for entry in payload["entries"]
            if any(key.startswith("e2e.") for key in entry["metrics"])
        ]
        assert older, "no committed entry carries e2e keys"
        artifacts = load_bench_artifacts(RESULTS_DIR)
        artifacts.pop("trajectory", None)
        report = diff_metrics(older[-1]["metrics"], extract_metrics(artifacts))
        e2e_keys = {k for k in older[-1]["metrics"] if k.startswith("e2e.")}
        assert e2e_keys <= set(report.only_base)
        assert not any(row.key.startswith("e2e.") for row in report.rows)
        assert all(gate_for(key) is None for key in e2e_keys)

    def test_older_setup_keys_diff_as_base_only(self):
        """Entries from before the grid spatial index's removal keep their
        ``setup.*`` keys; diffing current artifacts against one lists them
        as base-only and gates none of them."""
        assert gate_for("setup.speedup.n4096") is None
        payload = load_trajectory(RESULTS_DIR / "BENCH_trajectory.json")
        older = [
            entry for entry in payload["entries"]
            if any(key.startswith("setup.") for key in entry["metrics"])
        ]
        assert older, "no committed entry carries setup keys"
        artifacts = load_bench_artifacts(RESULTS_DIR)
        artifacts.pop("trajectory", None)
        report = diff_metrics(older[-1]["metrics"], extract_metrics(artifacts))
        setup_keys = {k for k in older[-1]["metrics"] if k.startswith("setup.")}
        assert "setup.speedup.n4096" in setup_keys
        assert setup_keys <= set(report.only_base)
        assert report.ok
        assert all(gate_for(key) is None for key in setup_keys)

    def test_self_diff_is_clean(self):
        metrics = extract_metrics({"hotpath": FIXTURE_HOTPATH})
        report = diff_metrics(metrics, metrics)
        assert report.ok
        assert not report.only_base and not report.only_current
        assert "clean" in report.render()

    def test_injected_regression_trips_the_gate(self):
        base = extract_metrics({"hotpath": FIXTURE_HOTPATH})
        current = dict(base)
        current["hotpath.batched_speedup.w256"] = (
            base["hotpath.batched_speedup.w256"] / 20.0
        )
        report = diff_metrics(base, current)
        assert not report.ok
        assert [row.key for row in report.regressions] == [
            "hotpath.batched_speedup.w256"
        ]
        assert "REGRESSION" in report.render()

    def test_diff_compares_only_the_intersection(self):
        base = {"hotpath.batched_speedup.w256": 5.0, "setup.speedup.n4096": 9.0}
        current = {"hotpath.batched_speedup.w256": 4.8, "setup.speedup.n512": 2.0}
        report = diff_metrics(base, current)
        assert [row.key for row in report.rows] == ["hotpath.batched_speedup.w256"]
        assert report.only_base == ("setup.speedup.n4096",)
        assert report.only_current == ("setup.speedup.n512",)

    def test_fully_disjoint_diff_is_an_error(self):
        with pytest.raises(SchemaError, match="no metrics in common"):
            diff_metrics({"a.b": 1.0}, {"c.d": 1.0})

    def test_append_entry_appends_and_replaces_idempotently(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        first = new_entry({"hotpath.batched_speedup.w256": 10.0}, "sha-one")
        payload = append_entry(path, first)
        assert [e["sha"] for e in payload["entries"]] == ["sha-one"]

        second = new_entry({"hotpath.batched_speedup.w256": 12.0}, "sha-two")
        payload = append_entry(path, second)
        assert [e["sha"] for e in payload["entries"]] == ["sha-one", "sha-two"]

        replaced = new_entry({"hotpath.batched_speedup.w256": 13.0}, "sha-two")
        payload = append_entry(path, replaced)
        assert [e["sha"] for e in payload["entries"]] == ["sha-one", "sha-two"]
        assert payload["entries"][-1]["metrics"]["hotpath.batched_speedup.w256"] == 13.0
        # What landed on disk revalidates.
        assert load_trajectory(path)["entries"] == payload["entries"]

    def test_new_entry_rejects_empty_inputs(self):
        with pytest.raises(SchemaError):
            new_entry({}, "sha")
        with pytest.raises(SchemaError):
            new_entry({"a.b": 1.0}, "")

    def test_baseline_metrics_from_file_and_directory(self, tmp_path):
        label, metrics = baseline_metrics(RESULTS_DIR / "BENCH_trajectory.json")
        assert metrics
        assert label  # the newest entry's sha

        (tmp_path / "BENCH_hotpath.json").write_text(
            json.dumps(FIXTURE_HOTPATH)
        )
        label, metrics = baseline_metrics(tmp_path)
        assert label == str(tmp_path)
        assert metrics["hotpath.batched_speedup.w256"] == 4.0

    def test_baseline_metrics_errors(self, tmp_path):
        with pytest.raises(SchemaError):
            baseline_metrics(tmp_path / "missing.json")
        with pytest.raises(SchemaError, match="no BENCH"):
            baseline_metrics(tmp_path)


# ----------------------------------------------------------------------
# The report CLI
# ----------------------------------------------------------------------
class TestReportCli:
    @staticmethod
    def _bench_dir(tmp_path):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir(exist_ok=True)
        (bench_dir / "BENCH_hotpath.json").write_text(
            json.dumps(FIXTURE_HOTPATH)
        )
        return bench_dir

    def _report(self, fixture_store, tmp_path, *extra):
        from repro.cli import main

        return main(
            [
                "report",
                "--store", str(fixture_store.root),
                "--out", str(tmp_path / "site"),
                "--profile", "tiny",
                "--families", "scratch-alpha,scratch-beta",
                "--git-sha", GOLDEN_SHA,
                "--bench-dir", str(self._bench_dir(tmp_path)),
                *extra,
            ]
        )

    def test_report_renders_site(self, fixture_store, tmp_path, capsys):
        assert self._report(fixture_store, tmp_path) == 0
        out = capsys.readouterr().out
        assert "scratch-alpha" in out and "complete" in out
        site = tmp_path / "site"
        assert (site / "index.md").is_file()
        assert (site / "data" / "scratch-beta.txt").is_file()
        assert GOLDEN_SHA in (site / "index.md").read_text()

    def test_clean_diff_exits_zero(self, fixture_store, tmp_path, capsys):
        trajectory = tmp_path / "trajectory.json"
        append_entry(
            trajectory,
            new_entry(extract_metrics({"hotpath": FIXTURE_HOTPATH}), "base"),
        )
        code = self._report(
            fixture_store, tmp_path, "--diff", str(trajectory)
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_regression_diff_exits_nonzero(
        self, fixture_store, tmp_path, capsys
    ):
        regressed = copy.deepcopy(FIXTURE_HOTPATH)
        for row in regressed["windows"]:
            row["batched_speedup"] *= 100.0  # baseline far above us
        trajectory = tmp_path / "trajectory.json"
        append_entry(
            trajectory,
            new_entry(extract_metrics({"hotpath": regressed}), "base"),
        )
        code = self._report(
            fixture_store, tmp_path, "--diff", str(trajectory)
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "base, message",
        [("missing.json", "no such trajectory artifact"),
         ("malformed.json", "not valid JSON")],
    )
    def test_bad_diff_base_exits_two_before_the_site_build(
        self, fixture_store, tmp_path, capsys, base, message
    ):
        """Bad input is told apart from a regression (exit 1)."""
        (tmp_path / "malformed.json").write_text("{")
        code = self._report(
            fixture_store, tmp_path, "--diff", str(tmp_path / base)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "site").exists()

    @pytest.mark.parametrize("bench", ["missing", "empty"])
    def test_diff_without_bench_artifacts_exits_two(
        self, tmp_path, monkeypatch, capsys, bench
    ):
        """A --bench-dir that is missing or holds no BENCH_*.json is bad
        input (exit 2), not a regression (exit 1)."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        bench_dir = tmp_path / "bench"
        if bench == "empty":
            bench_dir.mkdir()
        code = main(
            [
                "report",
                "--bench-dir", str(bench_dir),
                "--diff", str(RESULTS_DIR / "BENCH_trajectory.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --bench-dir ") and err.count("\n") == 1

    def test_injected_regression_exits_one(self, tmp_path, monkeypatch, capsys):
        """CI's report-smoke drill: the committed artifacts with every
        batched speedup cut 100x must fail the diff against the committed
        trajectory with exit 1."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        for path in RESULTS_DIR.glob("BENCH_*.json"):
            shutil.copy(path, tmp_path)
        hotpath = tmp_path / "BENCH_hotpath.json"
        payload = json.loads(hotpath.read_text())
        for row in payload["windows"]:
            row["batched_speedup"] = row["batched_speedup"] / 100.0
        hotpath.write_text(json.dumps(payload))
        code = main(
            [
                "report",
                "--bench-dir", str(tmp_path),
                "--diff", str(RESULTS_DIR / "BENCH_trajectory.json"),
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_update_trajectory_writes_the_artifact(
        self, fixture_store, tmp_path, capsys
    ):
        trajectory = tmp_path / "trajectory.json"
        code = self._report(
            fixture_store, tmp_path, "--update-trajectory", str(trajectory)
        )
        assert code == 0
        payload = load_trajectory(trajectory)
        assert [e["sha"] for e in payload["entries"]] == [GOLDEN_SHA]

    def test_diff_without_store_runs_bench_only(
        self, tmp_path, monkeypatch, capsys
    ):
        """CI's perf-smoke job diffs fresh bench artifacts against the
        committed trajectory with no result store in sight."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        trajectory = tmp_path / "trajectory.json"
        append_entry(
            trajectory,
            new_entry(extract_metrics({"hotpath": FIXTURE_HOTPATH}), "base"),
        )
        code = main(
            [
                "report",
                "--bench-dir", str(self._bench_dir(tmp_path)),
                "--git-sha", GOLDEN_SHA,
                "--diff", str(trajectory),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench-only" in out and "clean" in out

    def test_format_flag_is_gone(self, tmp_path):
        """The site is markdown only; ``--format`` no longer parses."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--out", str(tmp_path / "site"), "--format", "html"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "site").exists()

    def test_missing_store_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert main(["report", "--out", str(tmp_path / "site")]) == 2
        assert "result store is required" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(
        self, fixture_store, tmp_path, capsys
    ):
        from repro.cli import main

        code = main(
            [
                "report",
                "--store", str(fixture_store.root),
                "--out", str(tmp_path / "site"),
                "--families", "no-such-family",
            ]
        )
        assert code == 2
