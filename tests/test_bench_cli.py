"""Tests for the performance-benchmark harness and the ``bench`` CLI.

The benchmark machinery is a regression guard, so these tests exercise it
at deliberately tiny window sizes/event counts: the point is the artifact
schema, the floor-check semantics and the CLI wiring, not the numbers.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_HOTPATH_SCHEMA,
    BENCH_SETUP_SCHEMA,
    check_batched_floor,
    check_setup_floor,
    render_hotpath_table,
    render_regression_report,
    render_setup_table,
    run_hotpath_bench,
    run_setup_bench,
    write_bench_artifacts,
)
from repro.cli import main


class TestHotpathHarness:
    def test_payload_schema(self):
        payload = run_hotpath_bench(windows=(12, 20), events=2, quick=True)
        assert payload["schema"] == BENCH_HOTPATH_SCHEMA
        assert payload["benchmark"] == "hotpath"
        assert payload["quick"] is True
        assert [row["window"] for row in payload["windows"]] == [12, 20]
        for row in payload["windows"]:
            # The per-event latency is the sweep's batch-size-1 entry.
            baseline = row["batch_sweep"][0]
            assert baseline["batch_size"] == 1
            assert row["indexed_ms"] == baseline["batched_ms"] > 0
            assert baseline["speedup"] == 1.0
            # At least four whole ticks are measured.
            assert row["events_indexed"] == 4
            assert "rebuild_ms" not in row and "speedup" not in row

    def test_render_table_lists_every_window(self):
        payload = run_hotpath_bench(windows=(12,), events=2)
        table = render_hotpath_table(payload)
        assert "Per-event detector latency" in table
        assert "      12 " in table

    def test_payload_batched_fields(self):
        payload = run_hotpath_bench(windows=(12,), events=2, batch_sizes=(1, 4))
        (row,) = payload["windows"]
        assert [entry["batch_size"] for entry in row["batch_sweep"]] == [1, 4]
        for entry in row["batch_sweep"]:
            assert entry["batched_ms"] > 0
            assert entry["speedup"] > 0
        # The headline columns are the largest swept batch size.
        assert row["batch_size"] == 4
        assert row["batched_ms"] == row["batch_sweep"][-1]["batched_ms"]
        assert row["batched_speedup"] == pytest.approx(
            row["indexed_ms"] / row["batched_ms"]
        )
        assert row["events_batched"] > 0

    def test_batch_sizes_larger_than_window_are_skipped(self):
        payload = run_hotpath_bench(windows=(12,), events=2, batch_sizes=(4, 64))
        (row,) = payload["windows"]
        # Batch size 1, the per-event baseline, is measured even unrequested.
        assert [entry["batch_size"] for entry in row["batch_sweep"]] == [1, 4]
        assert row["batch_size"] == 4

    def test_batched_floor_check_semantics(self):
        payload = {
            "windows": [
                {"window": 256, "batched_speedup": 4.0, "batch_size": 64},
                {"window": 1024, "batched_speedup": None, "batch_size": None},
            ]
        }
        ok, message = check_batched_floor(payload, 2.5, 256)
        assert ok and "4.0x" in message
        ok, message = check_batched_floor(payload, 5.0, 256)
        assert not ok and "REGRESSION" in message
        # A row without batched measurements fails, never passes vacuously.
        ok, message = check_batched_floor(payload, 0.1, 1024)
        assert not ok and "no batched measurement" in message
        # So does a window that was never measured.
        ok, message = check_batched_floor(payload, 0.1, 64)
        assert not ok and "not in the measured sweep" in message

    def test_render_table_includes_batched_columns(self):
        payload = run_hotpath_bench(windows=(12,), events=2, batch_sizes=(1, 4))
        table = render_hotpath_table(payload)
        assert "batched ms" in table and "batch x" in table
        assert "batch sweep (events per tick): 1, 4" in table

    def test_regression_report_compares_old_and_new(self):
        baseline = {
            "windows": [{"window": 256, "indexed_ms": 2.0, "batched_speedup": 8.0}]
        }
        current = {
            "windows": [
                {
                    "window": 256,
                    "indexed_ms": 3.0,
                    "batched_ms": 0.6,
                    "batched_speedup": 5.0,
                }
            ]
        }
        report = render_regression_report(baseline, current)
        assert "2.000 -> 3.000" in report
        # Baselines from before the batched path render as "-".
        assert "- -> 0.600" in report
        assert "8.000x -> 5.000x" in report

    def test_artifacts_written_as_valid_json(self, tmp_path):
        payload = run_hotpath_bench(windows=(12,), events=2)
        written = write_bench_artifacts(tmp_path, hotpath=payload)
        assert [p.name for p in written] == ["BENCH_hotpath.json"]
        decoded = json.loads(written[0].read_text())
        assert decoded["schema"] == BENCH_HOTPATH_SCHEMA
        assert decoded["windows"][0]["window"] == 12


class TestSetupHarness:
    def test_payload_schema(self):
        payload = run_setup_bench(node_counts=(32, 64), repeats=1)
        assert payload["schema"] == BENCH_SETUP_SCHEMA
        assert payload["benchmark"] == "setup"
        assert [row["nodes"] for row in payload["sizes"]] == [32, 64]
        for row in payload["sizes"]:
            assert row["layout_ms"] > 0
            assert row["grid_ms"] > 0
            assert row["brute_ms"] > 0  # well below the brute cap
            assert row["speedup"] == pytest.approx(
                row["brute_ms"] / row["grid_ms"]
            )
            assert row["edges"] > 0
            assert row["mean_degree"] > 0
            assert row["terrain"] > 0

    def test_brute_skipped_above_cap(self):
        from repro.bench import measure_setup

        row = measure_setup(48, repeats=1, brute_cap=32)
        assert row["brute_ms"] is None
        assert row["speedup"] is None
        assert row["grid_ms"] > 0

    def test_render_table_lists_every_size(self):
        payload = run_setup_bench(node_counts=(32,), repeats=1)
        table = render_setup_table(payload)
        assert "Scenario setup cost" in table
        assert "      32 " in table
        assert "brute oracle measured up to" in table

    def test_render_table_dashes_uncapped_sizes(self):
        payload = {
            "brute_cap": 16,
            "sizes": [
                {
                    "nodes": 32,
                    "terrain": 40.0,
                    "layout_ms": 0.1,
                    "grid_ms": 1.0,
                    "brute_ms": None,
                    "speedup": None,
                    "edges": 10,
                    "mean_degree": 2.0,
                }
            ],
        }
        table = render_setup_table(payload)
        assert " - " in table

    def test_setup_floor_check_semantics(self):
        payload = {
            "brute_cap": 4096,
            "sizes": [
                {"nodes": 2048, "speedup": 6.0},
                {"nodes": 16384, "speedup": None},
            ],
        }
        ok, message = check_setup_floor(payload, 4.0, 2048)
        assert ok and "6.0x" in message
        ok, message = check_setup_floor(payload, 8.0, 2048)
        assert not ok and "REGRESSION" in message
        # A size where the brute oracle was skipped fails, never passes
        # vacuously.
        ok, message = check_setup_floor(payload, 0.1, 16384)
        assert not ok and "brute oracle not measured" in message
        # So does a size that was never measured.
        ok, message = check_setup_floor(payload, 0.1, 512)
        assert not ok and "not in the measured sweep" in message

    def test_setup_artifact_written_as_valid_json(self, tmp_path):
        payload = run_setup_bench(node_counts=(32,), repeats=1)
        written = write_bench_artifacts(tmp_path, setup=payload)
        assert [p.name for p in written] == ["BENCH_setup.json"]
        decoded = json.loads(written[0].read_text())
        assert decoded["schema"] == BENCH_SETUP_SCHEMA
        assert decoded["sizes"][0]["nodes"] == 32


class TestBenchCLI:
    def test_bench_writes_both_artifacts_and_passes_floor(self, tmp_path, capsys):
        exit_code = main(
            [
                "bench",
                "--quick",
                "--windows",
                "12,20",
                "--events",
                "2",
                "--output-dir",
                str(tmp_path),
                "--check",
                "--floor-window",
                "20",
                "--batch-floor",
                "0.01",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch guard ok" in output
        hotpath = json.loads((tmp_path / "BENCH_hotpath.json").read_text())
        e2e = json.loads((tmp_path / "BENCH_e2e.json").read_text())
        assert hotpath["benchmark"] == "hotpath"
        assert e2e["benchmark"] == "e2e"
        # The e2e grid covers all three algorithms of the paper.
        algorithms = {row["algorithm"] for row in e2e["scenarios"]}
        assert algorithms == {"global", "semi-global", "centralized"}
        for row in e2e["scenarios"]:
            assert row["wallclock_seconds"] > 0

    def test_bench_check_fails_below_floor(self, tmp_path, capsys):
        exit_code = main(
            [
                "bench",
                "--windows",
                "12",
                "--events",
                "2",
                "--skip-e2e",
                "--output-dir",
                str(tmp_path),
                "--check",
                "--floor-window",
                "12",
                "--batch-floor",
                "1e9",
            ]
        )
        assert exit_code == 1
        assert "REGRESSION" in capsys.readouterr().out
        # The artifact is still written so CI can upload the evidence.
        assert (tmp_path / "BENCH_hotpath.json").exists()
        assert not (tmp_path / "BENCH_e2e.json").exists()

    def test_bench_batch_floor_passes(self, tmp_path, capsys):
        exit_code = main(
            [
                "bench",
                "--windows",
                "12",
                "--events",
                "2",
                "--batch-sizes",
                "1,4",
                "--skip-e2e",
                "--output-dir",
                str(tmp_path),
                "--check",
                "--floor-window",
                "12",
                "--batch-floor",
                "0.01",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "batch guard ok" in output
        hotpath = json.loads((tmp_path / "BENCH_hotpath.json").read_text())
        assert hotpath["windows"][0]["batch_size"] == 4

    def test_bench_batch_floor_failure_prints_baseline_diff(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {"windows": [{"window": 12, "indexed_ms": 1.0, "batched_speedup": 9.0}]}
            )
        )
        exit_code = main(
            [
                "bench",
                "--windows",
                "12",
                "--events",
                "2",
                "--batch-sizes",
                "4",
                "--skip-e2e",
                "--output-dir",
                str(tmp_path),
                "--check",
                "--floor-window",
                "12",
                "--batch-floor",
                "1e9",
                "--baseline",
                str(baseline),
            ]
        )
        assert exit_code == 1
        output = capsys.readouterr().out
        assert "batch guard REGRESSION" in output
        # The failure is accompanied by the readable old-vs-new table.
        assert "perf regression report" in output
        # The artifact is still written so CI can upload the evidence.
        assert (tmp_path / "BENCH_hotpath.json").exists()

    def test_bench_rejects_malformed_windows(self, tmp_path, capsys):
        assert main(["bench", "--windows", "abc"]) == 2
        assert main(["bench", "--windows", "4"]) == 2

    def test_bench_rejects_malformed_batch_sizes(self, tmp_path, capsys):
        assert main(["bench", "--batch-sizes", "abc"]) == 2
        assert main(["bench", "--batch-sizes", "0"]) == 2

    def test_bench_setup_writes_artifact_and_passes_floor(
        self, tmp_path, capsys
    ):
        exit_code = main(
            [
                "bench",
                "--setup",
                "--setup-nodes",
                "32,64",
                "--output-dir",
                str(tmp_path),
                "--check",
                "--setup-floor",
                "0.01",
                "--setup-floor-nodes",
                "64",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "setup guard ok" in output
        setup = json.loads((tmp_path / "BENCH_setup.json").read_text())
        assert setup["benchmark"] == "setup"
        assert [row["nodes"] for row in setup["sizes"]] == [32, 64]
        # The setup mode does not run the other suites.
        assert not (tmp_path / "BENCH_hotpath.json").exists()
        assert not (tmp_path / "BENCH_e2e.json").exists()

    def test_bench_setup_check_fails_below_floor(self, tmp_path, capsys):
        exit_code = main(
            [
                "bench",
                "--setup",
                "--setup-nodes",
                "32",
                "--output-dir",
                str(tmp_path),
                "--check",
                "--setup-floor",
                "1e9",
                "--setup-floor-nodes",
                "32",
            ]
        )
        assert exit_code == 1
        assert "REGRESSION" in capsys.readouterr().out
        # The artifact is still written so CI can upload the evidence.
        assert (tmp_path / "BENCH_setup.json").exists()

    def test_bench_rejects_malformed_setup_nodes(self, tmp_path, capsys):
        assert main(["bench", "--setup", "--setup-nodes", "abc"]) == 2
        assert main(["bench", "--setup", "--setup-nodes", "1"]) == 2
