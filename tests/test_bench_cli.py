"""Tests for the performance-benchmark harness and the ``bench`` CLI.

The benchmark machinery is a regression guard, so these tests exercise it
at deliberately tiny window sizes/event counts/node counts (the CLI tests
monkeypatch the sweep and floor constants): the point is the artifact
schema, the floor-check semantics and the CLI wiring, not the numbers.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import bench as bench_module
from repro.bench import (
    BENCH_HOTPATH_SCHEMA,
    BENCH_SETUP_SCHEMA,
    check_batched_floor,
    check_setup_floor,
    render_hotpath_table,
    render_setup_table,
    run_hotpath_bench,
    run_setup_bench,
    write_bench_artifacts,
)
from repro.cli import main
from repro.report import validate_bench


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

    def test_default_windows_follow_quick(self, monkeypatch):
        monkeypatch.setattr(bench_module, "QUICK_WINDOWS", (12,))
        monkeypatch.setattr(bench_module, "DEFAULT_WINDOWS", (12, 20))
        quick = run_hotpath_bench(events=2, quick=True)
        full = run_hotpath_bench(events=2)
        assert [row["window"] for row in quick["windows"]] == [12]
        assert [row["window"] for row in full["windows"]] == [12, 20]

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
                {"nodes": 512, "speedup": 3.0},
                {"nodes": 2048, "speedup": 6.0},
            ],
        }
        ok, message = check_setup_floor(payload, 4.0)
        assert ok and "6.0x at 2048 nodes" in message
        ok, message = check_setup_floor(payload, 8.0)
        assert not ok and "REGRESSION" in message
        # A sweep where the brute oracle measured no size fails, never
        # passes vacuously.
        unmeasured = {
            "brute_cap": 16,
            "sizes": [{"nodes": 32, "speedup": None}],
        }
        ok, message = check_setup_floor(unmeasured, 0.1)
        assert not ok and "measured none of the sizes [32]" in message

    def test_setup_floor_uses_largest_brute_measured_size(self):
        """The full sweep's shape: the floor applies at 4096 nodes, the
        largest size under the brute cap, not at 16384 (no brute build)
        nor at the faster-looking 1024."""
        payload = {
            "brute_cap": 4096,
            "sizes": [
                {"nodes": 1024, "speedup": 30.0},
                {"nodes": 4096, "speedup": 5.0},
                {"nodes": 16384, "speedup": None},
            ],
        }
        ok, message = check_setup_floor(payload, 4.0)
        assert ok and "5.0x at 4096 nodes" in message
        ok, message = check_setup_floor(payload, 6.0)
        assert not ok and "at 4096 nodes" in message

    def test_setup_artifact_written_as_valid_json(self, tmp_path):
        payload = run_setup_bench(node_counts=(32,), repeats=1)
        written = write_bench_artifacts(tmp_path, setup=payload)
        assert [p.name for p in written] == ["BENCH_setup.json"]
        decoded = json.loads(written[0].read_text())
        assert decoded["schema"] == BENCH_SETUP_SCHEMA
        assert decoded["sizes"][0]["nodes"] == 32


@pytest.fixture
def tiny_bench(monkeypatch):
    """Shrink both sweeps and the floors so a CLI call takes well under a
    second; returns a setter for the floor constants."""
    monkeypatch.setattr(bench_module, "QUICK_WINDOWS", (12, 20))
    monkeypatch.setattr(bench_module, "DEFAULT_WINDOWS", (12, 20))
    monkeypatch.setattr(bench_module, "QUICK_SETUP_NODES", (32, 64))
    monkeypatch.setattr(bench_module, "DEFAULT_SETUP_NODES", (32, 64, 96))
    monkeypatch.setattr(bench_module, "BATCH_FLOOR_WINDOW", 20)

    def floors(batch=0.01, setup=0.01):
        monkeypatch.setattr(bench_module, "BATCH_FLOOR", batch)
        monkeypatch.setattr(bench_module, "SETUP_FLOOR", setup)

    floors()
    return floors


def _artifacts(directory):
    return sorted(path.name for path in directory.iterdir())


class TestBenchCLI:
    def test_bench_writes_both_artifacts_and_passes_floor(
        self, tiny_bench, tmp_path, capsys
    ):
        argv = ["bench", "--quick", "--check", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "batch guard ok" in output and "at window 20" in output
        assert "setup guard ok" in output and "at 64 nodes" in output
        assert _artifacts(tmp_path) == ["BENCH_hotpath.json", "BENCH_setup.json"]
        hotpath = json.loads((tmp_path / "BENCH_hotpath.json").read_text())
        setup = json.loads((tmp_path / "BENCH_setup.json").read_text())
        assert validate_bench(hotpath) == "hotpath"
        assert validate_bench(setup) == "setup"
        assert hotpath["quick"] is True and setup["quick"] is True
        assert [row["window"] for row in hotpath["windows"]] == [12, 20]
        assert [row["nodes"] for row in setup["sizes"]] == [32, 64]

    def test_bench_check_fails_below_floor(self, tiny_bench, tmp_path, capsys):
        tiny_bench(batch=1e9)
        argv = ["bench", "--quick", "--check", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        output = capsys.readouterr().out
        # Only the batched floor fails; the setup guard still reports.
        assert "batch guard REGRESSION" in output
        assert "setup guard ok" in output
        # The artifacts are still written so CI can upload the evidence.
        assert _artifacts(tmp_path) == ["BENCH_hotpath.json", "BENCH_setup.json"]

    def test_bench_batch_floor_passes(self, tiny_bench, monkeypatch, tmp_path, capsys):
        """The batched guard reads the floor window's row, whose headline
        is the largest batch size that fits that window."""
        monkeypatch.setattr(bench_module, "BATCH_FLOOR_WINDOW", 12)
        argv = ["bench", "--quick", "--check", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "batch guard ok" in output
        assert "at window 12 (floor 0.0x, batch size 4)" in output
        hotpath = json.loads((tmp_path / "BENCH_hotpath.json").read_text())
        assert [row["batch_size"] for row in hotpath["windows"]] == [4, 16]

    def test_bench_without_check_skips_the_floors(
        self, tiny_bench, tmp_path, capsys
    ):
        tiny_bench(batch=1e9, setup=1e9)
        assert main(["bench", "--quick", "--output-dir", str(tmp_path)]) == 0
        assert "guard" not in capsys.readouterr().out
        assert _artifacts(tmp_path) == ["BENCH_hotpath.json", "BENCH_setup.json"]

    def test_bench_setup_writes_artifact_and_passes_floor(
        self, tiny_bench, tmp_path, capsys
    ):
        argv = ["bench", "--quick", "--check", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Scenario setup cost" in output
        assert "setup guard ok" in output
        setup = json.loads((tmp_path / "BENCH_setup.json").read_text())
        assert setup["benchmark"] == "setup"
        assert [row["nodes"] for row in setup["sizes"]] == [32, 64]
        assert all(row["speedup"] > 0 for row in setup["sizes"])

    def test_bench_setup_check_fails_below_floor(
        self, tiny_bench, tmp_path, capsys
    ):
        tiny_bench(setup=1e9)
        argv = ["bench", "--quick", "--check", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        output = capsys.readouterr().out
        # Only the setup floor fails; the batched guard still reports.
        assert "setup guard REGRESSION" in output
        assert "batch guard ok" in output
        # The artifacts are still written so CI can upload the evidence.
        assert _artifacts(tmp_path) == ["BENCH_hotpath.json", "BENCH_setup.json"]

    def test_bench_full_sweep_checks_the_setup_floor(
        self, tiny_bench, tmp_path, capsys
    ):
        """Without ``--quick`` the setup floor is evaluated on the full
        sweep's own sizes (it used to demand a size only ``--quick``
        measures, so a plain ``bench --check`` always failed)."""
        assert main(["bench", "--check", "--output-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "setup guard ok" in output and "at 96 nodes" in output
        setup = json.loads((tmp_path / "BENCH_setup.json").read_text())
        assert setup["quick"] is False
        assert [row["nodes"] for row in setup["sizes"]] == [32, 64, 96]

    def test_bench_help_lists_exactly_three_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--quick", "--check", "--output-dir"}
        # The old mode switch is gone: every call measures both suites.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--setup"])
        assert exit_info.value.code == 2
