"""Tests for the performance-benchmark harness and the ``bench`` CLI.

The benchmark machinery feeds CI's trajectory gate, so these tests exercise
it at deliberately tiny window sizes and event counts (the CLI tests
monkeypatch the sweep constants): the point is the artifact schema and the
CLI wiring, not the numbers.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import bench as bench_module
from repro.bench import (
    BENCH_HOTPATH_SCHEMA,
    render_hotpath_table,
    run_hotpath_bench,
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


@pytest.fixture
def tiny_bench(monkeypatch):
    """Shrink the sweep so a CLI call takes well under a second."""
    monkeypatch.setattr(bench_module, "QUICK_WINDOWS", (12, 20))
    monkeypatch.setattr(bench_module, "DEFAULT_WINDOWS", (12, 20, 24))


def _artifacts(directory):
    return sorted(path.name for path in directory.iterdir())


class TestBenchCLI:
    def test_bench_writes_the_hotpath_artifact_and_passes_floor(
        self, tiny_bench, tmp_path, capsys
    ):
        """The quick sweep writes the one artifact and prints no verdict:
        CI gates it with ``report --diff`` against the trajectory."""
        argv = ["bench", "--quick", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "guard" not in output
        assert "Scenario setup cost" not in output
        assert _artifacts(tmp_path) == ["BENCH_hotpath.json"]
        hotpath = json.loads((tmp_path / "BENCH_hotpath.json").read_text())
        assert validate_bench(hotpath) == "hotpath"
        assert hotpath["quick"] is True
        assert [row["window"] for row in hotpath["windows"]] == [12, 20]
        # Each window's headline is the largest batch size that fits it.
        assert [row["batch_size"] for row in hotpath["windows"]] == [4, 16]

    def test_bench_without_check_skips_the_floors(
        self, tiny_bench, tmp_path, capsys
    ):
        """A bench call measures and writes; it has no pass/fail verdict."""
        assert main(["bench", "--quick", "--output-dir", str(tmp_path)]) == 0
        assert "guard" not in capsys.readouterr().out
        assert _artifacts(tmp_path) == ["BENCH_hotpath.json"]

    def test_bench_full_sweep_checks_the_batch_floor(
        self, tiny_bench, tmp_path, capsys
    ):
        """Without ``--quick`` the full window sweep is measured."""
        assert main(["bench", "--output-dir", str(tmp_path)]) == 0
        assert "guard" not in capsys.readouterr().out
        hotpath = json.loads((tmp_path / "BENCH_hotpath.json").read_text())
        assert hotpath["quick"] is False
        assert [row["window"] for row in hotpath["windows"]] == [12, 20, 24]

    def test_bench_help_lists_exactly_three_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--quick", "--output-dir"}
        # The old mode switch and the retired floor check stay gone.
        for retired in ("--setup", "--check"):
            with pytest.raises(SystemExit) as exit_info:
                main(["bench", retired])
            assert exit_info.value.code == 2
