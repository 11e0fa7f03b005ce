"""Smoke test of the benchmark at toy size (a few sensors and rounds).

Runs every workload's code path through the benchmark command in both
modes and checks that every declared metric is emitted with its unit, that
the traced run reproduces the untraced transcript, and that the trace's
self times cover the run and its spans cover every fired event.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(script, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def bench(workload, trace):
    out = run(HERE / "run.py", "--workload", workload, "--seed", 0,
              "--seconds", 0, "--trace", trace, "--scale", "toy")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def units(metrics):
    return {metric["name"]: metric["unit"] for metric in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_mode_emits_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == units(SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_mode_emits_every_layer_metric(workload):
    result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == units(SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.01)
    # Every fired event ran under a wrapped entry point.
    assert result["metrics"]["trace.event_coverage"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_transcript_equals_untraced(workload):
    digests = []
    for trace in (0, 1):
        out = run(HERE / "bench_worker.py", "--workload", workload, "--seed", 0,
                  "--scale", "toy", "--trace", trace)
        assert out.returncode == 0, out.stderr
        record = json.loads(out.stdout.strip().splitlines()[-1])
        assert record["problems"] == []
        # Only untraced runs time the calibration, after every build and
        # every slice of the run.
        assert bool(record["setup_cals"]) == bool(record["run_cals"]) == (trace == 0)
        assert len(record["setup_cals"]) in (0, len(record["setups"]))
        digests.append(record["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = run(tmp_path / HERE.name / "run.py", "--workload", WORKLOADS[0],
              "--seed", 0, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
