"""Benchmark command: measure one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload global-fill --seed 0 --seconds 30 --trace 0

Each run of the workload executes in a fresh single-threaded process
(``bench_worker.py``).  A call makes a fixed number of runs, set by the
workload and ``--seconds`` (``bench_workloads.runs_per_call``), so that
they take about ``--seconds`` on the host the benchmark was developed on.
The two host times (``setup_s``, ``run_s``) are rescaled to the host's
reference speed by a calibration timed beside them in the same process
(see ``at_reference_speed``) and reported as the median over the call's
runs; every other metric is the median over the runs as well.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones.

A run fails when its process raises, when its output fails the workload's
checks (pinned transcript digest at the default seed, exact accuracy where
the paper guarantees it), when two runs of the same seed disagree, or when
a traced run's transcript differs from the untraced one.  Failures count
against the runs attempted, and ``correct`` is false if any run failed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The command exits
non-zero without printing it only when no run of the workload completed,
for instance when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A whole invocation must end well within this many seconds.
HARD_LIMIT_S = 170.0

#: One process, one thread: no BLAS or OpenMP worker threads, and a fixed
#: string-hash seed so runs of one seed lay out memory alike.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_spec():
    """Workloads and metrics (names and units), as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def units_of(metrics):
    return {metric["name"]: metric["unit"] for metric in metrics}


def run_once(args, traced: bool, budget_s: float):
    """One fresh worker process; returns ``(record, error)``."""
    command = [
        sys.executable, str(HERE / "bench_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--trace", str(int(traced)),
    ]
    env = {**os.environ, **CHILD_ENV}
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=budget_s,
        )
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {budget_s:.0f} s"
    if child.returncode != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["(no output)"]
        return None, f"exit {child.returncode}: {tail[0]}"
    try:
        record = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result record"
    return record, None


#: Seconds one ``bench_worker.calibrate()`` takes on the development host
#: at its usual speed: the reference speed host times are rescaled to.
CALIBRATION_REFERENCE_S = 0.0025


def at_reference_speed(seconds, calibrations):
    """``seconds`` of work, rescaled to the host's reference speed.

    On a shared host the same code runs up to 1.8x faster or slower for
    stretches of seconds to minutes, so a raw time says as much about the
    neighbours as about the program.  The worker times a fixed calibration,
    which uses no program code, right after each build and each slice of
    the run; the mean calibration time over the same stretch measures the
    speed the host gave the process, and dividing by it removes that speed
    from the result.  A change to the program alters ``seconds`` but not
    the calibration, so it shows in full.
    """
    return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)


def setup_time(record):
    """One process's mean build time, at the reference speed."""
    return at_reference_speed(statistics.fmean(record["setups"]), record["setup_cals"])


def run_time(record):
    """One untraced run's duration, at the reference speed."""
    return at_reference_speed(record["run_s"], record["run_cals"])


def measure(args, runs):
    """Make ``runs`` runs (pairs of runs when traced).

    Returns (untraced, traced, attempted, errors).  A run whose output
    fails a check still counts its measurements (its process ran the
    workload to the end) but also counts as a failure; a run that raised,
    or whose transcript differs from the call's first run, yields no
    measurements.  Runs stop early only if the call nears ``HARD_LIMIT_S``.
    """
    untraced, traced, errors = [], [], []
    attempted = 0
    started = perf_counter()
    modes = (False, True) if args.trace else (False,)
    for _ in range(runs):
        for mode in modes:
            budget_s = HARD_LIMIT_S - (perf_counter() - started)
            if budget_s < 1.0:
                return untraced, traced, attempted, errors
            attempted += 1
            record, error = run_once(args, mode, budget_s)
            if record is None:
                errors.append(error)
                continue
            reference = (untraced or traced or [record])[0]
            if record["digest"] != reference["digest"]:
                kind = "traced" if mode else "repeated"
                errors.append(f"{kind} run's transcript differs from the first run's")
                continue
            if record["problems"]:
                errors.append("; ".join(record["problems"]))
            (traced if mode else untraced).append(record)
    return untraced, traced, attempted, errors


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", default="paper", choices=("paper", "toy"),
        help="toy: the same code paths on a few sensors and rounds (smoke test)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads

    runs = bench_workloads.runs_per_call(args.workload, args.seconds, args.scale)
    # A traced call makes pairs of runs in about the same time.
    untraced, traced, attempted, errors = measure(
        args, max(1, runs // 2) if args.trace else runs
    )
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no run of the workload completed", file=sys.stderr)
        return 1

    if args.trace:
        units = units_of(spec["per_layer"])
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in units
            if name != "trace.overhead_ratio"
        }
        # Traced runs skip the calibration, so this compares raw times of
        # runs made alternately in the same call.
        values["trace.overhead_ratio"] = (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in untraced)
        )
    else:
        units = units_of(spec["end_to_end"])
        values = {
            "setup_s": statistics.median(map(setup_time, untraced)),
            "run_s": statistics.median(map(run_time, untraced)),
        }
        for name in units.keys() - values.keys():
            values[name] = statistics.median(r[name] for r in untraced)

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced"
          + (f" + {len(traced)} traced" if args.trace else "") + " runs")
    for label, records in (("untraced", untraced), ("traced", traced)):
        if records:
            print(f"  {label} raw run_s per run: "
                  + " ".join(f"{r['run_s']:.3f}" for r in records))
    print("  run_s at the reference speed per run: "
          + " ".join(f"{run_time(r):.3f}" for r in untraced))
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
