"""Command-line interface.

``repro-wsn`` exposes the things a user most often wants without writing
code: running a single simulated scenario, regenerating one of the paper's
figures, driving a registered sweep family through the parallel
orchestrator with a persistent result store, and measuring the detector
hot path into machine-readable benchmark artifacts.

Examples
--------
Run one scenario and print its summary (``--json`` for machine-readable
output)::

    repro-wsn run --algorithm global --ranking nn --nodes 16 --rounds 15 -w 10

Run the same scenario under a different metric space, over 4-dimensional
(temperature, humidity, x, y) points::

    repro-wsn run --nodes 16 --rounds 15 -w 10 --extra-channels 1 \\
        --metric weighted-euclidean \\
        --metric-params '{"weights": [1.0, 0.5, 0.02, 0.02]}'

Run it under network dynamics -- node churn, duty-cycle sleep or
correlated burst loss (any subset of the FaultConfig fields)::

    repro-wsn run --nodes 16 --rounds 15 -w 10 \\
        --faults '{"crash_probability": 0.3, "recovery_probability": 1.0}'

Regenerate a figure (text table written to stdout)::

    repro-wsn figure 4

List the registered sweep families (sorted, with per-family scenario counts
at the selected profile), then run one across 4 worker processes with
results persisted (rerunning is free; an interrupted sweep resumes)::

    repro-wsn sweep --list
    repro-wsn sweep figure4 --workers 4 --store results/store --profile paper
    repro-wsn sweep metric-sensitivity --workers 4 --store results/store

Measure the per-event detector hot path, writing ``BENCH_hotpath.json``
(the CI perf-smoke job runs the ``--quick --check`` form and fails when the
batched speedup falls below its floor)::

    repro-wsn bench
    repro-wsn bench --quick --check --output-dir bench-artifacts

Kill a sweep pool worker mid-sweep and watch the supervised pool retry
its scenario on a fresh worker, landing the identical result::

    repro-wsn sweep figure4 --workers 4 --chaos 'kill:worker0@task2'

Render the report site from a populated result store (store-only: nothing
is simulated at report time), and regression-diff the current benchmark
artifacts against the committed perf trajectory::

    repro-wsn report --store results/store --out site
    repro-wsn report --store results/store --out site \\
        --diff results/BENCH_trajectory.json --bench-dir bench-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from .core.config import Algorithm, DetectionConfig
from .core.errors import ReproError
from .core.metrics import registered_metrics
from .wsn.faults import FaultConfig
from .wsn.runner import run_scenario
from .wsn.scenario import ScenarioConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wsn",
        description="In-network outlier detection for WSNs (Branch et al. reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulated scenario")
    run.add_argument("--algorithm", choices=Algorithm.ALL, default=Algorithm.GLOBAL)
    run.add_argument("--ranking", choices=["nn", "knn"], default="nn")
    run.add_argument("--nodes", type=int, default=16)
    run.add_argument("--rounds", type=int, default=15)
    run.add_argument("-w", "--window", type=int, default=10)
    run.add_argument("-n", "--outliers", type=int, default=4)
    run.add_argument("-k", type=int, default=4)
    run.add_argument("--epsilon", type=int, default=1, help="hop diameter (semi-global)")
    run.add_argument("--loss", type=float, default=0.0, help="packet loss probability")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--metric",
        choices=registered_metrics(),
        default="euclidean",
        help="metric space the ranking scores in",
    )
    run.add_argument(
        "--metric-params",
        metavar="JSON",
        default=None,
        help="metric parameters as a JSON object, e.g. "
        "'{\"weights\": [1.0, 0.5, 0.02, 0.02]}' for weighted-euclidean "
        "or '{\"cov\": [[...], ...]}' for mahalanobis",
    )
    run.add_argument(
        "--extra-channels",
        type=int,
        default=0,
        help="additional correlated sensing channels beyond temperature "
        "(points become (3 + N)-dimensional)",
    )
    run.add_argument(
        "--faults",
        metavar="JSON",
        default=None,
        help="fault model as a JSON object of FaultConfig fields, e.g. "
        "'{\"crash_probability\": 0.3, \"recovery_probability\": 1.0}' "
        "(node churn), '{\"duty_cycle\": 0.75}' (sleep cycles) or "
        "'{\"burst_to_bad\": 0.02, \"burst_loss_bad\": 0.8}' "
        "(Gilbert-Elliott burst loss)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the scenario and result summary as JSON instead of text",
    )

    figure = sub.add_parser("figure", help="regenerate a figure of the paper")
    figure.add_argument(
        "number",
        choices=["4", "5", "6", "7", "8", "9", "accuracy", "example51", "imbalance"],
        help="figure number or named experiment",
    )

    bench = sub.add_parser(
        "bench",
        help="run the hotpath micro-benchmark and emit BENCH_hotpath.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-friendly sweep: windows 64/256 (the floor still applies)",
    )
    bench.add_argument(
        "--output-dir",
        metavar="DIR",
        default="results",
        help="directory for BENCH_hotpath.json (default: results)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when the batched speedup falls below its floor",
    )
    sweep = sub.add_parser(
        "sweep",
        help="run a registered sweep family through the parallel orchestrator",
    )
    sweep.add_argument(
        "name",
        nargs="?",
        help="family name (see --list); required unless --list is given",
    )
    sweep.add_argument(
        "--list", action="store_true", help="list the registered sweep families"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for cache misses (1 = in-process; "
        "default: REPRO_WORKERS or 1)",
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent result-store directory (reruns become free; an "
        "interrupted sweep resumes from what already landed on disk; "
        "default: REPRO_RESULT_STORE or no store)",
    )
    sweep.add_argument(
        "--profile",
        choices=["tiny", "quick", "paper"],
        default=None,
        help="experiment profile (default: REPRO_BENCH_PROFILE or quick)",
    )
    sweep.add_argument(
        "--no-report",
        action="store_true",
        help="only resolve the scenario grid; skip rendering the tables",
    )
    sweep.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection against the sweep pool "
        "workers, e.g. 'kill:worker0@task2,hang:worker1' (hang "
        "detection needs --scenario-timeout); results are retried on a "
        "fresh worker and stay bit-identical",
    )
    sweep.add_argument(
        "--scenario-timeout",
        type=float,
        default=None,
        help="seconds one scenario may run in a pool worker before the "
        "worker is killed and the scenario retried (default: no limit)",
    )

    report = sub.add_parser(
        "report",
        help="render the markdown report site from a result store "
        "(store-only: nothing is simulated)",
    )
    report.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory the pages are rendered from "
        "(default: REPRO_RESULT_STORE)",
    )
    report.add_argument(
        "--out",
        metavar="DIR",
        default="site",
        help="output directory for the site (default: site)",
    )
    report.add_argument(
        "--profile",
        choices=["tiny", "quick", "paper"],
        default=None,
        help="experiment profile the store was swept at "
        "(default: REPRO_BENCH_PROFILE or quick)",
    )
    report.add_argument(
        "--families",
        metavar="CSV",
        default=None,
        help="comma-separated sweep-family names "
        "(default: every registered family)",
    )
    report.add_argument(
        "--bench-dir",
        metavar="DIR",
        default="results",
        help="directory holding the BENCH_*.json artifacts the trajectory "
        "page and --diff read (default: results)",
    )
    report.add_argument(
        "--git-sha",
        metavar="SHA",
        default=None,
        help="commit to stamp the pages and trajectory entries with "
        "(default: GITHUB_SHA or `git rev-parse HEAD`)",
    )
    report.add_argument(
        "--diff",
        metavar="BASE",
        default=None,
        help="regression-diff the --bench-dir metrics against BASE (a "
        "BENCH_trajectory.json, whose newest entry is used, or a "
        "directory of committed BENCH_*.json artifacts); exits 1 when a "
        "gated metric regressed beyond its threshold",
    )
    report.add_argument(
        "--update-trajectory",
        metavar="FILE",
        default=None,
        help="append the --bench-dir metrics to FILE as a new trajectory "
        "entry stamped with the resolved commit (an entry with the same "
        "commit is replaced, so reruns are idempotent)",
    )
    return parser


def _command_run(args: argparse.Namespace) -> int:
    metric_params = ()
    if args.metric_params:
        try:
            decoded = json.loads(args.metric_params)
        except json.JSONDecodeError as error:
            print(f"error: --metric-params is not valid JSON: {error}", file=sys.stderr)
            return 2
        if not isinstance(decoded, dict):
            print("error: --metric-params must be a JSON object", file=sys.stderr)
            return 2
        metric_params = tuple(decoded.items())
    faults = FaultConfig()
    if args.faults:
        try:
            decoded = json.loads(args.faults)
        except json.JSONDecodeError as error:
            print(f"error: --faults is not valid JSON: {error}", file=sys.stderr)
            return 2
        if not isinstance(decoded, dict):
            print("error: --faults must be a JSON object", file=sys.stderr)
            return 2
        try:
            faults = FaultConfig(**decoded)
        except TypeError as error:
            print(f"error: --faults: {error}", file=sys.stderr)
            return 2
        except ReproError as error:
            print(f"error: --faults: {error}", file=sys.stderr)
            return 2
    try:
        detection = DetectionConfig(
            algorithm=args.algorithm,
            ranking=args.ranking,
            n_outliers=args.outliers,
            k=args.k,
            window_length=args.window,
            hop_diameter=args.epsilon,
            metric=args.metric,
            metric_params=metric_params,
        )
        scenario = ScenarioConfig(
            detection=detection,
            node_count=args.nodes,
            rounds=args.rounds,
            loss_probability=args.loss,
            extra_channels=args.extra_channels,
            faults=faults,
            seed=args.seed,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        result = run_scenario(scenario)
    except ReproError as error:
        # Configuration problems only detectable mid-run (e.g. a metric
        # parameterisation that does not fit a custom dataset's dimension)
        # still exit cleanly instead of dumping a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "scenario": scenario.to_json_dict(),
            "summary": result.summary(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"scenario: {scenario.label()}  nodes={args.nodes} rounds={args.rounds} w={args.window}")
    for key, value in result.summary().items():
        print(f"  {key:24s} {value:.6g}")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    # Imported lazily so `repro-wsn run` stays snappy.
    from . import experiments

    number = args.number
    if number == "4":
        outputs = experiments.run_figure4()
    elif number == "5":
        outputs = experiments.run_figure5()
    elif number == "6":
        outputs = experiments.run_figure6()
    elif number == "7":
        outputs = experiments.run_figure7()
    elif number == "8":
        outputs = experiments.run_figure8()
    elif number == "9":
        outputs = experiments.run_figure9()
    elif number == "accuracy":
        outputs = (experiments.run_accuracy_experiment(),)
    elif number == "example51":
        outputs = (experiments.run_example51(),)
    else:
        outputs = (experiments.run_imbalance_experiment(),)
    for figure in outputs:
        print(figure.report())
        print()
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    # Imported lazily so the other subcommands stay snappy.
    from . import bench

    hotpath = bench.run_hotpath_bench(quick=args.quick)
    print(bench.render_hotpath_table(hotpath))
    for path in bench.write_bench_artifacts(args.output_dir, hotpath):
        print(f"wrote {path}")
    if not args.check:
        return 0
    ok, message = bench.check_batched_floor(
        hotpath, bench.BATCH_FLOOR, bench.BATCH_FLOOR_WINDOW
    )
    print(message)
    return 0 if ok else 1


def _command_sweep(args: argparse.Namespace) -> int:
    # Importing the experiments package registers every sweep family.
    from . import experiments
    from .core.errors import ExperimentError
    from .orchestrator import (
        ChaosPlan,
        RecoveryConfig,
        ResultStore,
        all_families,
        default_store,
        default_workers,
        get_family,
        run_scenarios,
    )
    from .orchestrator.supervisor import check_chaos

    try:
        profile = (
            experiments.profile_by_name(args.profile)
            if args.profile
            else experiments.active_profile()
        )
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.list:
        # Families print in sorted name order with the size of each family's
        # scenario grid at the selected profile, so a glance shows both what
        # exists and what running it would cost.
        for family in all_families():
            count = len(list(family.build(profile)))
            print(
                f"{family.name:20s} {count:4d} scenario(s)  {family.description}"
            )
        return 0
    if args.name is None:
        print("error: a sweep name is required (or --list)", file=sys.stderr)
        return 2

    try:
        family = get_family(args.name)
        # Flags win; the REPRO_* environment variables (honored by every
        # other entry point) are the fallback.
        workers = args.workers if args.workers is not None else default_workers()
        if workers < 1:
            raise ExperimentError(f"--workers must be >= 1, got {workers}")
        store = ResultStore(args.store) if args.store else default_store()
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    chaos = None
    recovery = None
    if args.chaos or args.scenario_timeout is not None:
        try:
            if args.chaos:
                chaos = ChaosPlan.parse(args.chaos)
            recovery = RecoveryConfig(scenario_timeout=args.scenario_timeout)
            check_chaos(chaos, recovery)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    scenarios = list(family.build(profile))

    counts = {"memory": 0, "store": 0, "computed": 0}

    def progress(event: str, scenario: ScenarioConfig, done: int, total: int) -> None:
        counts[event] += 1
        print(f"[{done}/{total}] {event:8s} {scenario.label()}  seed={scenario.seed}")

    started = time.perf_counter()
    try:
        run_scenarios(
            scenarios,
            workers=workers,
            store=store,
            progress=progress,
            recovery=recovery,
            chaos=chaos,
        )
    except KeyboardInterrupt:
        # Workers are torn down by the supervisor / pool context managers;
        # everything finished so far is already written through to the
        # store, so an interrupted sweep is a *paused* sweep, not a lost
        # one -- say so instead of dumping a traceback.
        finished = sum(counts.values())
        print()
        print(
            f"interrupted: {finished}/{len(scenarios)} scenario(s) resolved "
            f"({counts['computed']} computed and flushed to "
            f"{store.root if store is not None else 'the memory tier only'})."
        )
        if store is not None:
            print("rerun the same sweep command to resume from the store.")
        else:
            print("pass --store DIR to make interrupted sweeps resumable.")
        return 130
    except ExperimentError as error:
        # Poison quarantine: completed scenarios are cached, the poisoned
        # ones are recorded in the store -- report and fail cleanly.
        print(f"error: {error}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    unique = sum(counts.values())
    print(
        f"sweep {family.name!r} ({profile.name} profile): "
        f"{len(scenarios)} scenario(s), {unique} unique, "
        f"{counts['computed']} simulated, "
        f"{counts['memory']} from memory, {counts['store']} from store, "
        f"workers={workers}, {elapsed:.2f}s"
    )
    if store is not None:
        print(f"store: {store.root} ({len(store)} entries)")

    if family.report is not None and not args.no_report:
        # The report phase resolves scenarios through the experiments
        # layer, which reads the REPRO_* environment variables -- export
        # the resolved settings for its duration so both phases share the
        # same store and worker pool (also covers any report that touches
        # a scenario outside the prefetched grid).
        saved = {
            name: os.environ.get(name)
            for name in ("REPRO_RESULT_STORE", "REPRO_WORKERS")
        }
        if store is not None:
            os.environ["REPRO_RESULT_STORE"] = str(store.root)
        os.environ["REPRO_WORKERS"] = str(workers)
        try:
            for figure in family.report(profile):
                print()
                print(figure.report())
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    return 0


def _command_report(args: argparse.Namespace) -> int:
    # Importing the experiments package registers every sweep family.
    from . import experiments
    from .core.errors import ExperimentError
    from .orchestrator import ResultStore, all_families, default_store, get_family
    from .report import (
        append_entry,
        baseline_metrics,
        build_site,
        diff_metrics,
        extract_metrics,
        load_bench_artifacts,
        new_entry,
        resolve_git_sha,
    )

    try:
        profile = (
            experiments.profile_by_name(args.profile)
            if args.profile
            else experiments.active_profile()
        )
        store = ResultStore(args.store) if args.store else default_store()
        # Trajectory operations need only the bench artifacts, so a diff
        # or append may run store-less (CI's perf-smoke job does).
        bench_only = store is None and bool(
            args.diff or args.update_trajectory
        )
        if store is None and not bench_only:
            raise ExperimentError(
                "a result store is required: pass --store DIR or set "
                "REPRO_RESULT_STORE"
            )
        if args.families:
            families = [
                get_family(name.strip())
                for name in args.families.split(",")
                if name.strip()
            ]
            if not families:
                raise ExperimentError("--families named no families")
        else:
            families = list(all_families())
        bench_dir = Path(args.bench_dir)
        bench = load_bench_artifacts(bench_dir) if bench_dir.is_dir() else {}
        # A diff or trajectory entry of no measurements is bad input, not
        # a regression.
        if (args.diff or args.update_trajectory) and not set(bench) - {"trajectory"}:
            problem = (
                "holds no BENCH_*.json measurement"
                if bench_dir.is_dir()
                else "no such directory"
            )
            raise ExperimentError(f"--bench-dir {bench_dir}: {problem}")
        # A missing or malformed BASE is bad input (exit 2), resolved before
        # any site build; only a detected regression exits 1.
        baseline = baseline_metrics(args.diff) if args.diff else None
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # The trajectory artifact lives next to the measurements but is the
    # history, not a measurement -- split it out for the trajectory page.
    trajectory = bench.pop("trajectory", None)
    git_sha = resolve_git_sha(args.git_sha)

    if bench_only:
        print(
            f"report: no result store -- skipping the site build "
            f"(bench-only; commit {git_sha})"
        )
    else:
        try:
            build = build_site(
                store,
                profile,
                families,
                args.out,
                git_sha=git_sha,
                bench=bench or None,
                trajectory=trajectory,
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        health = build.health
        print(
            f"report: {len(build.pages)} page(s) and "
            f"{len(build.data_files)} data file(s) under {build.out_dir} "
            f"(commit {git_sha})"
        )
        print(
            f"store: {health.entries} entries, {health.corrupt} corrupt, "
            f"{health.poison} poisoned"
        )
        for status in build.statuses:
            print(
                f"  {status.name:20s} {status.present:4d}/{status.total:<4d} "
                f"{status.status}"
            )
        if build.skipped:
            print(
                f"skipped (incomplete in store): {', '.join(build.skipped)}",
                file=sys.stderr,
            )

    try:
        if args.update_trajectory:
            metrics = extract_metrics(bench)
            payload = append_entry(
                args.update_trajectory, new_entry(metrics, git_sha)
            )
            print(
                f"trajectory: {args.update_trajectory} now holds "
                f"{len(payload['entries'])} entr(ies); newest {git_sha} "
                f"with {len(metrics)} metric(s)"
            )
        if baseline is not None:
            label, base = baseline
            diff = diff_metrics(base, extract_metrics(bench), base_label=label)
            print()
            print(diff.render())
            if not diff.ok:
                return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-wsn`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "report":
        return _command_report(args)
    return _command_figure(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
