"""Tests for the experiment harness (on a tiny profile) and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    ExperimentProfile,
    FigureResult,
    active_profile,
    clear_cache,
    run_example51,
    run_figure4,
)
from repro.experiments.common import PAPER_PROFILE, QUICK_PROFILE

#: A deliberately tiny profile so harness tests run in seconds.
TINY = ExperimentProfile(
    name="tiny",
    node_count=6,
    rounds=4,
    repetitions=1,
    window_sizes=(2, 3),
    outlier_counts=(1, 2),
    hop_diameters=(1,),
)


class TestProfiles:
    def test_default_profile_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert active_profile().name == "quick"

    def test_profile_selection_via_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "paper")
        assert active_profile() is PAPER_PROFILE

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "huge")
        with pytest.raises(Exception):
            active_profile()

    def test_quick_profile_windows_fit_inside_rounds(self):
        assert max(QUICK_PROFILE.window_sizes) <= QUICK_PROFILE.rounds
        assert max(PAPER_PROFILE.window_sizes) <= PAPER_PROFILE.rounds


class TestFigureHarness:
    def test_figure4_on_tiny_profile_has_all_curves(self):
        clear_cache()
        tx, rx = run_figure4(TINY)
        for figure in (tx, rx):
            assert set(figure.series) == {"Centralized", "Global-NN", "Global-KNN"}
            assert figure.x_values == [2.0, 3.0]
            assert all(len(v) == 2 for v in figure.series.values())
            assert all(value >= 0 for series in figure.series.values() for value in series)

    def test_results_are_cached_across_figures(self):
        clear_cache()
        run_figure4(TINY)
        from repro.experiments.common import _CACHE

        cached = len(_CACHE)
        run_figure4(TINY)
        assert len(_CACHE) == cached

    def test_figure_result_report_and_series_access(self):
        figure = FigureResult(
            figure="demo", x_label="w", x_values=[1.0], series={"a": [0.5]}
        )
        assert "demo" in figure.report()
        assert figure.series_for("a") == [0.5]
        with pytest.raises(Exception):
            figure.series_for("missing")

    def test_example51_reports_distributed_advantage(self):
        figure = run_example51(sizes=((20, 10), (40, 20)))
        distributed = figure.series_for("distributed (points sent)")
        centralised = figure.series_for("centralised on one sensor (points sent)")
        assert all(d < c for d, c in zip(distributed, centralised))


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--nodes", "6", "--rounds", "4"])
        assert args.command == "run"

    def test_run_command_executes_a_small_scenario(self, capsys):
        exit_code = main(
            ["run", "--nodes", "6", "--rounds", "4", "-w", "3", "-n", "2",
             "--algorithm", "global", "--ranking", "nn"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "accuracy_exact" in captured

    def test_figure_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "42"])

    def test_run_json_flag_prints_machine_readable_summary(self, capsys):
        exit_code = main(
            ["run", "--nodes", "6", "--rounds", "4", "-w", "3", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["node_count"] == 6
        assert payload["scenario"]["detection"]["window_length"] == 3
        assert payload["scenario"]["detection"]["metric"] == "euclidean"
        assert "accuracy_exact" in payload["summary"]
        assert "avg_total_per_round" in payload["summary"]

    def test_run_with_metric_and_extra_channels(self, capsys):
        exit_code = main(
            ["run", "--nodes", "6", "--rounds", "4", "-w", "3", "--json",
             "--metric", "weighted-euclidean",
             "--metric-params", '{"weights": [1.0, 0.5, 0.02, 0.02]}',
             "--extra-channels", "1"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["detection"]["metric"] == "weighted-euclidean"
        assert payload["scenario"]["extra_channels"] == 1
        assert "accuracy_exact" in payload["summary"]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "-w", "0"], id="window-0"),
            pytest.param(["run", "--epsilon", "0"], id="epsilon-0"),
            pytest.param(
                ["run", "--metric-params", "not json"], id="params-not-json"
            ),
            pytest.param(["run", "--faults", "{"], id="faults-not-json"),
            pytest.param(
                ["run", "--faults",
                 '{"crash_probability": 0.5, "recovery_probability": 0.5, '
                 '"min_downtime_rounds": 1.5, "max_downtime_rounds": 3}'],
                id="faults-fractional-downtime",
            ),
            pytest.param(
                ["run", "--metric", "weighted-euclidean"], id="weights-missing"
            ),
            pytest.param(
                ["run", "--metric", "weighted-euclidean",
                 "--metric-params", '{"weights": "abc"}'],
                id="weights-not-numbers",
            ),
            pytest.param(
                ["run", "--metric", "mahalanobis",
                 "--metric-params", '{"cov": "x"}'],
                id="cov-not-a-matrix",
            ),
            pytest.param(
                ["run", "--metric", "mahalanobis",
                 "--metric-params", '{"cov": [[1,2],[3]]}'],
                id="cov-ragged",
            ),
            pytest.param(
                ["run", "--metric", "mahalanobis",
                 "--metric-params", '{"cov": [["a",0,0],[0,1,0],[0,0,1]]}'],
                id="cov-not-numbers",
            ),
            pytest.param(
                ["sweep", "stress-loss", "--chaos", "kill:worker1@epoch3"],
                id="chaos-epoch-trigger",
            ),
            pytest.param(
                ["sweep", "stress-loss", "--chaos", "explode:worker0"],
                id="chaos-unknown-kind",
            ),
            pytest.param(
                ["sweep", "stress-loss", "--chaos", "hang:worker0"],
                id="hang-without-timeout",
            ),
            pytest.param(
                ["sweep", "stress-loss", "--scenario-timeout", "0"],
                id="scenario-timeout-0",
            ),
            pytest.param(
                ["sweep", "stress-loss", "--workers", "0"], id="workers-0"
            ),
        ],
    )
    def test_run_rejects_bad_metric_params(self, argv, capfd):
        """Bad input exits 2 with exactly one ``error:`` line, never a
        traceback."""
        size = ["--nodes", "6", "--rounds", "4"] if argv[0] == "run" else []
        assert main(argv + size) == 2
        err = capfd.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


    @pytest.mark.parametrize(
        "argv, env, message",
        [
            pytest.param(
                ["sweep", "stress-loss", "--profile", "tiny",
                 "--store", "F/store"], None,
                "--store: cannot create directory F/store", id="sweep-store",
            ),
            pytest.param(
                ["sweep", "stress-loss", "--profile", "tiny"], "F/store",
                "REPRO_RESULT_STORE: cannot create directory F/store",
                id="sweep-store-environment",
            ),
            pytest.param(
                ["bench", "--quick", "--output-dir", "F/out"], None,
                "--output-dir: cannot create directory F/out",
                id="bench-output-dir",
            ),
            pytest.param(
                ["report", "--store", "S", "--out", "F/site"], None,
                "--out: cannot create directory F/site", id="report-out",
            ),
            pytest.param(
                ["report", "--bench-dir", "bench",
                 "--update-trajectory", "F/t.json"], None,
                "--update-trajectory: cannot create directory F ",
                id="report-update-trajectory",
            ),
            pytest.param(
                ["report", "--store", "missing", "--out", "site"], None,
                "--store missing: no such directory",
                id="report-missing-store",
            ),
        ],
    )
    def test_unusable_output_directory_exits_two(
        self, argv, env, message, tmp_path, monkeypatch, capfd
    ):
        """An output directory that cannot be created (``F`` is a regular
        file), or a store to report from that does not exist, is bad input:
        exit 2 with one ``error:`` line, before anything is simulated,
        measured or written."""
        import repro.bench as bench_module
        import repro.orchestrator.executor as executor_module
        from pathlib import Path

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        if env is not None:
            monkeypatch.setenv("REPRO_RESULT_STORE", env)
        Path("F").write_text("")
        Path("S").mkdir()
        Path("bench").mkdir()
        results = Path(__file__).resolve().parent.parent / "results"
        Path("bench", "BENCH_hotpath.json").write_text(
            (results / "BENCH_hotpath.json").read_text()
        )
        work = []
        for module, name in (
            (executor_module, "run_scenario_worker"),
            (bench_module, "run_hotpath_bench"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                work.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        before = sorted(tmp_path.rglob("*"))
        clear_cache()
        assert main(argv) == 2
        err = capfd.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + message), err
        assert work == []
        assert sorted(tmp_path.rglob("*")) == before


class TestSweepCli:
    def test_list_prints_registered_families(self, capsys):
        assert main(["sweep", "--list", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        for name in (
            "figure4", "accuracy", "stress-loss", "scaling-nodes",
            "metric-sensitivity",
        ):
            assert name in out

    def test_list_is_sorted_with_scenario_counts(self, capsys):
        assert main(["sweep", "--list", "--profile", "tiny"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        names = [line.split()[0] for line in lines]
        assert names == sorted(names)
        # Every row carries the size of the family's grid at the profile.
        assert all("scenario(s)" in line for line in lines)
        by_name = {line.split()[0]: line for line in lines}
        assert "16 scenario(s)" in by_name["stress-loss"]
        assert "10 scenario(s)" in by_name["metric-sensitivity"]

    def test_sweep_without_name_fails(self, capsys):
        assert main(["sweep"]) == 2

    def test_sweep_runs_cold_then_warm_against_a_store(self, tmp_path, capsys):
        clear_cache()
        store = str(tmp_path / "store")
        argv = ["sweep", "imbalance", "--workers", "2", "--store", store,
                "--profile", "tiny", "--no-report"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "3 scenario(s), 3 unique, 3 simulated" in cold

        clear_cache()  # simulate a fresh process; only the disk tier remains
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated" in warm
        assert "3 from store" in warm

    def test_blank_workers_variable_runs_in_process(self, monkeypatch, capsys):
        """A blank ``REPRO_WORKERS`` means unset, as a blank
        ``REPRO_RESULT_STORE`` already did."""
        monkeypatch.setenv("REPRO_WORKERS", " ")
        argv = ["sweep", "example51", "--profile", "tiny", "--no-report"]
        assert main(argv) == 0
        assert "workers=1" in capsys.readouterr().out

    def test_sweep_report_renders_tables(self, capsys):
        clear_cache()
        assert main(["sweep", "example51", "--profile", "tiny"]) == 0
        assert "Section 5.1 example" in capsys.readouterr().out

    def test_metric_sensitivity_sweep_cold_then_warm(self, tmp_path, capsys):
        """The schema-versioned store must serve every metric variant back
        warm: 5 metrics x 2 tiny windows = 10 distinct scenario keys."""
        clear_cache()
        store = str(tmp_path / "metric-store")
        argv = ["sweep", "metric-sensitivity", "--workers", "2",
                "--store", store, "--profile", "tiny", "--no-report"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "10 scenario(s), 10 unique, 10 simulated" in cold

        clear_cache()  # fresh process simulation; only the disk tier remains
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated" in warm
        assert "10 from store" in warm

    def test_metric_sensitivity_report_covers_every_metric(self, capsys):
        clear_cache()
        assert main(["sweep", "metric-sensitivity", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        for label in ("Euclidean", "Manhattan", "Chebyshev",
                      "Weighted-Euclidean", "Mahalanobis"):
            assert label in out
        assert "injected-anomaly precision" in out
