"""Fault-and-churn subsystem tests.

Covers the determinism contract (default fault configuration is the
identity -- byte-identical to pre-subsystem golden transcripts), the
deterministic per-seed schedules, the runtime semantics (radio off, missed
samples, crash amnesia, event-(iv) repair), the Gilbert-Elliott burst
model, the dataset-layer sensor faults, the robustness metrics and the two
new sweep families.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.robustness import (
    availability_report,
    detection_latency,
    injected_point_scores,
    mean_availability,
)
from repro.core.config import Algorithm, DetectionConfig
from repro.core.errors import ConfigurationError
from repro.datasets import build_intel_lab_dataset
from repro.datasets.outlier_injection import (
    InjectionConfig,
    InjectionRecord,
    apply_node_faults,
)
from repro.network.channel import GilbertElliottParams
from repro.orchestrator import (
    clear_memory,
    get_family,
    run_scenarios,
    scenario_key,
)
from repro.orchestrator.store import ResultStore
from repro.simulator.events import EventPriority
from repro.wsn import (
    FaultConfig,
    FaultPlan,
    ScenarioConfig,
    SimulationResult,
    build_deployment,
    run_scenario,
)
from repro.experiments import TINY_PROFILE


def _scenario(algorithm=Algorithm.GLOBAL, faults=None, **overrides):
    extra = {"hop_diameter": 2} if algorithm == Algorithm.SEMI_GLOBAL else {}
    detection = DetectionConfig(
        algorithm=algorithm, ranking="nn", n_outliers=2, k=2, window_length=3, **extra
    )
    options = dict(node_count=6, rounds=4, loss_probability=0.05, seed=3)
    options.update(overrides)
    if faults is not None:
        options["faults"] = faults
    return ScenarioConfig(detection=detection, **options)


def _transcript_digest(result: SimulationResult) -> str:
    """Hash of everything a run *computed* (scenario encoding excluded, so
    the digest is comparable across config-schema changes)."""
    payload = result.to_json_dict()
    payload.pop("wallclock_seconds")
    payload.pop("scenario")
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# The identity contract: no faults => byte-identical to the pre-subsystem
# transcripts (digests recorded from the commit before faults existed).
# ----------------------------------------------------------------------
GOLDEN_TRANSCRIPTS = {
    Algorithm.GLOBAL: (
        "21e5009dcf1a7682567df7509cbaa91cecb0808dad76f93a63599370c3840f25"
    ),
    Algorithm.SEMI_GLOBAL: (
        "3524ac3474c2167580b01f12b8aaa2f3fceb66eb8d6679b8f185b9b66cfe2cd0"
    ),
    Algorithm.CENTRALIZED: (
        "c0ac7ce3a18d1457aee373eaf7871ec2894d7cc3f350d1e971b4ef21bbaa06cb"
    ),
}


class TestNoFaultByteIdentity:
    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_TRANSCRIPTS))
    def test_default_faults_reproduce_pre_subsystem_goldens(self, algorithm):
        result = run_scenario(_scenario(algorithm))
        assert _transcript_digest(result) == GOLDEN_TRANSCRIPTS[algorithm]

    def test_default_fault_config_is_disabled(self):
        faults = FaultConfig()
        assert not faults.enabled
        assert not faults.churn_enabled
        assert not faults.burst_enabled
        assert not faults.sensor_enabled
        assert faults.burst_params() is None

    def test_no_fault_run_has_no_fault_stats_key(self):
        result = run_scenario(_scenario())
        assert result.fault_stats == {}
        assert "fault_stats" not in result.to_json_dict()
        assert "mean_availability" not in result.summary()


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestFaultConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_probability": -0.1},
            {"crash_probability": 1.5},
            {"recovery_probability": 2.0},
            {"duty_cycle": 0.0},
            {"duty_cycle": 1.2},
            {"duty_period_rounds": 0},
            {"min_downtime_rounds": 0},
            {"min_downtime_rounds": 5, "max_downtime_rounds": 2},
            {"burst_to_bad": 1.5},
            {"burst_to_good": 0.0},
            {"burst_loss_bad": -0.2},
            {"sensor_stuck_probability": 0.7, "sensor_drift_probability": 0.7},
            # Wrong types: a fractional or boolean round count, a string or
            # boolean probability.
            {"crash_probability": 0.5, "recovery_probability": 0.5,
             "min_downtime_rounds": 1.5, "max_downtime_rounds": 3},
            {"max_downtime_rounds": 4.0},
            {"duty_period_rounds": 2.5},
            {"duty_period_rounds": True},
            {"duty_cycle": "0.5"},
            {"crash_probability": True},
            {"burst_loss_bad": "0.8"},
            {"burst_to_good": None},
        ],
    )
    def test_invalid_configurations_fail_eagerly(self, kwargs):
        """Each bad configuration raises a ``ConfigurationError`` naming
        the field it rejects."""
        with pytest.raises(ConfigurationError) as error:
            FaultConfig(**kwargs)
        assert any(name in str(error.value) for name in kwargs)

    def test_scenario_json_round_trip_preserves_faults(self):
        faults = FaultConfig(
            crash_probability=0.3,
            recovery_probability=0.5,
            duty_cycle=0.8,
            burst_to_bad=0.02,
            sensor_stuck_probability=0.1,
        )
        scenario = _scenario(faults=faults)
        clone = ScenarioConfig.from_json_dict(
            json.loads(json.dumps(scenario.to_json_dict()))
        )
        assert clone == scenario
        assert clone.faults == faults
        assert scenario_key(clone) == scenario_key(scenario)

    def test_fault_fields_change_the_store_key(self):
        static = _scenario()
        churned = _scenario(faults=FaultConfig(crash_probability=0.3))
        assert scenario_key(static) != scenario_key(churned)


# ----------------------------------------------------------------------
# Deterministic schedules
# ----------------------------------------------------------------------
class TestFaultPlan:
    FAULTS = FaultConfig(
        crash_probability=0.5,
        recovery_probability=0.8,
        duty_cycle=0.75,
        duty_period_rounds=2,
    )

    def test_plan_is_a_pure_function_of_the_scenario(self):
        scenario = _scenario(faults=self.FAULTS, rounds=8)
        first = FaultPlan.from_scenario(scenario)
        second = FaultPlan.from_scenario(scenario)
        assert {n: s.intervals for n, s in first.schedules.items()} == {
            n: s.intervals for n, s in second.schedules.items()
        }

    def test_different_seeds_draw_different_schedules(self):
        plans = [
            FaultPlan.from_scenario(_scenario(faults=self.FAULTS, rounds=8, seed=s))
            for s in range(6)
        ]
        signatures = {
            tuple(sorted((n, s.intervals) for n, s in plan.schedules.items()))
            for plan in plans
        }
        assert len(signatures) > 1

    def test_sink_is_exempt(self):
        scenario = _scenario(faults=self.FAULTS, rounds=8)
        plan = FaultPlan.from_scenario(scenario)
        assert scenario.sink_id not in plan.schedules

    def test_availability_is_a_fraction(self):
        scenario = _scenario(faults=self.FAULTS, rounds=8)
        plan = FaultPlan.from_scenario(scenario)
        for node_id in range(scenario.node_count):
            assert 0.0 <= plan.availability(node_id) <= 1.0
        # Duty cycle 0.75 means every non-sink node sleeps: some downtime.
        assert plan.any_downtime

    def test_fault_priority_precedes_all_others(self):
        assert EventPriority.FAULT < EventPriority.HIGH
        assert EventPriority.FAULT < EventPriority.NORMAL


# ----------------------------------------------------------------------
# Runtime semantics
# ----------------------------------------------------------------------
class TestChurnRuntime:
    def test_duty_cycle_skips_samples_and_records_stats(self):
        faults = FaultConfig(duty_cycle=0.5, duty_period_rounds=2)
        result = run_scenario(_scenario(faults=faults, rounds=8))
        assert result.fault_stats
        skipped = sum(s["samples_skipped"] for s in result.fault_stats.values())
        taken = sum(s["samples_taken"] for s in result.fault_stats.values())
        assert skipped > 0
        assert taken + skipped == 6 * 8
        # The sink never sleeps.
        sink_stats = result.fault_stats[0]
        assert sink_stats["samples_skipped"] == 0
        assert sink_stats["availability"] == 1.0
        assert 0.0 < result.mean_availability < 1.0

    def test_down_node_does_not_transmit(self):
        scenario = _scenario(faults=FaultConfig(duty_cycle=0.5), rounds=6)
        dataset = build_intel_lab_dataset(scenario.dataset_config())
        deployment = build_deployment(scenario, dataset)
        node = deployment.nodes[1]
        node.power_down()
        before = deployment.channel.stats.transmissions
        app = deployment.apps[1]
        app.sample(dataset.points_at(0)[1])
        deployment.simulator.run()
        assert deployment.channel.stats.transmissions == before
        assert node.transmissions_suppressed > 0

    def test_crash_reset_clears_detector_state(self):
        scenario = _scenario(rounds=6)
        dataset = build_intel_lab_dataset(scenario.dataset_config())
        deployment = build_deployment(scenario, dataset)
        app = deployment.apps[1]
        app.sample(dataset.points_at(0)[1])
        deployment.simulator.run()
        assert app.detector.holdings
        app.crash_reset()
        assert not app.detector.holdings
        assert len(app.window) == 0
        assert app.detector.neighbors == set()

    def test_crash_recovery_resets_even_inside_a_sleep_interval(self):
        # A crash that ends while a duty-cycle sleep still holds the radio
        # down must *still* lose RAM: the mote rebooted either way.
        from repro.wsn.faults import CRASH, SLEEP

        scenario = _scenario(faults=FaultConfig(duty_cycle=0.5), rounds=6)
        dataset = build_intel_lab_dataset(scenario.dataset_config())
        deployment = build_deployment(scenario, dataset)
        runtime = deployment.fault_runtime
        app = deployment.apps[1]
        app.sample(dataset.points_at(0)[1])
        deployment.simulator.run()
        assert app.detector.holdings

        runtime.power_down(1)          # sleep interval begins
        runtime.power_down(1)          # crash begins while asleep (depth 2)
        runtime.power_up(1, CRASH)     # recovery fires at depth 2 -> 1
        assert not app.detector.holdings  # amnesia despite the radio being down
        assert not deployment.nodes[1].up
        runtime.power_up(1, SLEEP)     # sleep ends: radio back
        assert deployment.nodes[1].up

    def test_reference_excludes_samples_nobody_took(self):
        # Nodes sleep half the time: their missed samples must not appear
        # in the reference answer (they never entered the network).
        faults = FaultConfig(duty_cycle=0.5, duty_period_rounds=2)
        scenario = _scenario(faults=faults, rounds=8)
        result = run_scenario(scenario)
        skipped = sum(s["samples_skipped"] for s in result.fault_stats.values())
        assert skipped > 0  # the guard below is only meaningful with churn
        # Availability-annotated accuracy: with event-(iv) repair the
        # network still produces estimates; the reference is computable.
        assert result.references

    def test_fault_stats_json_round_trip(self):
        faults = FaultConfig(crash_probability=0.5, recovery_probability=1.0)
        result = run_scenario(_scenario(faults=faults, rounds=8))
        clone = SimulationResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert clone.fault_stats == result.fault_stats
        assert clone.canonical_json() == result.canonical_json()


# ----------------------------------------------------------------------
# Determinism of fault runs across execution tiers
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    FAULTS = FaultConfig(
        crash_probability=0.4,
        recovery_probability=1.0,
        duty_cycle=0.8,
        duty_period_rounds=2,
        burst_to_bad=0.05,
        sensor_stuck_probability=0.2,
    )

    def _grid(self):
        return [
            _scenario(faults=self.FAULTS, rounds=5, seed=seed) for seed in range(5)
        ]

    def test_parallel_equals_serial(self):
        clear_memory()
        serial = [r.canonical_json() for r in run_scenarios(self._grid(), workers=1)]
        clear_memory()
        parallel = [r.canonical_json() for r in run_scenarios(self._grid(), workers=4)]
        assert serial == parallel

    def test_store_round_trip_is_byte_identical(self, tmp_path):
        clear_memory()
        store = ResultStore(tmp_path)
        computed = [
            r.canonical_json()
            for r in run_scenarios(self._grid(), workers=2, store=store)
        ]
        clear_memory()
        warmed = [
            r.canonical_json()
            for r in run_scenarios(self._grid(), workers=2, store=store)
        ]
        assert computed == warmed


# ----------------------------------------------------------------------
# Gilbert-Elliott burst loss
# ----------------------------------------------------------------------
class TestBurstLoss:
    def test_stationary_loss_formula(self):
        params = GilbertElliottParams(
            p_good_to_bad=0.1, p_bad_to_good=0.3, loss_good=0.0, loss_bad=0.8
        )
        assert params.stationary_loss == pytest.approx(0.25 * 0.8)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottParams(p_good_to_bad=1.5, p_bad_to_good=0.3)
        with pytest.raises(ConfigurationError):
            GilbertElliottParams(p_good_to_bad=0.1, p_bad_to_good=0.0)

    def test_burst_model_loses_packets(self):
        faults = FaultConfig(burst_to_bad=0.2, burst_to_good=0.25, burst_loss_bad=0.9)
        assert faults.burst_enabled
        result = run_scenario(_scenario(faults=faults, loss_probability=0.0, rounds=6))
        assert result.channel.losses > 0

    def test_burst_replaces_iid_draws_but_not_for_disabled_config(self):
        # Burst disabled: identical draws as the legacy path => identical
        # transcript with or without the faults field present.
        base = run_scenario(_scenario())
        explicit = run_scenario(_scenario(faults=FaultConfig()))
        assert base.canonical_json() == explicit.canonical_json()


# ----------------------------------------------------------------------
# Dataset-layer sensor faults
# ----------------------------------------------------------------------
class TestSensorFaults:
    def test_zero_probability_is_an_exact_noop(self):
        config = _scenario().dataset_config()
        dataset = build_intel_lab_dataset(config)
        record = InjectionRecord()
        out, out_record = apply_node_faults(dataset.streams, record, 0.0, 0.0)
        assert out == dataset.streams
        assert out_record.count() == 0

    def test_faulty_sensor_tail_is_recorded_and_deterministic(self):
        scenario = _scenario(
            faults=FaultConfig(sensor_stuck_probability=0.5), rounds=8
        )
        first = build_intel_lab_dataset(scenario.dataset_config())
        second = build_intel_lab_dataset(scenario.dataset_config())
        assert first.injections.stuck == second.injections.stuck
        assert first.injections.stuck  # probability 0.5 over 6 nodes
        # Stuck points carry the stuck value in the reading channel.
        stuck_keys = first.injections.stuck
        stuck_points = [
            p
            for points in first.streams.values()
            for p in points
            if p.rest in stuck_keys
        ]
        assert stuck_points
        assert all(p.values[0] == 0.0 for p in stuck_points)

    def test_sensor_faults_change_only_the_faulted_tails(self):
        clean = build_intel_lab_dataset(_scenario(rounds=8).dataset_config())
        faulty_scenario = _scenario(
            faults=FaultConfig(sensor_drift_probability=0.5), rounds=8
        )
        faulty = build_intel_lab_dataset(faulty_scenario.dataset_config())
        drift_keys = faulty.injections.drifts
        assert drift_keys
        for node_id in clean.streams:
            for before, after in zip(clean.streams[node_id], faulty.streams[node_id]):
                if after.rest in drift_keys:
                    assert after.values[0] != before.values[0]
                else:
                    assert after == before


# ----------------------------------------------------------------------
# Robustness metrics
# ----------------------------------------------------------------------
class TestRobustnessMetrics:
    def test_availability_defaults_to_one_without_faults(self):
        result = run_scenario(_scenario())
        report = availability_report(result)
        assert set(report) == set(result.estimates)
        assert all(v == 1.0 for v in report.values())
        assert mean_availability(result) == 1.0

    def test_injected_scores_bounds(self):
        scenario = _scenario(
            faults=FaultConfig(sensor_stuck_probability=0.5),
            rounds=8,
            injection=InjectionConfig(spike_probability=0.05),
        )
        result = run_scenario(scenario)
        dataset = build_intel_lab_dataset(scenario.dataset_config())
        scores = injected_point_scores(result, dataset)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert scores.relevant > 0

    def test_detection_latency_on_a_spiked_dataset(self):
        scenario = _scenario(
            rounds=8, injection=InjectionConfig(spike_probability=0.2)
        )
        dataset = build_intel_lab_dataset(scenario.dataset_config())
        assert dataset.injections.count() > 0
        report = detection_latency(
            dataset, scenario.detection.make_query(), scenario.detection.window_length
        )
        assert report.detected + report.undetected > 0
        assert report.mean_rounds >= 0.0
        assert 0.0 <= report.detected_fraction <= 1.0

    def test_detection_latency_without_injections_is_empty(self):
        scenario = _scenario(
            rounds=4,
            injection=InjectionConfig(
                spike_probability=0.0, stuck_probability=0.0, drift_probability=0.0
            ),
        )
        dataset = build_intel_lab_dataset(scenario.dataset_config())
        report = detection_latency(dataset, scenario.detection.make_query(), 3)
        assert report.detected == 0
        assert report.undetected == 0
        assert report.detected_fraction == 1.0


# ----------------------------------------------------------------------
# Sweep families
# ----------------------------------------------------------------------
class TestFaultSweepFamilies:
    def test_families_are_registered_with_stable_tiny_counts(self):
        # CI's sweep-smoke greps for these counts; keep them stable or
        # update .github/workflows/ci.yml along with this test.
        for name in ("fault-churn", "burst-loss"):
            family = get_family(name)
            assert len(list(family.build(TINY_PROFILE))) == 6

    def test_fault_churn_report_renders_from_warm_cache(self):
        clear_memory()
        family = get_family("fault-churn")
        run_scenarios(family.build(TINY_PROFILE), workers=1)
        figures = family.report(TINY_PROFILE)
        assert len(figures) == 4
        titles = [figure.figure for figure in figures]
        assert any("availability" in title for title in titles)
        assert any("latency" in title for title in titles)
        # The static level (x = 0.0) must match the no-churn world:
        # availability 1.0 for every algorithm.
        availability = figures[0]
        assert availability.x_values[0] == 0.0
        for series in availability.series.values():
            assert series[0] == 1.0

    def test_burst_loss_report_matches_average_rates(self):
        clear_memory()
        family = get_family("burst-loss")
        run_scenarios(family.build(TINY_PROFILE), workers=1)
        figures = family.report(TINY_PROFILE)
        assert len(figures) == 3
        observed = figures[-1]
        # Both channel models should lose *something* at every probed rate
        # (they are matched in expectation, not exactly, so just sanity).
        for series in observed.series.values():
            assert all(0.0 <= value <= 1.0 for value in series)
