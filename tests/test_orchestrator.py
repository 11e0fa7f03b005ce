"""Tests for the sweep orchestrator: executor, result store, registry.

The load-bearing guarantees:

* parallel execution is byte-identical to serial execution (scenarios are
  pure functions of their configuration);
* the store key is a faithful canonical encoding of the scenario -- distinct
  configurations never collide, and no field is silently ignored;
* a corrupted or truncated store entry is a cache miss, never a crash;
* a warm store satisfies a repeated sweep with zero simulations.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.experiments  # noqa: F401  (importing registers the sweep families)
from repro.core.config import Algorithm, DetectionConfig
from repro.core.errors import ConfigurationError
from repro.orchestrator import (
    ResultStore,
    all_families,
    canonical_scenario_json,
    clear_memory,
    family_names,
    get_family,
    run_one,
    run_scenarios,
    scenario_key,
)
from repro.orchestrator import executor as executor_module
from repro.wsn.faults import FaultConfig
from repro.wsn.results import SimulationResult
from repro.wsn.runner import run_scenario
from repro.wsn.scenario import ScenarioConfig


def tiny_scenario(seed: int = 0, **overrides) -> ScenarioConfig:
    """A scenario small enough to simulate in a fraction of a second."""
    base = dict(
        detection=DetectionConfig(window_length=3),
        node_count=6,
        rounds=4,
        seed=seed,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(autouse=True)
def fresh_memory():
    """Isolate every test from the process-wide memory tier."""
    clear_memory()
    yield
    clear_memory()


# ----------------------------------------------------------------------
# Determinism: parallel == serial, byte for byte
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_sweep_is_byte_identical_to_serial(self, tmp_path):
        scenarios = [tiny_scenario(seed=s) for s in range(4)]

        serial_store = ResultStore(tmp_path / "serial")
        serial = run_scenarios(scenarios, workers=1, store=serial_store)

        clear_memory()
        parallel_store = ResultStore(tmp_path / "parallel")
        parallel = run_scenarios(scenarios, workers=4, store=parallel_store)

        for left, right in zip(serial, parallel):
            assert left.canonical_json() == right.canonical_json()
        # The serialised files themselves are byte-identical up to the
        # wallclock field, which canonical_json strips; compare the full
        # decoded payloads instead of raw bytes for a sharper error message.
        for scenario in scenarios:
            left_payload = json.loads(serial_store.path_for(scenario).read_text())
            right_payload = json.loads(parallel_store.path_for(scenario).read_text())
            left_payload.pop("wallclock_seconds")
            right_payload.pop("wallclock_seconds")
            assert left_payload == right_payload

    def test_worker_results_match_direct_execution(self):
        # Two distinct misses, so the executor genuinely takes the pool
        # path (a single miss falls back to inline execution).
        scenarios = [tiny_scenario(seed=7), tiny_scenario(seed=8)]
        direct = [run_scenario(s) for s in scenarios]
        clear_memory()
        pooled = run_scenarios(scenarios, workers=2)
        for left, right in zip(direct, pooled):
            assert left.canonical_json() == right.canonical_json()

    def test_duplicates_resolve_to_the_same_object(self):
        scenario = tiny_scenario()
        first, second = run_scenarios([scenario, scenario], workers=1)
        assert first is second


# ----------------------------------------------------------------------
# Cache-key hygiene
# ----------------------------------------------------------------------
class TestStoreKeys:
    def test_distinct_scenarios_never_collide(self):
        base = tiny_scenario()
        variants = [
            base,
            tiny_scenario(seed=1),
            tiny_scenario(node_count=7),
            tiny_scenario(rounds=5),
            tiny_scenario(loss_probability=0.1),
            tiny_scenario(missing_probability=0.05),
            tiny_scenario(sampling_period=15.0),
            tiny_scenario(use_static_routing=True),
            tiny_scenario(broadcast_jitter=0.1),
            base.with_detection(DetectionConfig(window_length=4)),
            base.with_detection(DetectionConfig(window_length=3, ranking="knn")),
            base.with_detection(
                DetectionConfig(window_length=3, semiglobal_variant="paper")
            ),
            base.with_detection(
                DetectionConfig(
                    window_length=3, algorithm=Algorithm.SEMI_GLOBAL, hop_diameter=2
                )
            ),
        ]
        keys = {scenario_key(v) for v in variants}
        assert len(keys) == len(variants)

    def test_equal_scenarios_share_a_key(self):
        assert scenario_key(tiny_scenario()) == scenario_key(tiny_scenario())

    def test_canonical_encoding_round_trips(self):
        scenario = tiny_scenario(
            seed=3,
            loss_probability=0.05,
            use_static_routing=True,
        ).with_detection(
            DetectionConfig(
                algorithm=Algorithm.SEMI_GLOBAL,
                ranking="knn",
                window_length=3,
                hop_diameter=2,
            )
        )
        decoded = ScenarioConfig.from_json_dict(
            json.loads(canonical_scenario_json(scenario))
        )
        assert decoded == scenario
        assert scenario_key(decoded) == scenario_key(scenario)

    def test_every_field_is_part_of_the_encoding(self):
        """A newly added scenario knob can never be silently ignored: the
        canonical encoding enumerates dataclass fields automatically."""
        encoded = json.loads(canonical_scenario_json(tiny_scenario()))
        for field in dataclasses.fields(ScenarioConfig):
            assert field.name in encoded
        for field in dataclasses.fields(DetectionConfig):
            assert field.name in encoded["detection"]

    def test_unknown_fields_are_rejected_on_decode(self):
        payload = json.loads(canonical_scenario_json(tiny_scenario()))
        payload["brand_new_knob"] = 42
        with pytest.raises(TypeError):
            ScenarioConfig.from_json_dict(payload)

    def test_frozen_detection_keys_are_encoded_true(self):
        """The deleted engine knobs stay in the schema-4 encoding, always
        ``true``, so existing store keys and entries are unchanged."""
        detection = tiny_scenario().to_json_dict()["detection"]
        assert detection["indexed"] is True
        assert detection["batched"] is True

    @pytest.mark.parametrize("value", [False, None, 0, 1, "true"])
    @pytest.mark.parametrize("key", ["indexed", "batched"])
    def test_frozen_detection_keys_reject_other_values(self, key, value):
        payload = json.loads(canonical_scenario_json(tiny_scenario()))
        payload["detection"][key] = value
        with pytest.raises(ConfigurationError, match=f"detection.{key}"):
            ScenarioConfig.from_json_dict(payload)

    @pytest.mark.parametrize(
        "scenario,key",
        [
            pytest.param(
                tiny_scenario(),
                "ce8744f9d8605afddb28b9b3b825b356559b647d76b593c0c0fecc02999921be",
                id="global",
            ),
            pytest.param(
                tiny_scenario(detection=DetectionConfig(
                    algorithm=Algorithm.SEMI_GLOBAL, ranking="knn",
                    window_length=3, hop_diameter=2,
                )),
                "885699022974351151aeff7a7821de7da426d4ec15f5f03de8f0ba637962c05b",
                id="semi-global",
            ),
            pytest.param(
                tiny_scenario(
                    detection=DetectionConfig(
                        algorithm=Algorithm.CENTRALIZED, window_length=3
                    ),
                    faults=FaultConfig(
                        crash_probability=0.25, recovery_probability=1.0,
                        min_downtime_rounds=1, max_downtime_rounds=2,
                    ),
                ),
                "cffe8064f767f099316036a356ba50053e8fffe0694e9ab3794cf301d326ec22",
                id="centralized-churn",
            ),
            pytest.param(
                tiny_scenario(detection=DetectionConfig(
                    window_length=3, metric="mahalanobis",
                    metric_params={"cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]]},
                )),
                "e8ff567b4556670a54172721e0691f3ac3ad8e505bf555b08a61550823626d32",
                id="mahalanobis",
            ),
        ],
    )
    def test_keys_are_pinned(self, scenario, key):
        """Existing stores stay warm: a key may change only together with
        a ``STORE_SCHEMA_VERSION`` bump, which must update these pins."""
        assert scenario_key(scenario) == key


# ----------------------------------------------------------------------
# Store robustness
# ----------------------------------------------------------------------
class TestStoreRobustness:
    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(tiny_scenario()) is None

    def test_truncated_entry_is_a_miss_and_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        result = run_one(scenario, store=store)
        path = store.path_for(scenario)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])

        assert store.get(scenario) is None
        clear_memory()
        recomputed = run_one(scenario, store=store)
        assert recomputed.canonical_json() == result.canonical_json()
        # The recompute healed the entry on disk.
        assert store.get(scenario) is not None

    def test_unparseable_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        store.path_for(scenario).write_text("this is not json {")
        assert store.get(scenario) is None

    def test_entry_for_a_different_scenario_is_a_miss(self, tmp_path):
        """A decodable entry whose embedded scenario differs from the request
        (hash collision, or a key that ignored a field) must not be served."""
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        other = tiny_scenario(seed=99)
        result = run_one(other, store=None)
        store.path_for(scenario).write_text(
            json.dumps(result.to_json_dict(), sort_keys=True)
        )
        assert store.get(scenario) is None

    def test_result_json_round_trip_preserves_everything(self):
        result = run_scenario(tiny_scenario(loss_probability=0.1))
        clone = SimulationResult.from_json_dict(result.to_json_dict())
        assert clone.scenario == result.scenario
        assert clone.estimates == result.estimates
        assert clone.references == result.references
        assert clone.protocol_stats == result.protocol_stats
        assert clone.accuracy.exact == result.accuracy.exact
        assert clone.accuracy.similarity == result.accuracy.similarity
        assert clone.channel.as_dict() == result.channel.as_dict()
        assert clone.energy.totals() == result.energy.totals()
        assert clone.energy.rounds == result.energy.rounds
        assert clone.events_executed == result.events_executed
        assert clone.canonical_json() == result.canonical_json()

    def test_clear_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        run_scenarios([tiny_scenario(seed=s) for s in range(2)], store=store)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


# ----------------------------------------------------------------------
# Store health (quarantine visibility)
# ----------------------------------------------------------------------
class TestStoreHealth:
    def test_empty_store_is_healthy(self, tmp_path):
        health = ResultStore(tmp_path / "never-created").health()
        assert (health.entries, health.corrupt, health.poison) == (0, 0, 0)
        assert health.quarantined == 0

    def test_quarantined_corruption_is_counted(self, tmp_path):
        """A corrupt entry must not vanish: the miss moves it aside and
        ``health()`` surfaces it, instead of the recompute silently
        overwriting the evidence."""
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        run_one(scenario, store=store)
        store.path_for(scenario).write_text("this is not json {")

        assert store.get(scenario) is None
        health = store.health()
        assert health.entries == 0  # the bad file was moved, not served
        assert health.corrupt == 1
        assert health.quarantined == 1
        assert store.corrupt_entries() == [
            store.path_for(scenario).with_suffix(".corrupt")
        ]

    def test_recompute_heals_the_entry_but_keeps_the_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        run_one(scenario, store=store)
        store.path_for(scenario).write_text("garbage")
        assert store.get(scenario) is None
        clear_memory()
        run_one(scenario, store=store)

        health = store.health()
        assert health.entries == 1
        assert health.corrupt == 1  # the fault stays observable

    def test_poison_markers_are_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario(seed=11)
        store.record_poison(scenario, reason="worker crashed", attempts=3)
        health = store.health()
        assert health.poison == 1
        assert health.entries == 0  # markers never match the entry glob
        assert health.quarantined == 1


# ----------------------------------------------------------------------
# Store-only mode (the report pipeline's no-simulation contract)
# ----------------------------------------------------------------------
class TestStoreOnly:
    def test_miss_raises_instead_of_simulating(self, tmp_path, monkeypatch):
        from repro.core.errors import ExperimentError

        monkeypatch.setenv(executor_module.STORE_ONLY_ENV, "1")
        with pytest.raises(ExperimentError, match="store-only"):
            run_scenarios([tiny_scenario()], store=ResultStore(tmp_path))

    def test_warm_tiers_still_serve(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        cold = run_scenarios([scenario], store=store)[0]
        clear_memory()

        monkeypatch.setenv(executor_module.STORE_ONLY_ENV, "1")
        warm = run_scenarios([scenario], store=store)[0]
        assert warm.canonical_json() == cold.canonical_json()

    def test_disabled_values_fall_through(self, monkeypatch):
        monkeypatch.setenv(executor_module.STORE_ONLY_ENV, "0")
        assert not executor_module.store_only_active()
        monkeypatch.setenv(executor_module.STORE_ONLY_ENV, "")
        assert not executor_module.store_only_active()
        monkeypatch.delenv(executor_module.STORE_ONLY_ENV, raising=False)
        assert not executor_module.store_only_active()


# ----------------------------------------------------------------------
# Warm-store behaviour
# ----------------------------------------------------------------------
class TestWarmStore:
    def test_warm_store_performs_zero_simulations(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        scenarios = [tiny_scenario(seed=s) for s in range(3)]
        cold = run_scenarios(scenarios, workers=1, store=store)

        # A fresh process is simulated by clearing the memory tier; any
        # attempt to actually simulate would now blow up.
        clear_memory()

        def forbidden(_scenario):
            raise AssertionError("warm sweep must not simulate anything")

        monkeypatch.setattr(executor_module, "run_scenario_worker", forbidden)
        events = []
        warm = run_scenarios(
            scenarios,
            workers=1,
            store=store,
            progress=lambda event, *_: events.append(event),
        )
        assert events == ["store", "store", "store"]
        for left, right in zip(cold, warm):
            assert left.canonical_json() == right.canonical_json()

    def test_memory_tier_is_preferred_over_store(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        run_scenarios([scenario], store=store)
        monkeypatch.setattr(
            store, "get", lambda *_: pytest.fail("memory hit must not touch disk")
        )
        events = []
        run_scenarios(
            [scenario],
            store=store,
            progress=lambda event, *_: events.append(event),
        )
        assert events == ["memory"]

    def test_interrupted_sweep_resumes(self, tmp_path):
        """Only the missing part of a partially persisted grid is computed."""
        store = ResultStore(tmp_path)
        scenarios = [tiny_scenario(seed=s) for s in range(4)]
        run_scenarios(scenarios[:2], workers=1, store=store)
        clear_memory()

        events = []
        run_scenarios(
            scenarios,
            workers=1,
            store=store,
            progress=lambda event, *_: events.append(event),
        )
        assert events.count("store") == 2
        assert events.count("computed") == 2


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_expected_families_registered(self):
        names = family_names()
        for expected in [
            "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
            "accuracy", "imbalance", "example51", "stress-loss", "scaling-nodes",
        ]:
            assert expected in names

    def test_unknown_family_raises(self):
        with pytest.raises(Exception):
            get_family("no-such-sweep")

    def test_families_build_valid_scenarios(self):
        from repro.experiments import TINY_PROFILE

        for family in all_families():
            scenarios = family.build(TINY_PROFILE)
            assert all(isinstance(s, ScenarioConfig) for s in scenarios)
            if family.name != "example51":
                assert scenarios, f"{family.name} built an empty grid"

    def test_figure_grid_covers_the_report(self, tmp_path, monkeypatch):
        """Resolving a family's grid makes its report a pure cache read."""
        from repro.experiments import TINY_PROFILE

        family = get_family("imbalance")
        store = ResultStore(tmp_path)
        run_scenarios(family.build(TINY_PROFILE), workers=1, store=store)

        def forbidden(_scenario):
            raise AssertionError("report must be served from cache")

        monkeypatch.setattr(executor_module, "run_scenario_worker", forbidden)
        figures = family.report(TINY_PROFILE)
        assert figures


# ----------------------------------------------------------------------
# Environment-driven worker defaults
# ----------------------------------------------------------------------
class TestDefaultWorkers:
    def test_generic_variable_is_the_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_WSN_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert executor_module.default_workers() == 3

    def test_wsn_override_takes_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_WSN_WORKERS", "7")
        assert executor_module.default_workers() == 7

    def test_wsn_override_is_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WSN_WORKERS", "0")
        assert executor_module.default_workers() == 1
        monkeypatch.setenv("REPRO_WSN_WORKERS", "-4")
        assert executor_module.default_workers() == 1

    def test_wsn_override_must_be_an_integer(self, monkeypatch):
        from repro.core.errors import ExperimentError

        monkeypatch.setenv("REPRO_WSN_WORKERS", "many")
        with pytest.raises(ExperimentError):
            executor_module.default_workers()

    def test_blank_wsn_override_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_WSN_WORKERS", "  ")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert executor_module.default_workers() == 2
