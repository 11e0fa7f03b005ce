"""The supervised sweep pool (``repro.orchestrator.supervisor``).

Three layers under test:

* **chaos plans** -- the ``sweep --chaos`` mini-language parses
  deterministically, fires each action exactly once, and is rejected up
  front when the supervisor cannot possibly detect the injected fault
  (hang without a timeout);
* **supervision** -- over trivial tasks, the supervisor yields each
  result once, retries a raising scenario up to its budget before
  quarantining it, and restarts a killed worker; a supervised sweep that
  loses a pool worker to an injected SIGKILL/SIGSTOP retries and completes
  with an identical store, and a deterministically crashing scenario is
  quarantined as poison instead of wedging the sweep;
* **store hardening** -- undecodable result-store entries are quarantined
  aside, never served.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import threading
from typing import Dict

import pytest

from repro.core.config import DetectionConfig
from repro.core.errors import ConfigurationError, ExperimentError
from repro.orchestrator import executor
from repro.orchestrator.chaos import ChaosPlan
from repro.orchestrator.executor import clear_memory, run_scenarios
from repro.orchestrator.store import ResultStore
from repro.orchestrator.supervisor import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    RecoveryConfig,
    SweepSupervisor,
    backoff,
    check_chaos,
    sweep_worker_main,
)
from repro.wsn.results import SimulationResult
from repro.wsn.runner import run_scenario
from repro.wsn.scenario import ScenarioConfig


@pytest.fixture(autouse=True)
def _fresh_memory():
    clear_memory()
    yield
    clear_memory()


def sweep_scenario(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(
        detection=DetectionConfig(window_length=3), node_count=6, rounds=4,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Chaos plan parsing
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_parse_round_trips_each_entry(self):
        plan = ChaosPlan.parse("hang:worker2@task5 ,kill:worker0")
        assert [a.describe() for a in plan.pending()] == [
            "hang:worker2@task5",
            "kill:worker0@task1",  # trigger count defaults to 1
        ]

    def test_take_fires_each_action_exactly_once(self):
        plan = ChaosPlan.parse("kill:worker1@task3")
        assert plan.take(1, 2) is None
        assert plan.take(0, 3) is None
        action = plan.take(1, 3)
        assert action is not None and action.kind == "kill"
        assert plan.take(1, 3) is None  # consumed
        assert not plan and plan.fired == [action]

    def test_has_filters_by_kind(self):
        plan = ChaosPlan.parse("hang:worker0@task2")
        assert plan.has() and plan.has("hang")
        assert not plan.has("kill")

    def test_actions_on_one_worker_fire_at_their_own_counts(self):
        plan = ChaosPlan.parse("kill:worker0@task2,hang:worker0@task1")
        assert plan.take(0, 1).kind == "hang"
        assert plan.take(0, 2).kind == "kill"
        assert [a.describe() for a in plan.fired] == [
            "hang:worker0@task1", "kill:worker0@task2",
        ]

    def test_pending_is_a_snapshot(self):
        plan = ChaosPlan.parse("kill:worker0")
        plan.pending().clear()
        assert plan.has("kill")

    @pytest.mark.parametrize(
        "kind,expected", [("kill", signal.SIGKILL), ("hang", signal.SIGSTOP)]
    )
    def test_apply_sends_the_matching_signal(self, kind, expected, monkeypatch):
        sent = []
        monkeypatch.setattr(os, "kill", lambda pid, sig: sent.append((pid, sig)))
        ChaosPlan.parse(f"{kind}:worker0").take(0, 1).apply(4242)
        assert sent == [(4242, expected)]

    def test_only_hang_chaos_needs_a_scenario_timeout(self):
        untimed, timed = RecoveryConfig(), RecoveryConfig(scenario_timeout=5.0)
        with pytest.raises(ConfigurationError, match="timeout"):
            check_chaos(ChaosPlan.parse("kill:worker0,hang:worker1"), untimed)
        check_chaos(ChaosPlan.parse("hang:worker1"), timed)
        check_chaos(ChaosPlan.parse("kill:worker0"), untimed)
        check_chaos(None, untimed)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:worker1@task3",  # unknown fault kind
            "kill:worker1@epoch3",  # workers count tasks
            "kill:worker1@task0",  # trigger counts are 1-based
            "kill worker1",  # malformed
            " , ",  # empty
            "kill:worker@task1",  # no worker index
            "kill:worker1@task",  # no trigger count
            "KILL:worker1",  # kinds are lower case
        ],
    )
    def test_bad_specifications_are_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            ChaosPlan.parse(spec)


# ----------------------------------------------------------------------
# The supervisor on its own, over trivial tasks
# ----------------------------------------------------------------------
def _double(value):
    return 2 * value


def _fails_on_odd(value):
    if value % 2:
        raise ValueError(f"odd input {value}")
    return value


def _fails_first_time(task):
    """Raise on the first call per marker file, succeed afterwards."""
    marker, value = task
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient failure")
    return value


def supervise(task, scenarios, workers=2, **kwargs):
    supervisor = SweepSupervisor(task, workers, **kwargs)
    results = sorted(supervisor.run(scenarios))
    return supervisor, results


class TestSweepSupervisor:
    def test_every_scenario_yields_exactly_one_result(self):
        supervisor, results = supervise(_double, range(7))
        assert results == [(i, 2 * i) for i in range(7)]
        assert sum(supervisor.dispatch_counts) == 7
        assert supervisor.restart_counts == [0, 0]
        assert supervisor.poisoned == []

    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_raising_scenario_is_retried_then_poisoned(self, max_retries):
        supervisor, results = supervise(
            _fails_on_odd, range(4),
            recovery=RecoveryConfig(max_retries=max_retries),
        )
        assert results == [(0, 0), (2, 2)]
        assert sorted(p["scenario"] for p in supervisor.poisoned) == [1, 3]
        for entry in supervisor.poisoned:
            assert entry["attempts"] == max_retries + 1
            assert f"odd input {entry['scenario']}" in entry["reason"]
        # A task that raises leaves its worker alive: nothing restarted.
        assert supervisor.restart_counts == [0, 0]

    def test_transient_failure_succeeds_on_retry(self, tmp_path):
        tasks = [(str(tmp_path / f"m{i}"), i) for i in range(3)]
        supervisor, results = supervise(_fails_first_time, tasks)
        assert results == sorted((task, task[1]) for task in tasks)
        assert supervisor.poisoned == []

    def test_killed_worker_is_restarted_and_its_scenario_rerun(self):
        chaos = ChaosPlan.parse("kill:worker0@task1")
        supervisor, results = supervise(_double, range(5), chaos=chaos)
        assert results == [(i, 2 * i) for i in range(5)]
        assert [a.describe() for a in chaos.fired] == ["kill:worker0@task1"]
        assert supervisor.restart_counts[0] == 1
        assert supervisor.poisoned == []

    def test_no_scenarios_spawn_no_workers(self):
        supervisor, results = supervise(_double, [])
        assert results == []
        assert supervisor.dispatch_counts == [0, 0]

    def test_close_reaps_every_worker_and_is_idempotent(self):
        supervisor, _ = supervise(_double, range(3))
        assert supervisor.processes == [None, None]
        assert supervisor.connections == [None, None]
        supervisor.close()

    def test_at_least_one_worker_is_required(self):
        with pytest.raises(ExperimentError, match="workers"):
            SweepSupervisor(_double, 0)

    def test_worker_protocol_answers_results_and_errors(self):
        parent, child = multiprocessing.Pipe()
        worker = threading.Thread(
            target=sweep_worker_main, args=(child, _fails_on_odd)
        )
        worker.start()
        parent.send(("task", 7, 4))
        assert parent.recv() == ("result", 7, 4)
        parent.send(("task", 8, 3))
        kind, tag, payload = parent.recv()
        assert (kind, tag) == ("error", 8)
        assert "ValueError: odd input 3" in payload
        parent.send(("stop",))
        worker.join(timeout=10)
        assert not worker.is_alive()
        parent.close()


# ----------------------------------------------------------------------
# Supervised sweep execution
# ----------------------------------------------------------------------
def _always_crashes(scenario):
    raise ValueError(f"deterministic bug for seed {scenario.seed}")


class TestSweepRecovery:
    def test_killed_pool_worker_retries_to_an_identical_store(
        self, tmp_path
    ):
        scenarios = [sweep_scenario(seed) for seed in range(4)]
        clean = ResultStore(tmp_path / "clean")
        run_scenarios(scenarios, workers=2, store=clean)

        clear_memory()
        chaotic = ResultStore(tmp_path / "chaotic")
        run_scenarios(
            scenarios,
            workers=2,
            store=chaotic,
            chaos=ChaosPlan.parse("kill:worker0@task1"),
        )

        def canonical(store: ResultStore) -> Dict[str, str]:
            return {
                path.name: SimulationResult.from_json_dict(
                    json.loads(path.read_text())
                ).canonical_json()
                for path in store.entries()
            }

        assert canonical(chaotic) == canonical(clean)
        assert len(chaotic) == len(scenarios)

    def test_hung_pool_worker_is_timed_out_and_work_completes(self, tmp_path):
        scenarios = [sweep_scenario(seed) for seed in range(3)]
        store = ResultStore(tmp_path)
        results = run_scenarios(
            scenarios,
            workers=2,
            store=store,
            recovery=RecoveryConfig(scenario_timeout=30.0),
            chaos=ChaosPlan.parse("hang:worker1@task1"),
        )
        assert len(results) == len(scenarios) == len(store)

    def test_poison_scenario_is_quarantined_not_wedged(
        self, tmp_path, monkeypatch
    ):
        # The executor resolves its worker as a module global at call time,
        # and the fork-started pool inherits the patched module.
        monkeypatch.setattr(
            executor, "run_scenario_worker", _always_crashes
        )
        scenarios = [sweep_scenario(seed) for seed in range(2)]
        store = ResultStore(tmp_path)
        with pytest.raises(ExperimentError, match="poison"):
            run_scenarios(
                scenarios,
                workers=2,
                store=store,
                recovery=RecoveryConfig(max_retries=1),
            )
        markers = store.poison_entries()
        assert len(markers) == len(scenarios)
        payload = json.loads(markers[0].read_text())
        assert payload["attempts"] == 2  # first try + one retry
        assert "deterministic bug" in payload["reason"]
        # Poison markers never pollute the result-entry namespace.
        assert store.entries() == []

    def test_worker_hang_chaos_requires_a_scenario_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            run_scenarios(
                [sweep_scenario()],
                workers=2,
                chaos=ChaosPlan.parse("hang:worker0"),
            )

    @pytest.mark.parametrize(
        "overrides",
        [{"scenario_timeout": -1.0}, {"max_retries": -1},
         {"scenario_timeout": 0.0}],
    )
    def test_recovery_config_validation(self, overrides):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(**overrides)

    def test_recovery_config_holds_only_the_two_sweep_knobs(self):
        config = RecoveryConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "scenario_timeout", "max_retries",
        ]
        assert (config.scenario_timeout, config.max_retries) == (None, 2)

    def test_backoff_grows_exponentially_to_the_cap(self):
        delays = [backoff(attempt) for attempt in range(1, 9)]
        assert delays[:3] == pytest.approx(
            [BACKOFF_BASE, 2 * BACKOFF_BASE, 4 * BACKOFF_BASE]
        )
        assert delays == sorted(delays)
        assert delays[-1] == BACKOFF_CAP


# ----------------------------------------------------------------------
# Result-store hardening (satellite)
# ----------------------------------------------------------------------
class TestResultStoreHardening:
    def test_undecodable_entry_is_quarantined_aside(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = sweep_scenario()
        path = store.path_for(scenario)
        store.root.mkdir(parents=True, exist_ok=True)
        path.write_text("this is not json {")
        assert store.get(scenario) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_wrong_scenario_entry_is_a_miss_but_not_quarantined(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        target = sweep_scenario(seed=0)
        other = run_scenario(sweep_scenario(seed=9))
        store.root.mkdir(parents=True, exist_ok=True)
        path = store.path_for(target)
        path.write_text(json.dumps(other.to_json_dict(), sort_keys=True))
        assert store.get(target) is None
        assert path.exists()  # healthy file, just not an answer to this key

    def test_put_replaces_quarantined_entries_cleanly(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = sweep_scenario()
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for(scenario).write_text("garbage")
        assert store.get(scenario) is None
        result = run_scenario(scenario)
        store.put(result)
        fetched = store.get(scenario)
        assert fetched is not None
        assert fetched.canonical_json() == result.canonical_json()
        assert os.path.exists(
            store.path_for(scenario).with_suffix(".corrupt")
        )
