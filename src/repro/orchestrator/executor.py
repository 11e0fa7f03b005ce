"""Parallel scenario execution over a two-tier (memory + disk) cache.

The executor is the single path through which the experiment layer runs
simulations.  Given a batch of :class:`~repro.wsn.scenario.ScenarioConfig`
objects it:

1. deduplicates the batch (several figures request overlapping grids),
2. resolves what it can from the in-process **memory tier** and then from an
   optional persistent :class:`~repro.orchestrator.store.ResultStore`
   (**disk tier**),
3. fans the remaining misses out over a ``multiprocessing`` pool
   (``workers > 1``) or runs them inline (``workers <= 1``), and
4. writes freshly computed results back into both tiers.

Scenarios are pure functions of their configuration -- every random stream
is derived from the scenario seed -- so the parallel path is *bit-identical*
to the serial one: the pool only changes where the work happens, never what
is computed (see ``tests/test_orchestrator.py::TestDeterminism``).

Invariants the executor maintains:

* **purity** -- nothing outside the ``ScenarioConfig`` influences a result;
  workers receive only the scenario (via ``run_scenario_worker``) and every
  stochastic component inside a run draws from streams named off the
  scenario seed, which is what makes memory hits, store hits and fresh
  computations interchangeable;
* **write-through ordering** -- freshly computed results land in the memory
  tier and the store one by one *as they complete*, so an interrupted sweep
  keeps every finished result and a concurrent sweep on the same store
  starts warm;
* **alignment** -- the returned list matches the requested order, with
  duplicate requests sharing one result object (the build/report split in
  the sweep families relies on this: a report re-requesting a scenario is
  always a memory hit, never a second simulation).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional

from ..core.errors import ExperimentError
from ..wsn.results import SimulationResult
from ..wsn.runner import run_scenario_worker
from ..wsn.scenario import ScenarioConfig
from .chaos import ChaosPlan
from .store import ResultStore, scenario_key
from .supervisor import RecoveryConfig, SweepSupervisor

__all__ = [
    "run_scenarios",
    "run_one",
    "clear_memory",
    "memory_cache",
    "default_workers",
    "default_store",
    "store_only_active",
    "STORE_ONLY_ENV",
]

#: Events delivered to the ``progress`` callback of :func:`run_scenarios`.
#: ``"memory"``/``"store"`` -- resolved from a cache tier; ``"computed"`` --
#: an actual simulation was executed.
ProgressCallback = Callable[[str, ScenarioConfig, int, int], None]

# ----------------------------------------------------------------------
# Memory tier (shared by every sweep in the process; the experiments
# layer's ``run_cached`` is a view over this dict).
# ----------------------------------------------------------------------
_MEMORY: Dict[ScenarioConfig, SimulationResult] = {}


def memory_cache() -> Dict[ScenarioConfig, SimulationResult]:
    """The process-wide memory tier (exposed for tests and diagnostics)."""
    return _MEMORY


def clear_memory() -> None:
    """Drop every memoised result (used by tests)."""
    _MEMORY.clear()


# ----------------------------------------------------------------------
# Environment-driven defaults
# ----------------------------------------------------------------------
def default_workers() -> int:
    """Worker count from the environment (default 1 = in-process).

    ``REPRO_WSN_WORKERS`` takes precedence over the generic
    ``REPRO_WORKERS`` so a wsn-specific deployment (a CI lane, a shared
    batch host) can pin this stack without disturbing other tooling that
    reads the generic name.  Values below 1 are clamped to 1 rather than
    rejected: the override exists to *limit* parallelism, and "as little as
    possible" is a valid request from an environment that cannot fork.
    """
    override = os.environ.get("REPRO_WSN_WORKERS", "").strip()
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            raise ExperimentError(
                f"REPRO_WSN_WORKERS must be an integer, got {override!r}"
            ) from None
    raw = os.environ.get("REPRO_WORKERS", "1").strip()
    try:
        workers = int(raw)
    except ValueError:
        raise ExperimentError(
            f"REPRO_WORKERS must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ExperimentError(f"REPRO_WORKERS must be >= 1, got {workers}")
    return workers


def default_store() -> Optional[ResultStore]:
    """Store from ``REPRO_RESULT_STORE`` (default: no disk tier)."""
    root = os.environ.get("REPRO_RESULT_STORE", "").strip()
    return ResultStore(root) if root else None


#: When this environment variable is set (to anything but ``""``/``"0"``),
#: the executor refuses to *simulate*: every requested scenario must resolve
#: from the memory or disk tier, and a miss raises instead of computing.
#: This is what lets the report pipeline prove that a rendered table was
#: regenerated "from the store alone" -- under this flag, a page that would
#: have needed a simulation fails loudly rather than quietly rerunning one.
STORE_ONLY_ENV = "REPRO_STORE_ONLY"


def store_only_active() -> bool:
    """Whether the executor is currently forbidden from simulating."""
    return os.environ.get(STORE_ONLY_ENV, "").strip() not in ("", "0")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenarios(
    scenarios: Iterable[ScenarioConfig],
    workers: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressCallback] = None,
    recovery: Optional[RecoveryConfig] = None,
    chaos: Optional[ChaosPlan] = None,
) -> List[SimulationResult]:
    """Resolve every scenario, in order, through cache tiers + execution.

    Parameters
    ----------
    scenarios:
        The batch to resolve; duplicates are computed once.
    workers:
        Size of the supervised worker pool; ``1`` (the default) runs every
        miss inline in this process, which is also the graceful fallback
        when an environment cannot fork.
    store:
        Optional persistent tier; freshly computed results are written back
        to it, making later sweeps (and other processes) start warm.
    progress:
        Optional ``callback(event, scenario, done, total)`` invoked once per
        unique scenario with event ``"memory"``, ``"store"`` or
        ``"computed"``.
    recovery:
        Fault-tolerance knobs for the worker pool (per-scenario timeout,
        retry budget); defaults apply when omitted.  Like ``workers`` this
        is an execution knob: it never changes what a scenario computes.
    chaos:
        A :class:`~repro.orchestrator.chaos.ChaosPlan` inflicted on the
        pool workers.  Chaos forces the supervised-pool path even for
        ``workers == 1``.

    Returns
    -------
    One :class:`SimulationResult` per requested scenario, aligned with the
    input order (duplicates share the same object).

    Raises
    ------
    ExperimentError
        When scenarios exhausted their retry budget (*poison*).  Every
        other result is already written through to the store, and each
        poisoned scenario is recorded there via
        :meth:`~repro.orchestrator.store.ResultStore.record_poison`, so a
        rerun resumes warm and the quarantine is inspectable.
    """
    requested = list(scenarios)
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")

    unique: List[ScenarioConfig] = []
    seen = set()
    for scenario in requested:
        if scenario not in seen:
            seen.add(scenario)
            unique.append(scenario)

    total = len(unique)
    done = 0
    missing: List[ScenarioConfig] = []
    for scenario in unique:
        if scenario in _MEMORY:
            done += 1
            if progress is not None:
                progress("memory", scenario, done, total)
            continue
        if store is not None:
            stored = store.get(scenario)
            if stored is not None:
                _MEMORY[scenario] = stored
                done += 1
                if progress is not None:
                    progress("store", scenario, done, total)
                continue
        missing.append(scenario)

    def consume_one(scenario: ScenarioConfig, result: SimulationResult) -> None:
        # Results are persisted and reported one by one as they complete --
        # keyed by scenario, not by submission order, because the supervised
        # pool yields in *completion* order and a retried scenario can
        # overtake the batch -- so an interrupted sweep keeps everything
        # finished so far and progress lines appear incrementally.
        nonlocal done
        _MEMORY[scenario] = result
        if store is not None:
            store.put(result)
        done += 1
        if progress is not None:
            progress("computed", scenario, done, total)

    if missing and store_only_active():
        labels = ", ".join(
            f"{scenario.label()} seed={scenario.seed}" for scenario in missing[:3]
        )
        suffix = ", ..." if len(missing) > 3 else ""
        raise ExperimentError(
            f"store-only mode ({STORE_ONLY_ENV}): {len(missing)} scenario(s) "
            f"missing from the cache tiers would need simulating: "
            f"{labels}{suffix}"
        )

    pool_chaos = chaos is not None and chaos.has()
    timed = recovery is not None and recovery.scenario_timeout is not None
    if missing:
        if workers == 1 and not pool_chaos and not timed:
            for scenario in missing:
                consume_one(scenario, run_scenario_worker(scenario))
        else:
            # Module global resolved at call time so tests can monkeypatch
            # the worker; the (fork-started) supervised pool inherits it.
            supervisor = SweepSupervisor(
                run_scenario_worker,
                min(workers, len(missing)),
                recovery=recovery,
                chaos=chaos,
            )
            try:
                for scenario, result in supervisor.run(missing):
                    consume_one(scenario, result)
            finally:
                supervisor.close()
            if supervisor.poisoned:
                labels = []
                for entry in supervisor.poisoned:
                    if store is not None:
                        store.record_poison(
                            entry["scenario"], entry["reason"], entry["attempts"]
                        )
                    labels.append(
                        f"{scenario_key(entry['scenario'])[:12]} after "
                        f"{entry['attempts']} attempts "
                        f"({entry['reason'].splitlines()[0]})"
                    )
                raise ExperimentError(
                    f"{len(labels)} scenario(s) quarantined as poison: "
                    + "; ".join(labels)
                    + ". Completed results are cached; rerun to resume, or "
                    "inspect the store's .poison markers."
                )

    return [_MEMORY[scenario] for scenario in requested]


def run_one(
    scenario: ScenarioConfig, store: Optional[ResultStore] = None
) -> SimulationResult:
    """Resolve a single scenario through the cache tiers (never forks)."""
    return run_scenarios([scenario], workers=1, store=store)[0]
