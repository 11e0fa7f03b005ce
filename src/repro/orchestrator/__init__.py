"""Sweep orchestration: parallel execution, persistent results, registries.

The paper's evaluation is a grid of independent, seed-deterministic
simulation runs.  This package turns that structure into infrastructure:

* :mod:`~repro.orchestrator.executor` -- resolve batches of scenarios
  through a two-tier cache (process memory + disk) and a supervised
  worker pool, with bit-identical parallel/serial results;
* :mod:`~repro.orchestrator.supervisor` -- that pool: per-scenario
  timeout, retry on a fresh worker after a crash or hang, poison
  quarantine;
* :mod:`~repro.orchestrator.chaos` -- deterministic SIGKILL/SIGSTOP
  injection against pool workers (``sweep --chaos 'kill:worker0@task2'``);
* :mod:`~repro.orchestrator.store` -- the persistent, content-addressed
  result store (canonical scenario JSON, SHA-256 keys, atomic writes,
  corruption-tolerant reads);
* :mod:`~repro.orchestrator.registry` -- named sweep families driven by the
  ``repro-wsn sweep`` CLI.
"""

from .chaos import ChaosPlan
from .executor import (
    STORE_ONLY_ENV,
    clear_memory,
    default_store,
    default_workers,
    memory_cache,
    run_one,
    run_scenarios,
    store_only_active,
)
from .registry import (
    SweepFamily,
    all_families,
    family_names,
    get_family,
    register,
    unregister,
)
from .store import (
    ResultStore,
    StoreHealth,
    canonical_scenario_json,
    scenario_key,
)
from .supervisor import RecoveryConfig

__all__ = [
    "run_scenarios",
    "run_one",
    "clear_memory",
    "memory_cache",
    "default_workers",
    "default_store",
    "store_only_active",
    "STORE_ONLY_ENV",
    "ChaosPlan",
    "RecoveryConfig",
    "ResultStore",
    "StoreHealth",
    "canonical_scenario_json",
    "scenario_key",
    "SweepFamily",
    "register",
    "unregister",
    "get_family",
    "family_names",
    "all_families",
]
