"""Persistent, content-addressed result store.

Every :class:`~repro.wsn.scenario.ScenarioConfig` has a *canonical encoding*
(deterministic JSON over every field, nested configs included) whose SHA-256
digest is the scenario's **store key**.  A :class:`ResultStore` is a
directory of ``<key>.json`` files, each holding the full serialised
:class:`~repro.wsn.results.SimulationResult` of one run.  Because scenarios
are pure functions of their configuration, a stored result is valid forever:
reruns are free across processes, and an interrupted sweep resumes from
whatever subset of its grid already landed on disk.

Robustness rules:

* writes are atomic and durable (temp file + flush + ``fsync`` +
  ``os.replace``), so neither a killed process nor a power cut can leave a
  half-written entry under a final key;
* reads treat an *undecodable* file -- truncated, corrupted, produced by an
  incompatible schema -- as a cache miss and recompute, never crash; the
  bad file is quarantined aside to ``<key>.corrupt`` (with a log line) so
  disk faults stay observable instead of being silently overwritten;
* a decoded entry whose embedded scenario does not match the requested one
  (hash collision, or an encoding that silently dropped a field) is also a
  miss -- but *not* quarantined: the file is a perfectly healthy entry for
  some other schema epoch, just not an answer to this request;
* a scenario that repeatedly crashes its worker is recorded as a *poison
  marker* (``<key>.poison``, see :meth:`ResultStore.record_poison`) by the
  supervised sweep executor, so a resumed sweep can see -- and a human can
  inspect -- what was quarantined rather than wondering what went missing.

Cache-key hygiene invariants (what keeps a warm store trustworthy):

* the canonical encoding is produced by ``dataclasses.asdict`` over
  *every* ``ScenarioConfig`` field, nested configs included -- a new
  scenario knob is part of the key the moment it exists, so two scenarios
  that differ in any field can never share an entry
  (``tests/test_orchestrator.py::test_every_field_is_part_of_the_encoding``);
* :data:`STORE_SCHEMA_VERSION` is hashed into every key and must be bumped
  whenever a *code* change alters what a scenario computes -- results are
  pure functions of ``(scenario, code)``, and the version is the code's
  stand-in;
* served entries are verified: the embedded scenario must decode equal to
  the requested one, so even a key collision degrades to a recompute.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..wsn.results import SimulationResult
from ..wsn.scenario import ScenarioConfig

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical_scenario_json",
    "scenario_key",
    "StoreHealth",
    "ResultStore",
]

logger = logging.getLogger("repro.orchestrator")

#: Stamped into every store key.  A stored result is a pure function of the
#: scenario *and of the simulation code*: bump this whenever a change to the
#: simulator, detectors or serialisation alters what a scenario computes, so
#: warm stores from older code are invalidated instead of silently served.
#:
#: History: 2 -- the metric-space subsystem added ``metric``/``metric_params``
#: to :class:`~repro.core.config.DetectionConfig` and ``extra_channels`` to
#: :class:`~repro.wsn.scenario.ScenarioConfig`; entries written by schema-1
#: code would otherwise decode to a scenario that no longer matches the
#: requested one field-for-field, so they are recomputed rather than mis-hit.
#:
#: History: 3 -- the fault-and-churn subsystem added ``faults`` (a nested
#: :class:`~repro.wsn.faults.FaultConfig`) to ``ScenarioConfig`` and the
#: optional ``fault_stats`` section to serialised results.  Fault-free runs
#: still *compute* byte-identical transcripts, but schema-2 encodings lack
#: the ``faults`` field and would fail the decoded-scenario equality check
#: anyway -- the bump makes the invalidation explicit instead of incidental.
#:
#: History: 4 -- batched event application added ``batched`` to
#: :class:`~repro.core.config.DetectionConfig`.  The flag never changes a
#: transcript, but it changes the canonical scenario encoding (and hence
#: the cache key), so schema-3 entries are recomputed rather than mis-hit
#: against a scenario that no longer decodes field-for-field.  The
#: ``indexed`` and ``batched`` fields have since been deleted (one engine
#: runs every scenario); their keys stay in the schema-4 encoding, frozen
#: at ``true`` (:data:`~repro.wsn.scenario.FROZEN_DETECTION_KEYS`), so
#: every key and stored entry is unchanged and no bump was needed.
STORE_SCHEMA_VERSION = 4


def canonical_scenario_json(scenario: ScenarioConfig) -> str:
    """The canonical encoding: deterministic JSON over every scenario field."""
    return json.dumps(
        scenario.to_json_dict(), sort_keys=True, separators=(",", ":")
    )


def scenario_key(scenario: ScenarioConfig) -> str:
    """Content hash of the canonical encoding plus the schema version (the
    store filename stem)."""
    keyed = f'{{"schema":{STORE_SCHEMA_VERSION},"scenario":{canonical_scenario_json(scenario)}}}'
    return hashlib.sha256(keyed.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreHealth:
    """Counts of everything a store directory holds besides healthy entries.

    Quarantine is useless if nothing reads it: ``get`` moves undecodable
    entries aside to ``<key>.corrupt`` and the supervised sweep executor
    records ``<key>.poison`` markers, but until a reader surfaces those
    counts they are invisible except to someone listing the directory by
    hand.  ``ResultStore.health()`` returns this snapshot so reports (and
    tests) can assert that nothing was silently lost.
    """

    entries: int
    corrupt: int
    poison: int

    @property
    def quarantined(self) -> int:
        """Everything set aside rather than served (corrupt + poison)."""
        return self.corrupt + self.poison


class ResultStore:
    """A directory of serialised simulation results, keyed by scenario."""

    def __init__(self, root: Union[str, Path]) -> None:
        # Construction is cheap on purpose (``default_store`` builds one per
        # lookup from the environment); the directory is created lazily on
        # the first write.
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, scenario: ScenarioConfig) -> Path:
        return self.root / f"{scenario_key(scenario)}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, scenario: ScenarioConfig) -> Optional[SimulationResult]:
        """The stored result for ``scenario``, or ``None`` on a miss.

        A file that cannot be read, parsed or decoded -- or that decodes to
        a *different* scenario -- is treated as a miss (the executor will
        recompute and overwrite it).
        """
        path = self.path_for(scenario)
        try:
            payload = json.loads(path.read_text())
            result = SimulationResult.from_json_dict(payload)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, corrupted bytes, incompatible schema: a miss,
            # but quarantine the file aside so the disk fault stays
            # observable (and the recompute's overwrite cannot hide it).
            quarantined = path.with_suffix(".corrupt")
            try:
                os.replace(path, quarantined)
            except OSError:  # pragma: no cover - raced or unwritable dir
                return None
            logger.warning(
                "quarantined undecodable result entry %s -> %s",
                path,
                quarantined,
            )
            return None
        if result.scenario != scenario:
            # Healthy file, wrong scenario (key collision / schema drift):
            # a silent miss, not a quarantine.
            return None
        return result

    def put(self, result: SimulationResult) -> Path:
        """Durably and atomically persist ``result`` under its scenario's key.

        The payload is flushed and fsynced before the atomic rename: a
        sweep's write-through cache is its crash-recovery story, so once
        ``put`` returns the entry must survive the process dying at any
        later instant.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.scenario)
        payload = json.dumps(result.to_json_dict(), sort_keys=True, indent=1)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
        with open(tmp, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Poison markers
    # ------------------------------------------------------------------
    def poison_path_for(self, scenario: ScenarioConfig) -> Path:
        # ``.poison``, not ``.poison.json``: markers must never match the
        # ``*.json`` glob that enumerates result entries.
        return self.root / f"{scenario_key(scenario)}.poison"

    def record_poison(
        self, scenario: ScenarioConfig, reason: str, attempts: int
    ) -> Path:
        """Record that ``scenario`` was quarantined after ``attempts``
        failed executions (see
        :class:`~repro.orchestrator.supervisor.SweepSupervisor`)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.poison_path_for(scenario)
        payload = json.dumps(
            {
                "scenario": scenario.to_json_dict(),
                "reason": reason,
                "attempts": attempts,
            },
            sort_keys=True,
            indent=1,
        )
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
        with open(tmp, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        logger.warning("recorded poison scenario marker %s", path)
        return path

    def poison_entries(self) -> List[Path]:
        """Paths of every recorded poison marker."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.poison"))

    def corrupt_entries(self) -> List[Path]:
        """Paths of every entry :meth:`get` quarantined as undecodable."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.corrupt"))

    def health(self) -> StoreHealth:
        """Snapshot of entry / quarantine counts (see :class:`StoreHealth`)."""
        return StoreHealth(
            entries=len(self.entries()),
            corrupt=len(self.corrupt_entries()),
            poison=len(self.poison_entries()),
        )

    def __contains__(self, scenario: ScenarioConfig) -> bool:  # type: ignore[override]
        return self.get(scenario) is not None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[Path]:
        """Paths of every (possibly invalid) entry currently on disk."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def __iter__(self) -> Iterator[SimulationResult]:
        """Decode every valid entry (invalid files are skipped)."""
        for path in self.entries():
            try:
                yield SimulationResult.from_json_dict(json.loads(path.read_text()))
            except Exception:
                continue

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"
