"""Supervised sweep pool: crash/hang detection, retry, poison quarantine.

:class:`SweepSupervisor` replaces a ``multiprocessing.Pool`` in the sweep
executor (a ``Pool`` deadlocks when a worker is SIGKILLed mid-task).  It
dispatches one scenario per worker at a time, applies a per-scenario
timeout, retries a failed scenario with backoff on a fresh worker, and
quarantines a scenario that keeps failing as *poison* -- recorded, never
silently dropped.  Scenarios are pure functions of their config, so a
retried scenario lands the identical result bytes.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import ConfigurationError, ExperimentError
from .chaos import ChaosPlan

__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "RecoveryConfig",
    "SweepSupervisor",
    "backoff",
    "check_chaos",
    "sweep_worker_main",
]

_INFINITY = float("inf")

#: Restart delay before the ``attempt``-th restart of one worker slot:
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(attempt-1))`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def backoff(attempt: int) -> float:
    """Restart delay before the ``attempt``-th restart (1-based)."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** max(0, attempt - 1)))


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the supervised sweep pool.

    Attributes
    ----------
    scenario_timeout:
        Seconds one scenario may run in a pool worker before the worker is
        killed and the scenario retried.  ``None`` disables.
    max_retries:
        How many times a failed scenario is retried before it is
        quarantined as poison.
    """

    scenario_timeout: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.scenario_timeout is not None and self.scenario_timeout <= 0:
            raise ConfigurationError(
                f"scenario_timeout must be positive, got {self.scenario_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


def check_chaos(chaos: Optional[ChaosPlan], recovery: RecoveryConfig) -> None:
    """Reject a chaos plan whose faults the pool could not detect: a
    SIGSTOPped worker is only ever caught by the scenario timeout."""
    if chaos is not None and chaos.has("hang") and recovery.scenario_timeout is None:
        raise ConfigurationError(
            "hang chaos needs a scenario_timeout to be detectable"
        )


def sweep_worker_main(conn, task) -> None:
    """Entry point of one supervised sweep worker process.

    Protocol: supervisor sends ``("task", tag, scenario)`` or ``("stop",)``;
    the worker answers ``("result", tag, result)`` or
    ``("error", tag, formatted_traceback)``.
    """
    try:
        while True:
            message = conn.recv()
            if message[0] == "task":
                _, tag, scenario = message
                try:
                    result = task(scenario)
                except BaseException:
                    conn.send(("error", tag, traceback.format_exc()))
                else:
                    conn.send(("result", tag, result))
            elif message[0] == "stop":
                return
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class SweepSupervisor:
    """A chaos-tolerant replacement for the sweep executor's process pool.

    One scenario is dispatched per worker at a time; a worker that crashes,
    hangs past ``scenario_timeout``, or raises hands its scenario back for
    a retry (with backoff) until ``max_retries`` is exhausted, after which
    the scenario is quarantined in :attr:`poisoned`.  Results are yielded
    in *completion* order -- the caller keys by scenario.
    """

    def __init__(
        self,
        task,
        workers: int,
        *,
        recovery: Optional[RecoveryConfig] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.task = task
        self.workers = workers
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        self.chaos = chaos
        check_chaos(chaos, self.recovery)
        self.context = multiprocessing.get_context()
        self.processes: List[Optional[multiprocessing.Process]] = [None] * workers
        self.connections: List[Optional[object]] = [None] * workers
        #: ``(scenario index, scenario, deadline)`` per busy worker.
        self.busy: List[Optional[Tuple[int, object, float]]] = [None] * workers
        self.dispatch_counts = [0] * workers
        self.restart_counts = [0] * workers
        #: Quarantined scenarios: ``{"scenario", "reason", "attempts"}``.
        self.poisoned: List[dict] = []

    # ------------------------------------------------------------------
    def run(self, scenarios) -> Iterator[Tuple[object, object]]:
        """Yield ``(scenario, result)`` pairs in completion order."""
        pending = deque(enumerate(scenarios))
        attempts: Dict[int, int] = {}
        try:
            while pending or any(slot is not None for slot in self.busy):
                self._dispatch(pending, attempts)
                yield from self._collect(pending, attempts)
        finally:
            self.close()

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        for worker, conn in enumerate(self.connections):
            if conn is None:
                continue
            if self.busy[worker] is None:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker, process in enumerate(self.processes):
            if process is None:
                continue
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join()
            self.processes[worker] = None
        for worker, conn in enumerate(self.connections):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                self.connections[worker] = None

    # ------------------------------------------------------------------
    def _spawn(self, worker: int) -> None:
        if self.restart_counts[worker]:
            time.sleep(backoff(self.restart_counts[worker]))
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=sweep_worker_main,
            args=(child_conn, self.task),
            name=f"repro-sweep-{worker}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.processes[worker] = process
        self.connections[worker] = parent_conn

    def _dispatch(self, pending, attempts: Dict[int, int]) -> None:
        for worker in range(self.workers):
            if not pending or self.busy[worker] is not None:
                continue
            process = self.processes[worker]
            if process is None or not process.is_alive():
                self._spawn(worker)
            index, scenario = pending.popleft()
            self.dispatch_counts[worker] += 1
            deadline = (
                time.monotonic() + self.recovery.scenario_timeout
                if self.recovery.scenario_timeout is not None
                else _INFINITY
            )
            try:
                self.connections[worker].send(("task", index, scenario))
            except (BrokenPipeError, OSError):
                self.busy[worker] = (index, scenario, deadline)
                self._fail(
                    worker,
                    pending,
                    attempts,
                    "worker pipe closed before dispatch",
                )
                continue
            self.busy[worker] = (index, scenario, deadline)
            self._fire_chaos(worker)

    def _collect(self, pending, attempts: Dict[int, int]):
        live = {
            self.connections[worker]: worker
            for worker in range(self.workers)
            if self.busy[worker] is not None and self.connections[worker] is not None
        }
        if not live:
            return
        nearest = min(slot[2] for slot in self.busy if slot is not None)
        timeout = None if nearest == _INFINITY else max(0.0, nearest - time.monotonic())
        ready = _connection_wait(list(live), timeout)
        if not ready:
            now = time.monotonic()
            for worker in range(self.workers):
                slot = self.busy[worker]
                if slot is not None and slot[2] <= now:
                    self._fail(
                        worker,
                        pending,
                        attempts,
                        f"scenario exceeded the {self.recovery.scenario_timeout:g}s "
                        f"timeout (worker killed)",
                    )
            return
        for conn in ready:
            worker = live[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                process = self.processes[worker]
                self._fail(
                    worker,
                    pending,
                    attempts,
                    f"worker exited unexpectedly (exit code {process.exitcode})",
                )
                continue
            kind, tag, payload = message
            index, scenario, _ = self.busy[worker]
            assert tag == index, (tag, index)
            self.busy[worker] = None
            if kind == "result":
                yield scenario, payload
            else:  # "error": the task raised -- worker itself is fine
                self._retry_or_poison(
                    index, scenario, pending, attempts,
                    f"scenario raised:\n{payload}",
                )

    def _fail(self, worker: int, pending, attempts: Dict[int, int], reason: str) -> None:
        """A worker died or hung while running a scenario: reap it and put
        the scenario back (or quarantine it)."""
        index, scenario, _ = self.busy[worker]
        self.busy[worker] = None
        process = self.processes[worker]
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join()
        conn = self.connections[worker]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self.processes[worker] = None
        self.connections[worker] = None
        self.restart_counts[worker] += 1
        self._retry_or_poison(index, scenario, pending, attempts, reason)

    def _retry_or_poison(
        self, index: int, scenario, pending, attempts: Dict[int, int], reason: str
    ) -> None:
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] > self.recovery.max_retries:
            self.poisoned.append(
                {
                    "scenario": scenario,
                    "reason": reason,
                    "attempts": attempts[index],
                }
            )
        else:
            pending.appendleft((index, scenario))

    def _fire_chaos(self, worker: int) -> None:
        if self.chaos is None:
            return
        action = self.chaos.take(worker, self.dispatch_counts[worker])
        if action is None:
            return
        process = self.processes[worker]
        if process is not None and process.pid is not None:
            action.apply(process.pid)
