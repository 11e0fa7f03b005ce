"""Deterministic process-level fault injection against sweep pool workers.

A chaos plan is a comma-separated schedule of faults against real worker
processes, parsed from the ``sweep --chaos`` CLI flag::

    kill:worker0@task2      SIGKILL sweep pool worker 0 right after its
                            2nd scenario dispatch
    hang:worker1            SIGSTOP sweep pool worker 1 after its 1st
                            dispatch (``@...`` defaults to 1)

Indices are the pool's own 0-based worker indices; trigger counts are
1-based ("the Nth dispatch").  Each action fires exactly once, at a point
keyed to the dispatch schedule rather than to wall-clock, so a chaos sweep
is reproducible -- which is what lets CI assert that the recovered store
is canonically identical to a clean one.
"""

from __future__ import annotations

import os
import re
import signal
from dataclasses import dataclass
from typing import List, Optional

from ..core.errors import ConfigurationError

__all__ = ["ChaosAction", "ChaosPlan"]

#: ``kind:worker index [@task count]``
_ENTRY_RE = re.compile(r"^(?P<kind>kill|hang):worker(?P<index>\d+)(?:@task(?P<at>\d+))?$")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault against one pool worker process."""

    kind: str  # "kill" (SIGKILL) or "hang" (SIGSTOP)
    index: int  # 0-based pool-worker index
    at: int  # 1-based trigger count (task dispatches)

    def describe(self) -> str:
        return f"{self.kind}:worker{self.index}@task{self.at}"

    def apply(self, pid: int) -> None:
        """Deliver the fault to the live process ``pid``.

        ``kill`` is immediate and unblockable; ``hang`` stops the process
        cold (it holds its pipe open but never answers), which is exactly
        the failure mode a supervisor can only catch via timeout.
        """
        os.kill(pid, signal.SIGKILL if self.kind == "kill" else signal.SIGSTOP)


class ChaosPlan:
    """The pending fault schedule; actions are consumed as they fire."""

    def __init__(self, actions: List[ChaosAction]) -> None:
        self._pending: List[ChaosAction] = list(actions)
        #: Actions already fired, in firing order (for reporting).
        self.fired: List[ChaosAction] = []

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse a ``--chaos`` specification string."""
        actions = []
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            match = _ENTRY_RE.match(token)
            if match is None:
                raise ConfigurationError(
                    f"bad chaos entry {token!r}; expected 'kill|hang:workerI[@taskN]'"
                )
            at = int(match.group("at")) if match.group("at") is not None else 1
            if at < 1:
                raise ConfigurationError(
                    f"bad chaos entry {token!r}: trigger counts are 1-based"
                )
            actions.append(
                ChaosAction(kind=match.group("kind"), index=int(match.group("index")), at=at)
            )
        if not actions:
            raise ConfigurationError(f"empty chaos specification {spec!r}")
        return cls(actions)

    def take(self, index: int, count: int) -> Optional[ChaosAction]:
        """Pop and return the pending action scheduled for worker ``index``'s
        ``count``-th dispatch, or ``None``.  Each action fires once.
        """
        for position, action in enumerate(self._pending):
            if action.index == index and action.at == count:
                self.fired.append(self._pending.pop(position))
                return self.fired[-1]
        return None

    def has(self, kind: Optional[str] = None) -> bool:
        """Whether any action (of ``kind``, when given) is still pending."""
        return any(kind is None or action.kind == kind for action in self._pending)

    def pending(self) -> List[ChaosAction]:
        return list(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChaosPlan({[a.describe() for a in self._pending]})"
