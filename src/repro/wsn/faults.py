"""Fault-and-churn scenario subsystem.

The paper's headline robustness claim is that in-network outlier detection
stays correct under *network dynamics*: nodes joining and dying, links
degrading, sensors going bad.  This module turns those dynamics into a
pluggable, deterministic scenario axis:

* :class:`FaultConfig` -- the user-facing knob set, a frozen dataclass that
  lives on :class:`~repro.wsn.scenario.ScenarioConfig` (so it is part of the
  JSON round-trip and of the result store's cache key);
* :class:`FaultPlan` -- the *concrete* per-node schedule (crash/recovery
  intervals, duty-cycle sleep intervals, per-node sensor faults) derived
  deterministically from the scenario seed via named
  :class:`~repro.simulator.rng.RandomStreams`;
* :class:`FaultRuntime` -- the simulation-time driver that turns the plan
  into :class:`~repro.simulator.events.Event` objects (fired at
  :attr:`~repro.simulator.events.EventPriority.FAULT` priority so state
  flips precede same-instant traffic) and collects per-node availability
  counters for the result's ``fault_stats``.

Determinism contract
--------------------
Every schedule is a pure function of ``(FaultConfig, ScenarioConfig)``:
each node draws from its own named stream (``fault-crash-<id>``,
``fault-duty-<id>``), so adding a fault type or a node never perturbs the
draws of another, and the *default* configuration is the identity -- no
streams are consumed, no events are scheduled, and the simulation transcript
is byte-identical to a pre-fault-subsystem run.

The four fault families:

* **crash/recovery** -- a node dies at a random time and (optionally)
  reboots after a downtime drawn in rounds; a reboot loses RAM, so the
  node's window and detector holdings are cleared (neighbors still hold its
  stale points until window expiry -- exactly the churn the paper argues the
  protocol absorbs);
* **duty-cycle sleep** -- each node periodically turns its radio off for
  ``1 - duty_cycle`` of every ``duty_period_rounds`` window, phase-shifted
  per node (state is retained across sleep);
* **Gilbert-Elliott burst loss** -- a two-state good/bad Markov chain per
  directed link replaces the i.i.d. Bernoulli loss model (see
  :class:`~repro.network.channel.GilbertElliottParams`), modelling the
  correlated fades real radios exhibit;
* **sensor stuck-at / drift** -- a whole sensor goes bad from a random
  epoch onward; injected at the *dataset* layer (see
  :func:`~repro.datasets.outlier_injection.apply_node_faults`) so every
  algorithm and the offline references see the same corrupted stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..network.channel import GilbertElliottParams
from ..simulator.engine import Simulator
from ..simulator.events import EventPriority
from ..simulator.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.node import SimNode
    from ..network.topology import Topology
    from .scenario import ScenarioConfig

__all__ = ["FaultConfig", "FaultPlan", "FaultRuntime", "NodeFaultSchedule"]

#: Interval kinds of a :class:`NodeFaultSchedule` entry.
CRASH = "crash"
SLEEP = "sleep"

#: Crash instants are drawn uniformly inside this fraction of the run, so a
#: crash neither pre-empts the first windows nor lands after the last sample.
_CRASH_WINDOW = (0.1, 0.85)


@dataclass(frozen=True)
class FaultConfig:
    """Fault-model knobs of one scenario.  All defaults mean "no faults".

    Attributes
    ----------
    crash_probability:
        Per-node probability (sink exempt) of crashing once during the run.
    recovery_probability:
        Probability that a crashed node reboots; a reboot clears the node's
        window and detector state (RAM loss).
    min_downtime_rounds / max_downtime_rounds:
        Downtime of a recovering node, drawn uniformly in rounds.
    duty_cycle:
        Awake fraction of every duty period (``1.0`` disables sleeping).
    duty_period_rounds:
        Length of one sleep/wake cycle in sampling rounds.
    burst_to_bad / burst_to_good:
        Gilbert-Elliott state-transition probabilities per delivery attempt;
        ``burst_to_bad > 0`` switches the channel from i.i.d. Bernoulli loss
        to the two-state burst model.
    burst_loss_good / burst_loss_bad:
        Loss probability in the good / bad channel state.
    sensor_stuck_probability / sensor_drift_probability:
        Per-node probability of the *sensor* (not the radio) going bad from
        a random epoch onward: stuck-at a constant, or drifting away from
        the truth.  Applied at the dataset layer, so the offline reference
        answers see the same corrupted points the network does.
    """

    crash_probability: float = 0.0
    recovery_probability: float = 0.0
    min_downtime_rounds: int = 1
    max_downtime_rounds: int = 4
    duty_cycle: float = 1.0
    duty_period_rounds: int = 4
    burst_to_bad: float = 0.0
    burst_to_good: float = 0.25
    burst_loss_good: float = 0.0
    burst_loss_bad: float = 0.8
    sensor_stuck_probability: float = 0.0
    sensor_drift_probability: float = 0.0

    def __post_init__(self) -> None:
        probabilities = (
            "crash_probability",
            "recovery_probability",
            "burst_to_bad",
            "burst_loss_good",
            "sensor_stuck_probability",
            "sensor_drift_probability",
        )
        for name in probabilities:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.burst_to_good <= 1.0:
            # A bad state that can never recover would make every link
            # eventually permanently dead -- almost certainly a typo.
            raise ConfigurationError(
                f"burst_to_good must be in (0, 1], got {self.burst_to_good}"
            )
        if not 0.0 <= self.burst_loss_bad <= 1.0:
            raise ConfigurationError(
                f"burst_loss_bad must be in [0, 1], got {self.burst_loss_bad}"
            )
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError(
                f"duty_cycle must be in (0, 1], got {self.duty_cycle}"
            )
        if self.duty_period_rounds < 1:
            raise ConfigurationError(
                f"duty_period_rounds must be >= 1, got {self.duty_period_rounds}"
            )
        if self.min_downtime_rounds < 1:
            raise ConfigurationError(
                f"min_downtime_rounds must be >= 1, got {self.min_downtime_rounds}"
            )
        if self.max_downtime_rounds < self.min_downtime_rounds:
            raise ConfigurationError(
                "max_downtime_rounds must be >= min_downtime_rounds, got "
                f"{self.max_downtime_rounds} < {self.min_downtime_rounds}"
            )
        if self.sensor_stuck_probability + self.sensor_drift_probability > 1.0:
            raise ConfigurationError(
                "sensor_stuck_probability + sensor_drift_probability must "
                "not exceed 1"
            )

    # ------------------------------------------------------------------
    # Which subsystems does this configuration engage?
    # ------------------------------------------------------------------
    @property
    def churn_enabled(self) -> bool:
        """Does any node ever turn its radio off (crash or sleep)?"""
        return self.crash_probability > 0.0 or self.duty_cycle < 1.0

    @property
    def burst_enabled(self) -> bool:
        """Does the channel run the Gilbert-Elliott burst model?"""
        return self.burst_to_bad > 0.0

    @property
    def sensor_enabled(self) -> bool:
        """Does any sensor go permanently bad at the dataset layer?"""
        return (
            self.sensor_stuck_probability > 0.0
            or self.sensor_drift_probability > 0.0
        )

    @property
    def enabled(self) -> bool:
        return self.churn_enabled or self.burst_enabled or self.sensor_enabled

    def burst_params(self) -> Optional[GilbertElliottParams]:
        """The channel-layer burst model, or ``None`` when disabled."""
        if not self.burst_enabled:
            return None
        return GilbertElliottParams(
            p_good_to_bad=self.burst_to_bad,
            p_bad_to_good=self.burst_to_good,
            loss_good=self.burst_loss_good,
            loss_bad=self.burst_loss_bad,
        )


@dataclass(frozen=True)
class NodeFaultSchedule:
    """Concrete radio-off intervals of one node.

    ``intervals`` holds ``(start, end, kind)`` triples in simulated seconds;
    ``end`` may be ``inf`` for a crash without recovery.  Intervals of
    different kinds may overlap (a crash during a sleep phase); the runtime
    counts reasons, so a node is up exactly when no interval covers ``now``.
    """

    node_id: int
    intervals: Tuple[Tuple[float, float, str], ...] = ()

    def downtime_within(self, horizon: float) -> float:
        """Total seconds of the union of intervals clipped to ``[0, horizon]``."""
        clipped = sorted(
            (max(0.0, start), min(horizon, end))
            for start, end, _kind in self.intervals
            if start < horizon and end > start
        )
        total = 0.0
        current_start: Optional[float] = None
        current_end = 0.0
        for start, end in clipped:
            if current_start is None or start > current_end:
                if current_start is not None:
                    total += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_start is not None:
            total += current_end - current_start
        return total


class FaultPlan:
    """Deterministic fault schedules for every node of one scenario."""

    def __init__(
        self,
        schedules: Dict[int, NodeFaultSchedule],
        duration: float,
    ) -> None:
        self.schedules = schedules
        self.duration = duration

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, scenario: "ScenarioConfig") -> "FaultPlan":
        """Build the plan implied by ``scenario`` (pure function of it).

        The sink is exempt from crash and sleep so the centralized baseline
        never loses its collection point and the topology keeps its anchor;
        every other node draws from its own named streams, so the plan of
        one node never depends on how many faults another drew.
        """
        faults = scenario.faults
        duration = scenario.duration
        period = scenario.sampling_period
        family = RandomStreams(scenario.seed)
        schedules: Dict[int, NodeFaultSchedule] = {}
        for node_id in range(scenario.node_count):
            if node_id == scenario.sink_id:
                continue
            intervals: List[Tuple[float, float, str]] = []
            intervals.extend(
                cls._crash_intervals(faults, family, node_id, duration, period)
            )
            intervals.extend(
                cls._sleep_intervals(faults, family, node_id, duration, period)
            )
            if intervals:
                schedules[node_id] = NodeFaultSchedule(
                    node_id=node_id, intervals=tuple(sorted(intervals))
                )
        return cls(schedules, duration)

    @staticmethod
    def _crash_intervals(
        faults: FaultConfig,
        family: RandomStreams,
        node_id: int,
        duration: float,
        period: float,
    ) -> List[Tuple[float, float, str]]:
        if faults.crash_probability <= 0.0:
            return []
        stream = family.stream(f"fault-crash-{node_id}")
        if stream.random() >= faults.crash_probability:
            return []
        low, high = _CRASH_WINDOW
        down = stream.uniform(low * duration, high * duration)
        up = math.inf
        if (
            faults.recovery_probability > 0.0
            and stream.random() < faults.recovery_probability
        ):
            rounds_down = stream.randint(
                faults.min_downtime_rounds, faults.max_downtime_rounds
            )
            up = down + rounds_down * period
        return [(down, up, CRASH)]

    @staticmethod
    def _sleep_intervals(
        faults: FaultConfig,
        family: RandomStreams,
        node_id: int,
        duration: float,
        period: float,
    ) -> List[Tuple[float, float, str]]:
        if faults.duty_cycle >= 1.0:
            return []
        cycle = faults.duty_period_rounds * period
        awake = faults.duty_cycle * cycle
        stream = family.stream(f"fault-duty-{node_id}")
        phase = stream.uniform(0.0, cycle)
        intervals: List[Tuple[float, float, str]] = []
        # Start one cycle early so a sleep window wrapping t=0 is covered.
        start = phase - cycle + awake
        while start < duration:
            end = start + (cycle - awake)
            if end > 0.0:
                intervals.append((max(0.0, start), min(end, duration), SLEEP))
            start += cycle
        return intervals

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def availability(self, node_id: int) -> float:
        """Planned up-time fraction of ``node_id`` over the run."""
        schedule = self.schedules.get(node_id)
        if schedule is None or self.duration <= 0.0:
            return 1.0
        return 1.0 - schedule.downtime_within(self.duration) / self.duration

    @property
    def any_downtime(self) -> bool:
        return any(s.intervals for s in self.schedules.values())


class FaultRuntime:
    """Drives a :class:`FaultPlan` on a live deployment.

    Power transitions are ordinary simulator events at
    :attr:`~repro.simulator.events.EventPriority.FAULT` priority, so at any
    shared instant the availability flip happens before samples and packet
    deliveries.  A node can be down for several reasons at once (crash
    during a sleep window); a per-node depth counter keeps the radio off
    until the last reason clears, and only a *crash* recovery clears
    application state.

    Every transition is also announced to the affected live neighborhoods
    as the protocol's event (iv) -- idealised link-layer failure detection:
    when node ``i`` goes down, every up neighbor ``j`` processes
    ``neighborhood_changed(Γ_j minus the down nodes)``; when ``i`` comes
    back, both ``i`` and its up neighbors re-learn the live links.  This is
    the repair mechanism the paper prescribes for churn -- dropping a link
    resets the shared-knowledge bookkeeping on both sides, so re-adding it
    re-negotiates exactly the points the other side needs.
    """

    def __init__(
        self,
        plan: FaultPlan,
        nodes: Dict[int, "SimNode"],
        apps: Dict[int, object],
        adjacency: Optional[Dict[int, set]] = None,
        topology: Optional["Topology"] = None,
    ) -> None:
        self.plan = plan
        self._nodes = nodes
        self._apps = apps
        # Preferred: query neighborhoods lazily through the topology's
        # spatial index / CSR adjacency, so a crash or recovery touches only
        # the affected node's own neighborhood (O(degree)), never a
        # whole-network adjacency materialisation.  The ``adjacency`` dict
        # remains accepted for callers that assemble runtimes by hand.
        self._topology = topology
        self._adjacency = adjacency or {}
        self._down_depth: Dict[int, int] = {node_id: 0 for node_id in nodes}
        self.samples_taken: Dict[int, int] = {node_id: 0 for node_id in nodes}
        self.samples_skipped: Dict[int, int] = {node_id: 0 for node_id in nodes}
        #: ``(origin, epoch)`` of every sample a down node missed.  These
        #: points never entered the network, so the reference answer is
        #: computed over the dataset *minus* this set.
        self.skipped_keys: set = set()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, simulator: Simulator) -> None:
        """Queue every power transition of the plan on ``simulator``.

        Transitions at or beyond the sampling horizon are not scheduled:
        they could not influence any sample or delivery, but a recovery
        event *after* the horizon would advance the simulated clock and
        skew the idle-energy accounting shared with fault-free runs.
        """
        horizon = self.plan.duration
        for node_id, schedule in sorted(self.plan.schedules.items()):
            for start, end, kind in schedule.intervals:
                if start >= horizon:
                    continue
                simulator.schedule_at(
                    max(0.0, start),
                    self.power_down,
                    node_id,
                    priority=EventPriority.FAULT,
                )
                if end < horizon:
                    simulator.schedule_at(
                        end,
                        self.power_up,
                        node_id,
                        kind,
                        priority=EventPriority.FAULT,
                    )

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def power_down(self, node_id: int) -> None:
        self._down_depth[node_id] += 1
        if self._down_depth[node_id] == 1:
            self._nodes[node_id].power_down()
            self._notify_neighbors(node_id)

    def power_up(self, node_id: int, kind: str) -> None:
        self._down_depth[node_id] -= 1
        if kind == CRASH:
            # A reboot loses RAM: clear the window, the detector holdings
            # and the per-link shared-knowledge bookkeeping.  This happens
            # when the *crash* interval ends, even if a sleep interval
            # still keeps the radio down -- the mote rebooted either way.
            reset: Optional[Callable[[], None]] = getattr(
                self._apps.get(node_id), "crash_reset", None
            )
            if reset is not None:
                reset()
        if self._down_depth[node_id] == 0:
            self._nodes[node_id].power_up()
            # The woken/rebooted node re-learns its live neighborhood (it
            # missed any transitions while down), then its neighbors
            # re-learn theirs -- the link-restored halves of event (iv).
            self._deliver_neighborhood(node_id)
            self._notify_neighbors(node_id)

    def _neighbors(self, node_id: int) -> Tuple[int, ...]:
        """``node_id``'s neighbors in ascending id order.

        With a topology attached this is one cached-tuple lookup
        (O(degree)); the legacy adjacency dict is sorted on demand.
        """
        if self._topology is not None:
            return self._topology.neighbors_sorted(node_id)
        return tuple(sorted(self._adjacency.get(node_id, ())))

    def _notify_neighbors(self, node_id: int) -> None:
        for neighbor_id in self._neighbors(node_id):
            if self._nodes[neighbor_id].up:
                self._deliver_neighborhood(neighbor_id)

    def _deliver_neighborhood(self, node_id: int) -> None:
        handler = getattr(self._apps.get(node_id), "neighborhood_changed", None)
        if handler is None:
            return
        live = {
            neighbor_id
            for neighbor_id in self._neighbors(node_id)
            if self._nodes[neighbor_id].up
        }
        handler(live)

    # ------------------------------------------------------------------
    # Guarded sampling (replaces the direct ``app.sample`` schedule)
    # ------------------------------------------------------------------
    def sample_or_skip(self, node_id: int, point) -> None:
        """Sample through ``node_id``'s app unless its node is down."""
        if self._nodes[node_id].up:
            self.samples_taken[node_id] += 1
            self._apps[node_id].sample(point)
        else:
            self.samples_skipped[node_id] += 1
            self.skipped_keys.add((point.origin, point.epoch))

    # ------------------------------------------------------------------
    # Result material
    # ------------------------------------------------------------------
    def stats(self) -> Dict[int, Dict[str, float]]:
        """Per-node availability counters for ``SimulationResult.fault_stats``."""
        return {
            node_id: {
                "samples_taken": self.samples_taken[node_id],
                "samples_skipped": self.samples_skipped[node_id],
                "downtime_seconds": (
                    self.plan.schedules[node_id].downtime_within(self.plan.duration)
                    if node_id in self.plan.schedules
                    else 0.0
                ),
                "availability": self.plan.availability(node_id),
            }
            for node_id in sorted(self._nodes)
        }
