"""Result container produced by one simulation run.

Besides holding the in-memory reports, a :class:`SimulationResult` can be
serialised to (and rebuilt from) a JSON-safe dict, which is what the
persistent result store (:mod:`repro.orchestrator.store`) writes to disk
and what lets sweep results survive across processes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Set

from ..analysis.accuracy import AccuracyReport
from ..core.points import RestKey
from ..network.channel import ChannelStatistics
from ..network.stats import EnergyReport, NodeEnergy
from .scenario import ScenarioConfig

__all__ = ["SimulationResult"]


def _encode_rest_keys(keys: Set[RestKey]) -> List[List[Any]]:
    """Deterministic (sorted) JSON encoding of a set of rest keys."""
    return [[list(values), origin, epoch] for values, origin, epoch in sorted(keys)]


def _decode_rest_keys(encoded: List[List[Any]]) -> Set[RestKey]:
    return {
        (tuple(float(v) for v in values), int(origin), int(epoch))
        for values, origin, epoch in encoded
    }


@dataclass
class SimulationResult:
    """Everything one run of :func:`repro.wsn.runner.run_scenario` produces.

    Attributes
    ----------
    scenario:
        The configuration that was run.
    energy:
        Per-node energy snapshot (the raw material of Figures 4-9).
    channel:
        Aggregate traffic counters of the wireless channel.
    accuracy:
        Per-node comparison of the final estimates against the reference
        answer over the final sliding windows.
    estimates / references:
        The normalised (rest-key) estimate and reference per node, kept for
        deeper post-hoc analysis.
    protocol_stats:
        Per-node protocol counters (events, points sent/received, ...).
    fault_stats:
        Per-node availability counters when the scenario ran a fault model
        with churn (samples taken/skipped, downtime, planned availability);
        empty -- and absent from the JSON encoding -- for fault-free runs,
        so their encodings are byte-identical to pre-fault-subsystem ones.
    events_executed:
        Number of events of the one-event-per-reception model: the events
        the simulator dispatched plus the overheard unicasts the channel
        counted without scheduling them.
    wallclock_seconds:
        Real time the run took (useful for reporting simulation cost).
    """

    scenario: ScenarioConfig
    energy: EnergyReport
    channel: ChannelStatistics
    accuracy: AccuracyReport
    estimates: Dict[int, Set[RestKey]] = field(default_factory=dict)
    references: Dict[int, Set[RestKey]] = field(default_factory=dict)
    protocol_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    fault_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)
    events_executed: int = 0
    wallclock_seconds: float = 0.0

    @property
    def label(self) -> str:
        return self.scenario.label()

    @property
    def mean_availability(self) -> float:
        """Average planned per-node availability (1.0 without a fault model)."""
        if not self.fault_stats:
            return 1.0
        return sum(s["availability"] for s in self.fault_stats.values()) / len(
            self.fault_stats
        )

    def summary(self) -> Dict[str, float]:
        """Headline numbers for quick inspection and report tables."""
        summary = {
            "avg_tx_per_round": self.energy.average_per_node_per_round("tx_joules"),
            "avg_rx_per_round": self.energy.average_per_node_per_round("rx_joules"),
            "avg_total_per_round": self.energy.average_per_node_per_round("total_joules"),
            "min_node_total": self.energy.minimum_node_total(),
            "max_node_total": self.energy.maximum_node_total(),
            "accuracy_exact": self.accuracy.exact_fraction,
            "accuracy_similarity": self.accuracy.mean_similarity,
            "transmissions": float(self.channel.transmissions),
            "events": float(self.events_executed),
        }
        if self.fault_stats:
            summary["mean_availability"] = self.mean_availability
            summary["samples_skipped"] = float(
                sum(s["samples_skipped"] for s in self.fault_stats.values())
            )
        return summary

    # ------------------------------------------------------------------
    # JSON serialisation
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of the complete result (sets become sorted
        lists, integer keys become strings, so the encoding is canonical)."""
        payload: Dict[str, Any] = {
            "scenario": self.scenario.to_json_dict(),
            "energy": {
                "rounds": self.energy.rounds,
                "nodes": [asdict(node) for node in self.energy.nodes],
            },
            "channel": asdict(self.channel),
            "accuracy": {
                "exact": {str(n): bool(ok) for n, ok in sorted(self.accuracy.exact.items())},
                "similarity": {
                    str(n): sim for n, sim in sorted(self.accuracy.similarity.items())
                },
            },
            "estimates": {
                str(n): _encode_rest_keys(keys) for n, keys in sorted(self.estimates.items())
            },
            "references": {
                str(n): _encode_rest_keys(keys)
                for n, keys in sorted(self.references.items())
            },
            "protocol_stats": {
                str(n): dict(sorted(stats.items()))
                for n, stats in sorted(self.protocol_stats.items())
            },
            "events_executed": self.events_executed,
            "wallclock_seconds": self.wallclock_seconds,
        }
        if self.fault_stats:
            # Key present only for fault-model runs: fault-free encodings
            # stay byte-identical to those written before the subsystem
            # existed (and to the determinism goldens stated over them).
            payload["fault_stats"] = {
                str(n): dict(sorted(stats.items()))
                for n, stats in sorted(self.fault_stats.items())
            }
        return payload

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_json_dict` output."""
        energy = EnergyReport(
            (NodeEnergy(**node) for node in data["energy"]["nodes"]),
            rounds=data["energy"]["rounds"],
        )
        accuracy = AccuracyReport(
            exact={int(n): bool(ok) for n, ok in data["accuracy"]["exact"].items()},
            similarity={
                int(n): float(sim) for n, sim in data["accuracy"]["similarity"].items()
            },
        )
        return cls(
            scenario=ScenarioConfig.from_json_dict(data["scenario"]),
            energy=energy,
            channel=ChannelStatistics(**data["channel"]),
            accuracy=accuracy,
            estimates={
                int(n): _decode_rest_keys(keys) for n, keys in data["estimates"].items()
            },
            references={
                int(n): _decode_rest_keys(keys) for n, keys in data["references"].items()
            },
            protocol_stats={
                int(n): {k: int(v) for k, v in stats.items()}
                for n, stats in data["protocol_stats"].items()
            },
            # Values are kept exactly as decoded (ints stay ints, floats
            # floats) so a store round-trip re-encodes byte-identically.
            fault_stats={
                int(n): dict(stats)
                for n, stats in data.get("fault_stats", {}).items()
            },
            events_executed=int(data["events_executed"]),
            wallclock_seconds=float(data["wallclock_seconds"]),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON string of everything the simulation *computed*.

        ``wallclock_seconds`` is excluded: it is the one field that varies
        between two executions of the same scenario, and this string is what
        the determinism guarantees (parallel == serial, rerun == first run)
        are stated over.
        """
        payload = self.to_json_dict()
        payload.pop("wallclock_seconds")
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
