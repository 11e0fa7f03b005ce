"""Radio energy model (Crossbow mote constants from the paper).

The paper configures SENSE with a transmit/receive/idle power of
0.0159 W / 0.021 W / 3e-6 W assuming a 3 V supply, and a free-space channel.
Energy is power multiplied by the time the radio spends in each state; the
time spent transmitting or receiving a packet is its size divided by the
radio bit-rate (we default to the 38.4 kbps of the MICA2 mote generation the
Crossbow numbers come from).

:class:`EnergyMeter` accumulates the three components per node and is the
source of every energy figure reported by the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..core.errors import ConfigurationError

__all__ = ["EnergyModel", "EnergyMeter", "CROSSBOW_MICA2"]


@dataclass(frozen=True)
class EnergyModel:
    """Radio power characteristics.

    Attributes
    ----------
    tx_power_w / rx_power_w / idle_power_w:
        Power drawn while transmitting, receiving and idling, in watts.
    bitrate_bps:
        Radio bit-rate used to convert packet sizes into airtime.
    voltage:
        Supply voltage (informational; the powers already include it).
    """

    tx_power_w: float = 0.0159
    rx_power_w: float = 0.021
    idle_power_w: float = 3e-6
    bitrate_bps: float = 38_400.0
    voltage: float = 3.0

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "rx_power_w", "idle_power_w", "bitrate_bps", "voltage"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")

    def airtime(self, size_bytes: int) -> float:
        """Seconds the radio is busy sending/receiving ``size_bytes``."""
        if size_bytes < 0:
            raise ConfigurationError(f"packet size must be non-negative, got {size_bytes}")
        return (8.0 * size_bytes) / self.bitrate_bps

    def tx_energy(self, size_bytes: int) -> float:
        """Joules spent transmitting a packet of ``size_bytes``."""
        return self.tx_energy_over(self.airtime(size_bytes))

    def rx_energy(self, size_bytes: int) -> float:
        """Joules spent receiving a packet of ``size_bytes``."""
        return self.rx_energy_over(self.airtime(size_bytes))

    def tx_energy_over(self, seconds: float) -> float:
        """Joules spent transmitting for ``seconds`` of airtime."""
        return self.tx_power_w * seconds

    def rx_energy_over(self, seconds: float) -> float:
        """Joules spent receiving for ``seconds`` of airtime."""
        return self.rx_power_w * seconds

    def idle_energy(self, seconds: float) -> float:
        """Joules spent idling for ``seconds``."""
        if seconds < 0:
            raise ConfigurationError(f"idle duration must be non-negative, got {seconds}")
        return self.idle_power_w * seconds


#: The exact configuration used in the paper's evaluation.
CROSSBOW_MICA2 = EnergyModel()


@dataclass
class EnergyMeter:
    """Per-node energy accumulator.

    The channel adds each transmission's and reception's joules, packet and
    byte counts to these fields in place (the energy from the airtime it
    also delays the deliveries by); :meth:`charge_idle` books the idle
    time at collection, and the experiment harness reads the totals after
    the simulation completes.
    """

    model: EnergyModel = field(default_factory=lambda: CROSSBOW_MICA2)
    tx_joules: float = 0.0
    rx_joules: float = 0.0
    idle_joules: float = 0.0
    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_idle(self, seconds: float) -> float:
        energy = self.model.idle_energy(seconds)
        self.idle_joules += energy
        return energy

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def total_joules(self) -> float:
        return self.tx_joules + self.rx_joules + self.idle_joules

    def as_dict(self) -> Dict[str, float]:
        return {
            "tx_joules": self.tx_joules,
            "rx_joules": self.rx_joules,
            "idle_joules": self.idle_joules,
            "total_joules": self.total_joules,
            "packets_sent": float(self.packets_sent),
            "packets_received": float(self.packets_received),
            "bytes_sent": float(self.bytes_sent),
            "bytes_received": float(self.bytes_received),
        }
