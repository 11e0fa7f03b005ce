"""Building a simulated deployment from a scenario configuration.

:func:`build_deployment` assembles the full stack for one run -- topology,
event engine, channel, nodes, routing agents and applications -- according to
the algorithm selected in the scenario:

* ``global`` / ``semi-global``: every node runs a
  :class:`~repro.wsn.detector_app.DistributedDetectorApp` wrapping the
  corresponding sans-IO detector; all communication is single-hop broadcast.
* ``centralized``: every node runs a
  :class:`~repro.wsn.centralized_app.CentralizedClientApp` (the sink runs the
  :class:`~repro.wsn.centralized_app.CentralizedSinkApp`) on top of AODV (or
  static shortest-path routing for the ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..core.config import Algorithm
from ..core.errors import ConfigurationError
from ..core.global_detector import GlobalOutlierDetector
from ..core.interfaces import OutlierDetector
from ..core.semiglobal_detector import SemiGlobalOutlierDetector
from ..datasets.streams import SensorDataset
from ..network.channel import WirelessChannel
from ..network.node import SimNode
from ..network.topology import Topology
from ..routing.aodv import AodvAgent
from ..routing.static import StaticRoutingAgent, install_shortest_path_routes
from ..simulator.engine import Simulator
from ..simulator.rng import RandomStreams
from .centralized_app import CentralizedClientApp, CentralizedSinkApp
from .detector_app import DistributedDetectorApp
from .faults import FaultPlan, FaultRuntime
from .scenario import ScenarioConfig

__all__ = ["Deployment", "build_deployment"]

AppType = Union[DistributedDetectorApp, CentralizedClientApp, CentralizedSinkApp]


@dataclass
class Deployment:
    """The assembled simulation stack for one run."""

    scenario: ScenarioConfig
    dataset: SensorDataset
    topology: Topology
    simulator: Simulator
    channel: WirelessChannel
    nodes: Dict[int, SimNode] = field(default_factory=dict)
    apps: Dict[int, AppType] = field(default_factory=dict)
    detectors: Dict[int, OutlierDetector] = field(default_factory=dict)
    routing: Dict[int, Union[AodvAgent, StaticRoutingAgent]] = field(default_factory=dict)
    fault_runtime: Optional[FaultRuntime] = None

    @property
    def sink_app(self) -> Optional[CentralizedSinkApp]:
        app = self.apps.get(self.scenario.sink_id)
        return app if isinstance(app, CentralizedSinkApp) else None


def build_deployment(scenario: ScenarioConfig, dataset: SensorDataset) -> Deployment:
    """Assemble simulator, network and applications for ``scenario``."""
    topology = Topology.from_positions(
        dataset.positions, transmission_range=scenario.transmission_range
    )
    topology.require_connected()

    streams = RandomStreams(scenario.seed)
    simulator = Simulator()
    channel = WirelessChannel(
        simulator,
        topology,
        loss_probability=scenario.loss_probability,
        streams=streams,
        burst=scenario.faults.burst_params(),
    )

    deployment = Deployment(
        scenario=scenario,
        dataset=dataset,
        topology=topology,
        simulator=simulator,
        channel=channel,
    )

    query = scenario.detection.make_query()
    for node_id in topology.node_ids:
        node = SimNode(node_id, channel)
        deployment.nodes[node_id] = node

        if scenario.algorithm == Algorithm.GLOBAL:
            detector: OutlierDetector = GlobalOutlierDetector(
                node_id,
                query,
                neighbors=topology.neighbors(node_id),
            )
            deployment.detectors[node_id] = detector
            deployment.apps[node_id] = DistributedDetectorApp(
                node,
                detector,
                window_length=scenario.detection.window_length,
                broadcast_jitter=scenario.broadcast_jitter,
                streams=streams,
            )
        elif scenario.algorithm == Algorithm.SEMI_GLOBAL:
            detector = SemiGlobalOutlierDetector(
                node_id,
                query,
                hop_diameter=scenario.detection.hop_diameter,
                neighbors=topology.neighbors(node_id),
                variant=scenario.detection.semiglobal_variant,
            )
            deployment.detectors[node_id] = detector
            deployment.apps[node_id] = DistributedDetectorApp(
                node,
                detector,
                window_length=scenario.detection.window_length,
                broadcast_jitter=scenario.broadcast_jitter,
                streams=streams,
            )
        elif scenario.algorithm == Algorithm.CENTRALIZED:
            if scenario.use_static_routing:
                routing: Union[AodvAgent, StaticRoutingAgent] = StaticRoutingAgent(node)
            else:
                routing = AodvAgent(node, streams=streams)
            deployment.routing[node_id] = routing
            if node_id == scenario.sink_id:
                deployment.apps[node_id] = CentralizedSinkApp(
                    node,
                    routing,
                    query,
                    window_length=scenario.detection.window_length,
                )
            else:
                deployment.apps[node_id] = CentralizedClientApp(
                    node,
                    routing,
                    sink_id=scenario.sink_id,
                    window_length=scenario.detection.window_length,
                )
        else:  # pragma: no cover - ScenarioConfig already validates this
            raise ConfigurationError(f"unknown algorithm {scenario.algorithm!r}")

    if scenario.algorithm == Algorithm.CENTRALIZED and scenario.use_static_routing:
        install_shortest_path_routes(
            {nid: agent for nid, agent in deployment.routing.items()
             if isinstance(agent, StaticRoutingAgent)},
            topology,
            sink=scenario.sink_id,
        )

    if scenario.faults.churn_enabled:
        deployment.fault_runtime = FaultRuntime(
            FaultPlan.from_scenario(scenario),
            deployment.nodes,
            deployment.apps,
            topology=topology,
        )

    return deployment
