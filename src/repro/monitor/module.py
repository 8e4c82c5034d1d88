"""Convenience wiring for the power monitor.

``attach_monitor(instance)`` is the analogue of

.. code-block:: console

   $ flux exec -r all flux module load flux-power-monitor

on a production system: node agents everywhere, a root agent at rank 0,
and a client handle for job telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.flux.instance import FluxInstance
from repro.flux.module import RetryConfig
from repro.monitor.client import PowerMonitorClient
from repro.monitor.node_agent import (
    DEFAULT_SAMPLE_INTERVAL_S,
    NodeAgentModule,
)
from repro.monitor.buffer import DEFAULT_CAPACITY
from repro.monitor.root_agent import RootAgentModule, SubtreeAggregatorModule


@dataclass
class PowerMonitor:
    """Handle over a loaded monitor deployment."""

    instance: FluxInstance
    node_agents: List[NodeAgentModule]
    root_agent: RootAgentModule
    client: PowerMonitorClient
    #: Deployment configuration, kept so a broker restart can reload a
    #: fresh node agent identical to the original ones.
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S
    buffer_capacity: int = DEFAULT_CAPACITY
    strategy: str = "fanout"
    retry: Optional[RetryConfig] = field(default=None)

    def detach(self) -> None:
        """Unload the monitor everywhere (the overhead experiment's off case)."""
        self.instance.unload_module_everywhere(NodeAgentModule.name)
        self.instance.unload_module_everywhere(RootAgentModule.name)
        self.instance.unload_module_everywhere(SubtreeAggregatorModule.name)

    def agent_for_rank(self, rank: int) -> NodeAgentModule:
        return self.node_agents[rank]

    def reload_agent(self, rank: int) -> NodeAgentModule:
        """Load a fresh node agent on ``rank`` (post-restart recovery).

        The new agent starts with an empty ring buffer, so windows that
        straddle the outage are reported partial — history died with
        the broker, exactly as on a real node.
        """
        broker = self.instance.brokers[rank]
        if NodeAgentModule.name in broker.modules:
            broker.unload_module(NodeAgentModule.name)
        agent = NodeAgentModule(
            broker,
            sample_interval_s=self.sample_interval_s,
            buffer_capacity=self.buffer_capacity,
        )
        broker.load_module(agent)
        self.node_agents[rank] = agent
        if self.strategy == "tree" and SubtreeAggregatorModule.name not in broker.modules:
            broker.load_module(SubtreeAggregatorModule(broker, retry=self.retry))
        return agent


def attach_monitor(
    instance: FluxInstance,
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
    buffer_capacity: int = DEFAULT_CAPACITY,
    strategy: str = "fanout",
    retry: Optional[RetryConfig] = None,
    columnar: Optional[bool] = None,
) -> PowerMonitor:
    """Load the flux-power-monitor modules across an instance.

    ``retry`` sets the per-node timeout/retry policy the aggregators
    use when a node agent stops answering (see docs/failures.md);
    None means the :class:`~repro.flux.module.RetryConfig` defaults.
    Every node agent samples into a ring in the simulator's columnar
    store (see docs/performance.md). ``columnar`` is accepted for
    callers written against the earlier two-mode monitor and ignored.
    """
    node_agents = instance.load_module_on_all(
        lambda broker: NodeAgentModule(
            broker,
            sample_interval_s=sample_interval_s,
            buffer_capacity=buffer_capacity,
        )
    )
    if strategy == "tree":
        instance.load_module_on_all(
            lambda broker: SubtreeAggregatorModule(broker, retry=retry)
        )
    root_agent = instance.load_module_on_root(
        lambda broker: RootAgentModule(broker, strategy=strategy, retry=retry)
    )
    client = PowerMonitorClient(instance)
    return PowerMonitor(
        instance=instance,
        node_agents=node_agents,  # type: ignore[arg-type]
        root_agent=root_agent,  # type: ignore[arg-type]
        client=client,
        sample_interval_s=sample_interval_s,
        buffer_capacity=buffer_capacity,
        strategy=strategy,
        retry=retry,
    )
