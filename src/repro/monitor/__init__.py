"""``flux-power-monitor``: stateless job-level power telemetry.

Design (Section III-A): every node runs a :class:`NodeAgentModule` that
samples Variorum every 2 s into a fixed-size circular buffer (default
100,000 samples ≈ 43.4 MiB) — the agent does not know what jobs exist,
which keeps its overhead tiny. A :class:`RootAgentModule` at the TBON
root serves external clients: given a job's ranks and time window, it
collects the matching samples from the node agents over the overlay and
relays them. The :class:`PowerMonitorClient` is the external Python
client: it looks the job up (nodes, start/end) and produces a CSV with
a per-node complete/partial flag, exactly like the paper's tool.
"""

from repro.monitor.node_agent import NodeAgentModule
from repro.monitor.root_agent import RootAgentModule
from repro.monitor.client import PowerMonitorClient, JobPowerData
from repro.monitor.module import PowerMonitor, attach_monitor
from repro.monitor.overhead import sampling_overhead_fraction

__all__ = [
    "NodeAgentModule",
    "RootAgentModule",
    "PowerMonitorClient",
    "JobPowerData",
    "PowerMonitor",
    "attach_monitor",
    "sampling_overhead_fraction",
]
