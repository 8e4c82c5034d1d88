"""Power sensors: what each platform can actually measure.

Lassen's On-Chip Controller (OCC) reports node, socket, memory and
per-GPU power at 500 µs granularity; the node-level reading is taken
directly in hardware and *includes uncore*. Tioga exposes only CPU
socket power (via E-SMI MSRs) and per-OAM power (two GPUs combined,
via ROCm); memory, uncore and true node power are not measurable, so a
"node" value on Tioga is a conservative sum of CPU + OAM readings —
exactly how the paper reports it (Section IV-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node


@dataclass
class SensorReading:
    """One instantaneous sample of a node's measurable power domains.

    ``node_w`` is the hardware node-level reading where one exists
    (Lassen); otherwise it is the conservative sum of measurable
    domains and ``node_measured`` is False.
    """

    timestamp: float
    hostname: str
    node_w: float
    node_measured: bool
    domains_w: Dict[str, float] = field(default_factory=dict)


class SensorSuite:
    """Reads a node's measurable domains, with sensor quantisation.

    Parameters
    ----------
    node:
        The node to sample.
    granularity_s:
        Native sensor update period (500 µs on Lassen's OCC, ~1 ms for
        MSR-based readings on Tioga). Readings are timestamps rounded
        down to this grid, modelling that a sample sees the last sensor
        update rather than the true instantaneous value.
    """

    def __init__(self, node: "Node", granularity_s: float = 500e-6) -> None:
        self._node = node
        self.granularity_s = float(granularity_s)

    def read(self, timestamp: float) -> SensorReading:
        """Sample every measurable domain on the node.

        Hot path: ``math.floor`` on floats matches ``np.floor`` bit for
        bit (both are correctly-rounded IEEE-754 operations).
        """
        node = self._node
        quantised = (
            math.floor(timestamp / self.granularity_s) * self.granularity_s
            if self.granularity_s > 0
            else timestamp
        )
        node_measured = node.spec.node_power_measurable
        domains: Dict[str, float] = {}
        measured_sum = 0.0
        for dom in node.measurable_domains:
            watts = max(0.0, dom.actual_w)
            domains[dom.spec.name] = watts
            measured_sum += watts
        if node_measured:
            # The hardware node sensor sees everything, including uncore
            # and any unmeasurable domains.
            node_w = max(0.0, node.total_power_w())
        else:
            node_w = measured_sum
        return SensorReading(
            timestamp=float(quantised),
            hostname=node.hostname,
            node_w=node_w,
            node_measured=node_measured,
            domains_w=domains,
        )
