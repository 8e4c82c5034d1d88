"""El Capitan-class: HPE Cray EX255a nodes with four AMD MI300A APUs.

The exascale scale target for the columnar store work. Each
node carries four MI300A accelerated processing units — CPU cores, CDNA3
compute dies and HBM3 stacked in one socket — so unlike Tioga there is
no separate host CPU domain: the APU *is* the node's compute and its
power envelope (≈550 W sustained, 760 W peak per socket) dominates node
power. Telemetry and capping go through the same AMD E-SMI/HSMP path as
Tioga's Trento + MI250X pairing; node-level power is a conservative sum
of the four APU sockets (no direct node sensor), and node-level capping
is not exposed to users.

Numbers are representative of the class (public MI300A envelopes), not
calibrated against the real machine — the point of the platform is the
scale of the management plane (10k–100k nodes), which is what the
columnar store sweeps are benchmarked against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.hardware.domains import DomainKind, DomainSpec
from repro.hardware.node import Node, NodeSpec

#: Peak (boost) power of one MI300A socket, liquid-cooled configuration.
APU_MAX_W = 760.0
APUS_PER_NODE = 4


@lru_cache(maxsize=None)
def elcapitan_node_spec() -> NodeSpec:
    """Build (once — :class:`NodeSpec` is frozen) the EX255a node spec."""
    domains = tuple(
        DomainSpec(
            name=f"apu{i}",
            kind=DomainKind.OAM,  # one E-SMI-managed accelerator package
            idle_w=130.0,
            max_w=APU_MAX_W,
            cappable=True,
            min_cap_w=220.0,
            max_cap_w=APU_MAX_W,
        )
        for i in range(APUS_PER_NODE)
    ) + (
        DomainSpec(
            name="uncore0",
            kind=DomainKind.UNCORE,
            idle_w=100.0,
            max_w=100.0,
            cappable=False,
            measurable=False,  # NIC/board residual, no sensor
        ),
    )
    return NodeSpec(
        platform="elcapitan",
        vendor="amd",
        domains=domains,
        node_power_measurable=False,
        node_cappable=False,
        node_max_w=0.0,
        sensor_granularity_s=1e-3,
        gpus_per_telemetry_domain=1,  # the APU package reports as one
    )


def make_elcapitan_node(
    hostname: str,
    rng: Optional[np.random.Generator] = None,
) -> Node:
    """Construct one El Capitan-class node."""
    return Node(
        hostname=hostname,
        spec=elcapitan_node_spec(),
        rng=rng,
    )
