"""Tioga: HPE Cray EX235a nodes (Section II-A).

Single-socket AMD Trento (64 cores) plus four AMD Instinct MI250X OAM
packages; each OAM holds two Graphics Compute Dies (GCDs), i.e. 8
logical GPUs per node. Telemetry exists only at the CPU level (E-SMI /
HSMP MSRs) and the OAM level (two GCDs combined, via ROCm) — memory,
uncore and true node power are *not* measurable, so reported node power
is a conservative CPU + 4×OAM sum. Power capping exists in hardware at
the CPU and OAM level but is not enabled for users on this early-access
system. Max OAM power: 560 W.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.hardware.domains import DomainKind, DomainSpec
from repro.hardware.node import Node, NodeSpec

OAM_MAX_W = 560.0
GCDS_PER_OAM = 2


@lru_cache(maxsize=None)
def tioga_node_spec() -> NodeSpec:
    """Build the EX235a node spec."""
    domains = (
        DomainSpec(
            name="cpu0",
            kind=DomainKind.CPU,
            idle_w=60.0,
            max_w=280.0,
            cappable=True,  # in hardware; driver refuses user requests
            min_cap_w=100.0,
            max_cap_w=280.0,
        ),
    ) + tuple(
        DomainSpec(
            name=f"oam{i}",
            kind=DomainKind.OAM,
            idle_w=90.0,  # two GCDs idling at ~45 W each
            max_w=OAM_MAX_W,
            cappable=True,
            min_cap_w=100.0,
            max_cap_w=OAM_MAX_W,
        )
        for i in range(4)
    ) + (
        DomainSpec(
            name="memory0",
            kind=DomainKind.MEMORY,
            idle_w=25.0,
            max_w=100.0,
            cappable=False,
            measurable=False,  # no memory power sensor on Tioga
        ),
        DomainSpec(
            name="uncore0",
            kind=DomainKind.UNCORE,
            idle_w=60.0,
            max_w=60.0,
            cappable=False,
            measurable=False,
        ),
    )
    return NodeSpec(
        platform="tioga",
        vendor="amd",
        domains=domains,
        node_power_measurable=False,
        node_cappable=False,
        node_max_w=0.0,
        sensor_granularity_s=1e-3,
        gpus_per_telemetry_domain=GCDS_PER_OAM,
    )


def make_tioga_node(
    hostname: str,
    rng: Optional[np.random.Generator] = None,
) -> Node:
    """Construct one Tioga node."""
    return Node(
        hostname=hostname,
        spec=tioga_node_spec(),
        rng=rng,
    )
