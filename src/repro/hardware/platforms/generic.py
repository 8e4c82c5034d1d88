"""A generic Intel-style platform.

Not one of the paper's two testbeds; it exists to exercise Variorum's
*best-effort node power capping* path — on Intel (and AMD) there is no
hardware node-level cap dial, so Variorum distributes a node budget
uniformly across the CPU sockets (Section II-C). Used by tests and the
vendor-neutrality examples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.hardware.domains import DomainKind, DomainSpec
from repro.hardware.node import Node, NodeSpec


@lru_cache(maxsize=None)
def generic_node_spec(n_sockets: int = 2, n_gpus: int = 0) -> NodeSpec:
    """Build a generic dual-socket (optionally GPU-bearing) node spec."""
    domains = tuple(
        DomainSpec(
            name=f"cpu{i}",
            kind=DomainKind.CPU,
            idle_w=35.0,
            max_w=205.0,
            cappable=True,
            min_cap_w=50.0,
            max_cap_w=205.0,
        )
        for i in range(n_sockets)
    ) + (
        DomainSpec(
            name="memory0",
            kind=DomainKind.MEMORY,
            idle_w=20.0,
            max_w=80.0,
            cappable=False,
        ),
    ) + tuple(
        DomainSpec(
            name=f"gpu{i}",
            kind=DomainKind.GPU,
            idle_w=45.0,
            max_w=250.0,
            cappable=True,
            min_cap_w=100.0,
            max_cap_w=250.0,
        )
        for i in range(n_gpus)
    ) + (
        DomainSpec(
            name="uncore0",
            kind=DomainKind.UNCORE,
            idle_w=50.0,
            max_w=50.0,
            cappable=False,
            measurable=False,
        ),
    )
    return NodeSpec(
        platform="generic",
        vendor="intel",
        domains=domains,
        node_power_measurable=False,
        node_cappable=False,
        node_max_w=0.0,
        sensor_granularity_s=1e-3,
        gpus_per_telemetry_domain=1,
    )


def make_generic_node(
    hostname: str,
    rng: Optional[np.random.Generator] = None,
    n_sockets: int = 2,
    n_gpus: int = 0,
    nvml_failure_rate: float = 0.0,
) -> Node:
    """Construct one generic node."""
    return Node(
        hostname=hostname,
        spec=generic_node_spec(n_sockets=n_sockets, n_gpus=n_gpus),
        rng=rng,
        nvml_failure_rate=nvml_failure_rate,
    )
