"""Lassen: IBM Power AC922 nodes (Section II-A).

Each dual-socket node has 44 Power9 cores, 4 NVIDIA Volta V100 GPUs,
256 GB CPU memory and 64 GB HBM2. Node power telemetry is direct in
hardware (OCC, 500 µs granularity) and includes uncore. OPAL provides
node-level capping: max 3050 W, minimum soft cap 500 W, minimum hard
cap with GPU activity 1000 W. GPUs are individually cappable through
NVML in [100, 300] W.

Component idle floors are chosen so that the idle node draws ~400 W,
the value the paper assumes from its measurements (Section IV-C).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.hardware.domains import DomainKind, DomainSpec
from repro.hardware.node import Node, NodeSpec

GPU_MIN_CAP_W = 100.0
GPU_MAX_CAP_W = 300.0
NODE_MAX_W = 3050.0
NODE_SOFT_MIN_W = 500.0
NODE_HARD_MIN_W = 1000.0


@lru_cache(maxsize=None)
def lassen_node_spec() -> NodeSpec:
    """Build the AC922 node spec."""
    domains = (
        DomainSpec(
            name="cpu0",
            kind=DomainKind.CPU,
            idle_w=40.0,
            max_w=250.0,
            cappable=True,
            min_cap_w=50.0,
            max_cap_w=250.0,
        ),
        DomainSpec(
            name="cpu1",
            kind=DomainKind.CPU,
            idle_w=40.0,
            max_w=250.0,
            cappable=True,
            min_cap_w=50.0,
            max_cap_w=250.0,
        ),
        DomainSpec(
            name="memory0",
            kind=DomainKind.MEMORY,
            idle_w=30.0,
            max_w=150.0,
            cappable=False,
        ),
    ) + tuple(
        DomainSpec(
            name=f"gpu{i}",
            kind=DomainKind.GPU,
            idle_w=50.0,
            max_w=300.0,
            cappable=True,
            min_cap_w=GPU_MIN_CAP_W,
            max_cap_w=GPU_MAX_CAP_W,
        )
        for i in range(4)
    ) + (
        # Uncore (NVLink, fans, VRs, PCIe) — visible only through the
        # hardware node sensor, never as a per-domain reading.
        DomainSpec(
            name="uncore0",
            kind=DomainKind.UNCORE,
            idle_w=90.0,
            max_w=90.0,
            cappable=False,
            measurable=False,
        ),
    )
    return NodeSpec(
        platform="lassen",
        vendor="ibm",
        domains=domains,
        node_power_measurable=True,
        node_cappable=True,
        node_max_w=NODE_MAX_W,
        node_cap_min_soft_w=NODE_SOFT_MIN_W,
        node_cap_min_hard_w=NODE_HARD_MIN_W,
        sensor_granularity_s=500e-6,
        gpus_per_telemetry_domain=1,
    )


def make_lassen_node(
    hostname: str,
    rng: Optional[np.random.Generator] = None,
    nvml_failure_rate: float = 0.0,
) -> Node:
    """Construct one Lassen node."""
    return Node(
        hostname=hostname,
        spec=lassen_node_spec(),
        rng=rng,
        nvml_failure_rate=nvml_failure_rate,
    )
