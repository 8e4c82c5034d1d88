"""IBM backend: OCC telemetry, OPAL node capping, NVML GPU capping and
socket capping through the service processor."""

from __future__ import annotations

from typing import Dict

from repro.hardware.domains import DomainKind
from repro.hardware.node import Node
from repro.variorum.backends.base import (
    Backend,
    VariorumError,
    clear_source,
    driver_call,
)


class IBMBackend(Backend):
    """AC922 (Power9 + V100) platforms — the Lassen path."""

    vendor = "ibm"

    SOCKET_CAP_SOURCE = "socket-manager"

    _KEY_STEMS = {
        DomainKind.CPU: "power_cpu_watts_socket",
        DomainKind.MEMORY: "power_mem_watts_socket",
        DomainKind.GPU: "power_gpu_watts_gpu",
    }

    def get_node_power_json(self, node: Node, timestamp: float) -> Dict[str, object]:
        reading = node.sensors.read(timestamp)
        sample = self.telemetry_sample(node, timestamp, reading)
        # Per-socket GPU aggregates, as real Variorum reports on IBM
        # (two GPUs hang off each Power9 socket).
        plan = self.plan_for(node)
        dw = reading.domains_w
        gpus = [dw[name] for name in plan.gpu_names if name in dw]
        half = (len(gpus) + 1) // 2
        sample["power_gpu_watts_socket_0"] = round(sum(gpus[:half]), 3)
        sample["power_gpu_watts_socket_1"] = round(sum(gpus[half:]), 3)
        return self.finalize_sample(node, sample)

    def cap_best_effort_node_power_limit(
        self, node: Node, watts: float
    ) -> Dict[str, object]:
        if node.opal is None:
            raise VariorumError(f"{node.hostname}: IBM node without OPAL firmware")
        derived = driver_call(node.opal.set_node_power_cap, watts)
        return {
            "method": "opal_node_cap",
            "node_cap_watts": watts,
            "derived_gpu_cap_watts": derived,
            "best_effort": watts < node.opal.hard_min_w,
        }

    def cap_device_power_limit(
        self, node: Node, domain: str, index: int, watts: float
    ) -> float:
        if domain == "gpu":
            return driver_call(node.nvml.set_power_limit, index, watts)
        dom = node.cpu_domains[index]
        dom.set_cap(self.SOCKET_CAP_SOURCE, watts)
        return dom.get_cap(self.SOCKET_CAP_SOURCE)

    def clear_device_power_limits(self, node: Node, domain: str) -> None:
        if domain == "gpu":
            node.nvml.clear_all()
        else:
            clear_source(node.cpu_domains, self.SOCKET_CAP_SOURCE)
