"""Intel backend: RAPL socket telemetry/capping, best-effort node caps."""

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


class IntelBackend(Backend):
    vendor = "intel"

    _KEY_STEMS = {
        DomainKind.CPU: "power_cpu_watts_socket",
        DomainKind.MEMORY: "power_mem_watts_socket",
        DomainKind.GPU: "power_gpu_watts_gpu",
    }

    def get_node_power_json(self, node: Node, timestamp: float) -> Dict[str, object]:
        return self.finalize_sample(
            node, self.telemetry_sample(node, timestamp)
        )

    def cap_best_effort_node_power_limit(
        self, node: Node, watts: float
    ) -> Dict[str, object]:
        if node.rapl is None:
            raise VariorumError(f"{node.hostname}: no RAPL driver")
        cpus = node.by_kind(DomainKind.CPU)
        gpus = node.by_kind(DomainKind.GPU)
        others = sum(
            d.spec.idle_w
            for d in node.domains.values()
            if d.spec.kind in (DomainKind.MEMORY, DomainKind.UNCORE)
        )
        budget = max(watts - others, 0.0)
        # Uniform split across sockets (Variorum's documented behaviour),
        # with GPUs sharing whatever their max caps allow of the rest.
        if gpus:
            gpu_budget = budget / 2.0
            cpu_budget = budget - gpu_budget
        else:
            gpu_budget = 0.0
            cpu_budget = budget
        per_socket = cpu_budget / max(len(cpus), 1)
        spec = cpus[0].spec
        lo = spec.min_cap_w or 0.0
        hi = spec.max_cap_w or spec.max_w
        per_socket = min(max(per_socket, lo), hi)
        for i in range(len(cpus)):
            self.cap_device_power_limit(node, "socket", i, per_socket)
        result: Dict[str, object] = {
            "method": "rapl_uniform_split",
            "socket_cap_watts": per_socket,
            "best_effort": True,
        }
        if gpus and node.nvml is not None:
            per_gpu = gpu_budget / len(gpus)
            gspec = gpus[0].spec
            per_gpu = min(
                max(per_gpu, gspec.min_cap_w or 0.0), gspec.max_cap_w or gspec.max_w
            )
            for i in range(len(gpus)):
                self.cap_device_power_limit(node, "gpu", i, per_gpu)
            result["gpu_cap_watts"] = per_gpu
        return result

    def cap_device_power_limit(
        self, node: Node, domain: str, index: int, watts: float
    ) -> float:
        if domain == "socket":
            return driver_call(node.rapl.set_socket_power_cap, index, watts)
        if node.nvml is None:
            raise VariorumError(f"{node.hostname}: no GPU capping driver")
        return driver_call(node.nvml.set_power_limit, index, watts)

    def clear_device_power_limits(self, node: Node, domain: str) -> None:
        if domain == "socket":
            clear_source(node.cpu_domains, node.rapl.CAP_SOURCE)
        elif node.nvml is not None:
            node.nvml.clear_all()
