"""AMD backend: E-SMI/HSMP CPU telemetry + ROCm OAM telemetry/capping.

Matches the Tioga description in Section II-A: power is measurable at
the CPU and OAM level only (an OAM reading covers two GCDs); memory and
uncore are not reported; capping exists in hardware but is disabled for
users on the early-access system, so cap calls raise.
"""

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


class AMDBackend(Backend):
    vendor = "amd"

    _KEY_STEMS = {
        DomainKind.CPU: "power_cpu_watts_socket",
        DomainKind.OAM: "power_gpu_watts_oam",
    }

    def get_node_power_json(self, node: Node, timestamp: float) -> Dict[str, object]:
        sample = self.telemetry_sample(node, timestamp)
        sample["gcds_per_oam"] = node.spec.gpus_per_telemetry_domain
        return self.finalize_sample(node, sample)

    def cap_best_effort_node_power_limit(
        self, node: Node, watts: float
    ) -> Dict[str, object]:
        # No hardware node dial on AMD: distribute uniformly across
        # sockets, remainder across OAMs — if the driver lets us.
        cpus = node.by_kind(DomainKind.CPU)
        oams = node.by_kind(DomainKind.OAM)
        if cpus:
            cpu_share = min(
                watts / max(len(cpus), 1), cpus[0].spec.max_cap_w or watts
            )
        else:
            # APU platforms (El Capitan-class MI300A) have no separate
            # host CPU socket; the whole budget goes to the packages.
            cpu_share = 0.0
        per_oam = (watts - cpu_share * len(cpus)) / max(len(oams), 1)
        for i in range(len(cpus)):
            self.cap_device_power_limit(node, "socket", i, cpu_share)
        for i in range(len(oams)):
            self.cap_device_power_limit(node, "gpu", i, per_oam)
        return {
            "method": "esmi_split",
            "socket_cap_watts": cpu_share,
            "oam_cap_watts": per_oam,
            "best_effort": True,
        }

    def cap_device_power_limit(
        self, node: Node, domain: str, index: int, watts: float
    ) -> float:
        if node.esmi is None:
            raise VariorumError(f"{node.hostname}: no E-SMI driver")
        esmi = node.esmi  # OAM packages are the cappable GPU unit
        write = esmi.set_oam_power_cap if domain == "gpu" else esmi.set_socket_power_cap
        return driver_call(write, index, watts)

    def clear_device_power_limits(self, node: Node, domain: str) -> None:
        if node.esmi is not None:
            devices = node.gpu_domains if domain == "gpu" else node.cpu_domains
            clear_source(devices, node.esmi.CAP_SOURCE)
