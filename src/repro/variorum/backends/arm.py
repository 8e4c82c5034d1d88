"""ARM backend: telemetry only.

Variorum supports ARM platforms for telemetry; power capping dials are
not generally exposed, so cap calls raise. Included for API-coverage
parity with the paper's claim of Intel/AMD/IBM/ARM/NVIDIA support.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.domains import DomainKind
from repro.hardware.node import Node
from repro.variorum.backends.base import Backend, VariorumError


class ARMBackend(Backend):
    vendor = "arm"

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
        raise VariorumError("power capping not supported on this ARM platform")
