"""Vendor-neutral power management API (Variorum substitute).

The Flux modules in this reproduction never touch vendor firmware
directly; they call the same three Variorum entry points the paper's
implementation uses (Section II-C), plus two per-device dials:

* :func:`get_node_power_json` — vendor-neutral telemetry; returns a
  JSON-compatible dict whose keys depend on what the platform can
  measure (IBM: node/socket/memory/per-GPU; AMD: socket + per-OAM
  only; Intel: socket + memory).
* :func:`cap_best_effort_node_power_limit` — node-level capping. IBM
  AC922 supports a direct hardware node cap (OPAL); Intel and AMD do
  not, so the budget is distributed uniformly across CPU sockets (and
  the remainder to GPUs when present) on a best-effort basis.
* :func:`cap_each_gpu_power_limit` — uniform per-GPU capping (NVML on
  NVIDIA platforms, ROCm-SMI on AMD — which the Tioga early-access
  system refuses for users).
* :func:`cap_device_power_limit` / :func:`clear_device_power_limits` —
  one GPU or CPU socket; every node-manager cap goes through these.
"""

from repro.variorum.api import (
    VariorumError,
    cap_best_effort_node_power_limit,
    cap_device_power_limit,
    cap_each_gpu_power_limit,
    clear_device_power_limits,
    get_node_power_json,
    sample_bytes_estimate,
    sample_wire_bytes,
)

__all__ = [
    "VariorumError",
    "get_node_power_json",
    "cap_best_effort_node_power_limit",
    "cap_each_gpu_power_limit",
    "cap_device_power_limit",
    "clear_device_power_limits",
    "sample_bytes_estimate",
    "sample_wire_bytes",
]
