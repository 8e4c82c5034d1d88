"""The Variorum entry points, dispatched by platform vendor."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.hardware.node import Node
from repro.variorum.backends import get_backend
from repro.variorum.backends.base import VariorumError


def get_node_power_json(node: Node, timestamp: float) -> Dict[str, object]:
    """Vendor-neutral node power telemetry.

    Returns a JSON-compatible dict. Keys always present:

    * ``hostname``, ``timestamp``
    * ``power_node_watts`` — direct hardware reading where the platform
      has a node sensor (IBM), otherwise a conservative sum of the
      measurable domains, flagged by ``power_node_is_estimate: true``.

    Additional per-domain keys depend on the backend (see
    :mod:`repro.variorum.backends`).
    """
    backend = get_backend(node.spec.vendor)
    return backend.sample_cached(node, timestamp)


def cap_best_effort_node_power_limit(node: Node, watts: float) -> Dict[str, object]:
    """Cap total node power, as directly as the platform allows.

    On IBM the cap is installed in OPAL firmware (which derives per-GPU
    caps with its conservative algorithm). On Intel/AMD there is no
    node dial, so the budget is split uniformly across CPU sockets and
    remaining headroom across GPUs — *best effort*, exactly Variorum's
    documented semantics.

    Returns a dict describing what was actually installed.
    """
    if watts <= 0:
        raise VariorumError(f"node power limit must be positive, got {watts}")
    backend = get_backend(node.spec.vendor)
    return backend.cap_best_effort_node_power_limit(node, float(watts))


def cap_each_gpu_power_limit(node: Node, watts: float) -> List[float]:
    """Set the same power cap on every GPU of the node.

    Returns the list of caps actually in force (NVML may misbehave; see
    :class:`repro.hardware.firmware.NVMLDriver`). Raises
    :class:`VariorumError` when the platform has no cappable GPUs or
    refuses user capping (Tioga).
    """
    backend = get_backend(node.spec.vendor)
    return backend.cap_each_gpu_power_limit(node, float(watts))


def cap_device_power_limit(
    node: Node, domain: str, index: int, watts: float
) -> float:
    """Cap GPU/OAM (``domain="gpu"``) or CPU socket (``"socket"``)
    ``index``; returns the cap in force or raises :class:`VariorumError`."""
    backend = get_backend(node.spec.vendor)
    return backend.cap_device_power_limit(node, domain, index, float(watts))


def clear_device_power_limits(node: Node, domain: str) -> None:
    """Remove every cap :func:`cap_device_power_limit` set on ``domain``."""
    get_backend(node.spec.vendor).clear_device_power_limits(node, domain)


def sample_wire_bytes(node: Node) -> "int | None":
    """Per-node constant wire-size estimate of one telemetry sample.

    Every sample for a node has identical keys and leaf types, so its
    :func:`repro.flux.message.estimate_payload_bytes` value is a
    constant, captured from the first finished sample. ``None`` until
    the node has been sampled at least once. The monitor uses this to
    price query responses arithmetically instead of re-walking sample
    dicts (``tests/test_sampling_equivalence.py`` pins the identity).
    """
    backend = get_backend(node.spec.vendor)
    return backend.plan_for(node).sample_size


def sample_bytes_estimate(sample: Dict[str, object]) -> int:
    """Wire/storage size of one telemetry sample (JSON-serialised bytes).

    The paper sizes the monitor's circular buffer at 43.4 MB for
    100,000 Variorum JSON objects (~455 B each); this helper is what
    the buffer accounting uses.
    """
    return len(json.dumps(sample, separators=(",", ":")).encode("utf-8"))
