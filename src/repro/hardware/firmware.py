"""Vendor firmware / driver behaviours.

Four vendor paths are modelled, matching Section II of the paper:

* :class:`OPALFirmware` — IBM's OpenPower Abstraction Layer on the
  AC922. Supports *direct node-level power capping* (the only platform
  in the paper that does). Setting a node cap makes the firmware derive
  a maximum power cap for each GPU; the paper measured this derivation
  to be *extremely conservative* (Table III: node cap 1200 W → 100 W
  per GPU, 1800 → 216, 1950 → 253). We reproduce that exact mapping via
  :func:`ibm_derived_gpu_cap`.
* :class:`NVMLDriver` — NVIDIA Management Library GPU capping
  (100–300 W on V100), with the intermittent failure mode reported in
  Section V: at low node caps, a cap request occasionally either sticks
  at the previously-set value or resets to the maximum.
* :class:`ESMIDriver` — AMD E-SMI/HSMP + ROCm path on Tioga. Capping is
  supported by the hardware but *not enabled for users* on the early
  access system; attempts raise :class:`CappingError`.
* :class:`RAPLDriver` — generic Intel-style socket capping used by the
  ``generic`` platform (exercises Variorum's best-effort node capping,
  which splits a node budget uniformly across sockets).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.hardware.domains import DomainKind, PowerDomain


class CappingError(RuntimeError):
    """A cap request was rejected by firmware or is not permitted."""


# ---------------------------------------------------------------------------
# IBM OPAL (Lassen)
# ---------------------------------------------------------------------------

#: CPU + memory + uncore power the IBM algorithm reserves before giving the
#: remainder to GPUs (PSR=100). Fitted to Table III:
#:   (1950 - 937.6)/4 = 253.1, (1800 - 937.6)/4 = 215.6,
#:   (1200 - 937.6)/4 = 65.6 -> clamped to the 100 W GPU floor.
IBM_NODE_RESERVE_W = 937.6


def ibm_derived_gpu_cap(
    node_cap_w: float,
    n_gpus: int = 4,
    psr: float = 100.0,
    gpu_min_w: float = 100.0,
    gpu_max_w: float = 300.0,
) -> float:
    """IBM's per-GPU cap derivation for a given node-level power cap.

    The Power Shifting Ratio (PSR, 0–100 %) scales how much of the
    above-reserve budget is handed to the GPUs; the paper always runs
    with PSR=100 (maximum share to GPUs).
    """
    if n_gpus <= 0:
        raise ValueError("n_gpus must be positive")
    budget = (node_cap_w - IBM_NODE_RESERVE_W) * (psr / 100.0)
    per_gpu = budget / n_gpus
    return float(min(max(per_gpu, gpu_min_w), gpu_max_w))


class OPALFirmware:
    """IBM node-level power capping on the AC922.

    Limits (Section II-A): node maximum 3050 W; minimum *soft* cap
    500 W (not hardware-guaranteed, only meaningful without GPU
    activity); minimum *hard* cap with GPU activity 1000 W.
    """

    CAP_SOURCE = "opal"

    def __init__(
        self,
        gpu_domains: List[PowerDomain],
        cpu_domains: List[PowerDomain],
        node_max_w: float = 3050.0,
        soft_min_w: float = 500.0,
        hard_min_w: float = 1000.0,
        psr: float = 100.0,
    ) -> None:
        self._gpus = gpu_domains
        self._cpus = cpu_domains
        self.node_max_w = node_max_w
        self.soft_min_w = soft_min_w
        self.hard_min_w = hard_min_w
        self.psr = psr
        self._node_cap_w: Optional[float] = None
        #: Owning node (set by Node construction); the node-level cap
        #: changes observable power, so it bumps ``power_rev`` too.
        self._owner = None

    @property
    def node_cap_w(self) -> Optional[float]:
        return self._node_cap_w

    @property
    def derived_gpu_cap_w(self) -> Optional[float]:
        """The per-GPU maximum the firmware derived, or None if uncapped."""
        if self._node_cap_w is None or not self._gpus:
            return None
        spec = self._gpus[0].spec
        return ibm_derived_gpu_cap(
            self._node_cap_w,
            n_gpus=len(self._gpus),
            psr=self.psr,
            gpu_min_w=spec.min_cap_w or 100.0,
            gpu_max_w=spec.max_cap_w or 300.0,
        )

    def set_node_power_cap(self, watts: float) -> float:
        """Install a node-level cap; returns the derived per-GPU cap.

        Raises :class:`CappingError` outside the legal [soft_min, max]
        range. Below ``hard_min_w`` the cap is accepted but, as on the
        real machine, is only *soft* (not guaranteed under GPU load) —
        the firmware still derives GPU caps from it.
        """
        if watts < self.soft_min_w or watts > self.node_max_w:
            raise CappingError(
                f"OPAL node cap {watts} W outside "
                f"[{self.soft_min_w}, {self.node_max_w}] W"
            )
        self._node_cap_w = float(watts)
        if self._owner is not None:
            self._owner.bump_power_rev()
        derived = self.derived_gpu_cap_w
        for gpu in self._gpus:
            gpu.set_cap(self.CAP_SOURCE, derived)
        return derived if derived is not None else float("nan")

    def cpu_throttle_needed(self, node_power_w: float) -> float:
        """Residual-enforcement factor for CPU domains.

        After GPU caps are applied, if the node still exceeds its cap
        OPAL throttles the sockets. Returns a multiplier in (0, 1] to
        apply to CPU dynamic power; 1.0 means no further throttling.
        """
        if self._node_cap_w is None or node_power_w <= self._node_cap_w:
            return 1.0
        excess = node_power_w - self._node_cap_w
        cpu_dyn = sum(max(d.actual_w - d.spec.idle_w, 0.0) for d in self._cpus)
        if cpu_dyn <= 0:
            return 1.0
        return max(0.0, 1.0 - excess / cpu_dyn)


# ---------------------------------------------------------------------------
# NVIDIA NVML (Lassen GPUs)
# ---------------------------------------------------------------------------


class NVMLDriver:
    """Per-GPU power capping through NVML.

    ``failure_rate`` > 0 enables the intermittent misbehaviour the
    paper observed at low node caps: with that probability a request
    silently keeps the previous cap or resets to the GPU maximum
    (Section V). Failures draw from a seeded stream so experiments are
    reproducible.
    """

    CAP_SOURCE = "nvml"

    def __init__(
        self,
        gpu_domains: List[PowerDomain],
        rng: Optional[np.random.Generator] = None,
        failure_rate: float = 0.0,
    ) -> None:
        for d in gpu_domains:
            if d.spec.kind not in (DomainKind.GPU, DomainKind.OAM):
                raise ValueError(f"{d.spec.name} is not a GPU domain")
        self._gpus = gpu_domains
        self._rng = rng
        self.failure_rate = float(failure_rate)
        self.failures = 0
        self.requests = 0

    def set_power_limit(self, index: int, watts: float) -> float:
        """Request a cap on one GPU; returns the cap actually in force."""
        gpu = self._gpus[index]
        spec = gpu.spec
        lo = spec.min_cap_w if spec.min_cap_w is not None else 0.0
        hi = spec.max_cap_w if spec.max_cap_w is not None else spec.max_w
        if watts < lo or watts > hi:
            raise CappingError(
                f"NVML cap {watts} W on {spec.name} outside [{lo}, {hi}] W"
            )
        self.requests += 1
        if (
            self.failure_rate > 0.0
            and self._rng is not None
            and self._rng.random() < self.failure_rate
        ):
            self.failures += 1
            prev = gpu.get_cap(self.CAP_SOURCE)
            if prev is None or self._rng.random() < 0.5:
                # Reset to maximum (cap effectively dropped).
                gpu.set_cap(self.CAP_SOURCE, hi)
                return hi
            # Stick at the previously-set cap.
            return prev
        gpu.set_cap(self.CAP_SOURCE, float(watts))
        return float(watts)

    def clear_all(self) -> None:
        for gpu in self._gpus:
            gpu.set_cap(self.CAP_SOURCE, None)


# ---------------------------------------------------------------------------
# AMD E-SMI / ROCm (Tioga)
# ---------------------------------------------------------------------------


class ESMIDriver:
    """AMD CPU (E-SMI/HSMP) and GPU (ROCm SMI) capping path.

    On the Tioga early-access system capping exists in hardware but has
    not been enabled for users, so every request raises
    :class:`CappingError` unless ``user_capping_enabled``.
    """

    CAP_SOURCE = "esmi"

    def __init__(
        self,
        cpu_domains: List[PowerDomain],
        oam_domains: List[PowerDomain],
        user_capping_enabled: bool = False,
    ) -> None:
        self._cpus = cpu_domains
        self._oams = oam_domains
        self.user_capping_enabled = user_capping_enabled

    def _check(self) -> None:
        if not self.user_capping_enabled:
            raise CappingError(
                "power capping not enabled for users on this early access system"
            )

    def set_socket_power_cap(self, index: int, watts: float) -> float:
        self._check()
        dom = self._cpus[index]
        dom.set_cap(self.CAP_SOURCE, watts)
        return dom.get_cap(self.CAP_SOURCE)  # type: ignore[return-value]

    def set_oam_power_cap(self, index: int, watts: float) -> float:
        self._check()
        dom = self._oams[index]
        dom.set_cap(self.CAP_SOURCE, watts)
        return dom.get_cap(self.CAP_SOURCE)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Intel RAPL (generic platform)
# ---------------------------------------------------------------------------


class RAPLDriver:
    """Intel-style per-socket Running Average Power Limit capping."""

    CAP_SOURCE = "rapl"

    def __init__(self, cpu_domains: List[PowerDomain]) -> None:
        self._cpus = cpu_domains

    def set_socket_power_cap(self, index: int, watts: float) -> float:
        dom = self._cpus[index]
        spec = dom.spec
        lo = spec.min_cap_w if spec.min_cap_w is not None else 0.0
        hi = spec.max_cap_w if spec.max_cap_w is not None else spec.max_w
        if watts < lo or watts > hi:
            raise CappingError(
                f"RAPL cap {watts} W on {spec.name} outside [{lo}, {hi}] W"
            )
        dom.set_cap(self.CAP_SOURCE, watts)
        return float(watts)

    def caps(self) -> Dict[str, Optional[float]]:
        return {d.spec.name: d.get_cap(self.CAP_SOURCE) for d in self._cpus}
