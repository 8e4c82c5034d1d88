"""The node model: domains + firmware + sensors for one server.

A :class:`Node` owns its power domains and whatever vendor firmware the
platform provides (OPAL/NVML on Lassen, E-SMI/ROCm on Tioga, RAPL on
the generic Intel platform). Workloads interact with a node only by
setting per-domain power *demand*; power managers interact only through
the firmware drivers (usually via the Variorum layer); telemetry reads
only through the :class:`~repro.hardware.sensors.SensorSuite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.hardware.domains import DomainKind, DomainSpec, PowerDomain
from repro.hardware.firmware import (
    ESMIDriver,
    NVMLDriver,
    OPALFirmware,
    RAPLDriver,
)
from repro.hardware.sensors import SensorSuite


@dataclass(frozen=True)
class NodeSpec:
    """Static platform description of a node.

    Attributes
    ----------
    platform:
        ``"lassen"``, ``"tioga"`` or ``"generic"``.
    vendor:
        CPU vendor string used by the Variorum backend dispatch.
    domains:
        Per-component specs (sockets, memory, GPUs/OAMs, uncore).
    node_power_measurable:
        True when hardware reports a direct node-level power sensor
        (Lassen). When False, "node power" is a conservative sum of
        measurable domains (Tioga).
    node_cappable:
        True when firmware supports direct node-level capping (Lassen).
    node_max_w / node_cap_min_soft_w / node_cap_min_hard_w:
        Node capping range, where applicable.
    sensor_granularity_s:
        Native sensor refresh period.
    gpus_per_telemetry_domain:
        1 when each GPU is individually measurable (Lassen); 2 on Tioga,
        where telemetry is per-OAM (two GCDs combined).
    """

    platform: str
    vendor: str
    domains: tuple
    node_power_measurable: bool = True
    node_cappable: bool = False
    node_max_w: float = 0.0
    node_cap_min_soft_w: float = 0.0
    node_cap_min_hard_w: float = 0.0
    sensor_granularity_s: float = 500e-6
    gpus_per_telemetry_domain: int = 1

    def domain_specs(self, kind: DomainKind) -> List[DomainSpec]:
        return [d for d in self.domains if d.kind is kind]


class Node:
    """One simulated server node.

    Parameters
    ----------
    hostname:
        Unique name, e.g. ``"lassen12"``.
    spec:
        The platform :class:`NodeSpec`.
    rng:
        Optional seeded generator for sensor noise and NVML failure
        draws on this node.
    nvml_failure_rate:
        Probability that an NVML cap request misbehaves (Section V).
    """

    def __init__(
        self,
        hostname: str,
        spec: NodeSpec,
        rng: Optional[np.random.Generator] = None,
        nvml_failure_rate: float = 0.0,
        sensor_noise_sigma_w: float = 0.0,
    ) -> None:
        self.hostname = hostname
        self.spec = spec
        self.domains: Dict[str, PowerDomain] = {
            ds.name: PowerDomain(ds) for ds in spec.domains
        }
        self._by_kind: Dict[DomainKind, List[PowerDomain]] = {}
        for dom in self.domains.values():
            self._by_kind.setdefault(dom.spec.kind, []).append(dom)
        #: Measurable domains in declaration order — the sampling hot
        #: path iterates this instead of re-filtering ``domains`` on
        #: every read. Domains are fixed after construction.
        self.measurable_domains: List[PowerDomain] = [
            d for d in self.domains.values() if d.spec.measurable
        ]
        #: All domains as a list, for the power-summing hot loops.
        self._domain_list: List[PowerDomain] = list(self.domains.values())
        #: Power-state revision: bumped by every demand/cap mutation on
        #: this node (domains and OPAL report in). Sampling caches key
        #: on it — equal revisions guarantee identical observable power.
        self.power_rev = 0
        #: ``total_power_w`` memo: the revision it was computed at and
        #: its value. Equal revisions guarantee equal power, so a hit
        #: returns exactly what a recomputation would.
        self._power_memo_rev = -1
        self._power_memo_w = 0.0
        #: Revision sink, set by BatchSampler.adopt(); while set, every
        #: revision bump also bumps the sampler's global revision.
        self._col_sink = None
        for dom in self._domain_list:
            dom._owner = self
        self._idle_power_w = sum(d.spec.idle_w for d in self._domain_list)

        cpus = self._by_kind.get(DomainKind.CPU, [])
        gpus = self._by_kind.get(DomainKind.GPU, [])
        oams = self._by_kind.get(DomainKind.OAM, [])

        self.opal: Optional[OPALFirmware] = None
        self.nvml: Optional[NVMLDriver] = None
        self.esmi: Optional[ESMIDriver] = None
        self.rapl: Optional[RAPLDriver] = None

        if spec.platform == "lassen":
            self.opal = OPALFirmware(
                gpu_domains=gpus,
                cpu_domains=cpus,
                node_max_w=spec.node_max_w,
                soft_min_w=spec.node_cap_min_soft_w,
                hard_min_w=spec.node_cap_min_hard_w,
            )
            self.opal._owner = self
            self.nvml = NVMLDriver(
                gpu_domains=gpus, rng=rng, failure_rate=nvml_failure_rate
            )
        elif spec.platform in ("tioga", "elcapitan"):
            # AMD management plane: E-SMI/HSMP over CPU + accelerator
            # packages (MI250X OAMs on Tioga, MI300A APUs on El Capitan-
            # class nodes — the APU has no separate host CPU domain).
            self.esmi = ESMIDriver(cpu_domains=cpus, oam_domains=oams)
        else:
            self.rapl = RAPLDriver(cpu_domains=cpus)
            if gpus:
                self.nvml = NVMLDriver(
                    gpu_domains=gpus, rng=rng, failure_rate=nvml_failure_rate
                )

        self.sensors = SensorSuite(
            self,
            granularity_s=spec.sensor_granularity_s,
            noise_sigma_w=sensor_noise_sigma_w,
            rng=rng,
        )

    def bump_power_rev(self) -> None:
        """Advance the power revision (every demand/cap mutation).

        When the monitor sampler has adopted this node its global
        revision moves too, so the next group tick rescans its members
        for stale sample templates.
        """
        self.power_rev += 1
        sink = self._col_sink
        if sink is not None:
            sink.power_rev_changed(self)

    # ------------------------------------------------------------------
    # Domain access
    # ------------------------------------------------------------------
    def by_kind(self, kind: DomainKind) -> List[PowerDomain]:
        return list(self._by_kind.get(kind, []))

    @property
    def cpu_domains(self) -> List[PowerDomain]:
        return self.by_kind(DomainKind.CPU)

    @property
    def gpu_domains(self) -> List[PowerDomain]:
        """Individually-cappable accelerator domains (GPU or OAM)."""
        return self.by_kind(DomainKind.GPU) or self.by_kind(DomainKind.OAM)

    @property
    def memory_domains(self) -> List[PowerDomain]:
        return self.by_kind(DomainKind.MEMORY)

    @property
    def n_gpus(self) -> int:
        """Logical GPU count (GCDs on Tioga: 2 per OAM domain)."""
        gpus = self.by_kind(DomainKind.GPU)
        if gpus:
            return len(gpus)
        return len(self.by_kind(DomainKind.OAM)) * self.spec.gpus_per_telemetry_domain

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def raw_power_w(self) -> float:
        """Sum of every domain's drawn power, before node-cap clipping."""
        return sum([d.actual_w for d in self._domain_list])

    def total_power_w(self) -> float:
        """Node power after OPAL residual enforcement (if any).

        On Lassen, if the post-GPU-cap sum still exceeds an installed
        node cap, OPAL throttles the sockets; the node then draws the
        cap. Elsewhere this equals :meth:`raw_power_w`. Memoized on
        :attr:`power_rev`: every demand, cap and OPAL node-cap change
        bumps it, and nothing else moves the result.
        """
        rev = self.power_rev
        if self._power_memo_rev == rev:
            return self._power_memo_w
        watts = self.raw_power_w()
        if self.opal is not None and self.opal.node_cap_w is not None:
            watts = min(watts, max(self.opal.node_cap_w, self._idle_power_w))
        self._power_memo_rev = rev
        self._power_memo_w = watts
        return watts

    def idle_power_w(self) -> float:
        """Sum of every domain's idle floor (domains are fixed)."""
        return self._idle_power_w

    # ------------------------------------------------------------------
    # Demand (set by running workloads)
    # ------------------------------------------------------------------
    def apply_demand(self, demand: Dict[str, float]) -> None:
        """Set per-domain demand from a workload, by domain name."""
        for name, watts in demand.items():
            dom = self.domains.get(name)
            if dom is None:
                raise KeyError(f"{self.hostname}: no such domain {name!r}")
            dom.set_demand(watts)

    def clear_demand(self) -> None:
        for dom in self.domains.values():
            dom.clear_demand()

    # ------------------------------------------------------------------
    # Throttle signals for the performance model
    # ------------------------------------------------------------------
    def gpu_throttles(self) -> List[float]:
        """Per-accelerator dynamic-power grant ratios, in domain order."""
        return [d.throttle_ratio for d in self.gpu_domains]

    def cpu_throttle(self) -> float:
        """Combined CPU grant ratio, including OPAL residual throttling."""
        cpus = self.cpu_domains
        if not cpus:
            return 1.0
        base = min(d.throttle_ratio for d in cpus)
        if self.opal is not None:
            base *= self.opal.cpu_throttle_needed(self.raw_power_w())
        return base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.hostname}, {self.spec.platform}, {self.total_power_w():.0f} W)"
