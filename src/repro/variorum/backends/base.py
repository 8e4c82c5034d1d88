"""Backend interface, shared telemetry helpers and the per-device dials."""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.flux.message import estimate_payload_bytes
from repro.hardware.domains import DomainKind
from repro.hardware.firmware import CappingError
from repro.hardware.node import Node
from repro.hardware.sensors import SensorReading


class VariorumError(RuntimeError):
    """A Variorum call failed (unsupported feature, firmware rejection)."""


def driver_call(write, *args):
    """Run one driver write; a firmware refusal becomes :class:`VariorumError`."""
    try:
        return write(*args)
    except CappingError as exc:
        raise VariorumError(str(exc)) from exc


def clear_source(domains, source: str) -> None:
    """Remove ``source``'s cap from every domain in ``domains``."""
    for dom in domains:
        dom.set_cap(source, None)


class TelemetryPlan:
    """Precomputed per-node sampling layout for one backend.

    A node's domain set is fixed after construction, so the Variorum
    key for each measurable domain (``power_cpu_watts_socket_0``, ...)
    can be computed once instead of re-deriving per-kind indices and
    formatting key strings on every 2 s sample. ``entries`` preserves
    ``node.domains`` declaration order — the order the per-sample loop
    always used, so sample dicts keep identical key order.
    """

    __slots__ = (
        "entries",
        "gpu_names",
        "gpu_half",
        "sample_size",
        "template",
        "template_rev",
    )

    def __init__(self, node: Node, kinds: Dict[DomainKind, str]) -> None:
        #: (domain name, sample key, domain object) per measurable
        #: domain whose kind the backend reports.
        self.entries: List[Tuple[str, str, object]] = []
        counters: Dict[DomainKind, int] = {}
        for dom in node.domains.values():
            spec = dom.spec
            if not spec.measurable or spec.kind not in kinds:
                continue
            idx = counters.get(spec.kind, 0)
            counters[spec.kind] = idx + 1
            self.entries.append((spec.name, f"{kinds[spec.kind]}_{idx}", dom))
        #: Measurable GPU domain names in order (IBM's per-socket
        #: aggregates) and the first-socket split point.
        self.gpu_names: List[str] = [
            d.spec.name
            for d in node.by_kind(DomainKind.GPU)
            if d.spec.measurable
        ]
        self.gpu_half: int = (len(self.gpu_names) + 1) // 2
        #: Wire-size estimate shared by every finished sample for this
        #: node (see :meth:`Backend.finalize_sample`); walked once.
        self.sample_size = None
        #: Last finished sample + the node power revision it was built
        #: at (see :meth:`Backend.sample_cached`).
        self.template = None
        self.template_rev = -1


class Backend:
    """One vendor's Variorum calls: the only code that knows which
    driver caps which device (the base class caps nothing)."""

    vendor: str = "base"

    def get_node_power_json(self, node: Node, timestamp: float) -> Dict[str, object]:
        raise NotImplementedError

    def cap_best_effort_node_power_limit(
        self, node: Node, watts: float
    ) -> Dict[str, object]:
        raise NotImplementedError

    def cap_device_power_limit(
        self, node: Node, domain: str, index: int, watts: float
    ) -> float:
        raise VariorumError(
            f"{node.hostname}: no {domain} capping driver on {self.vendor}"
        )

    def clear_device_power_limits(self, node: Node, domain: str) -> None:
        """Nothing to clear where nothing can be capped."""

    def cap_each_gpu_power_limit(self, node: Node, watts: float) -> List[float]:
        """The same per-GPU cap on every GPU, scaled to the cappable
        domain (an AMD OAM carries two GCDs); returns the caps in force."""
        n = len(node.gpu_domains)
        if n == 0:
            raise VariorumError(f"{node.hostname}: no cappable GPUs")
        watts *= node.spec.gpus_per_telemetry_domain
        return [self.cap_device_power_limit(node, "gpu", i, watts) for i in range(n)]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def plan_for(self, node: Node) -> TelemetryPlan:
        """The cached :class:`TelemetryPlan` for ``node`` (built once).

        Keyed on the backend class so a node probed by two different
        backends (cross-vendor tests) never sees the wrong key layout;
        the common case — one backend per node for its whole life — is
        a single dict probe plus an identity check.
        """
        cached = node.__dict__.get("_variorum_plan")
        cls = type(self)
        if cached is not None and cached[0] is cls:
            return cached[1]
        plan = TelemetryPlan(node, self._KEY_STEMS)
        node._variorum_plan = (cls, plan)
        return plan

    _KEY_STEMS: Dict[DomainKind, str] = {}

    def telemetry_sample(
        self,
        node: Node,
        timestamp: float,
        reading: SensorReading = None,
    ) -> Dict[str, object]:
        """Shared hot path: sensor read + header + planned domain keys."""
        if reading is None:
            reading = node.sensors.read(timestamp)
        dw = reading.domains_w
        # Deliberately a plain dict: str/float/bool-only dicts get
        # untracked by the cyclic GC, which matters with ~100k of them
        # live in ring buffers. Wire size is priced per node, not per
        # sample (see finalize_sample), so no per-sample memo is needed.
        sample: Dict[str, object] = dict(
            hostname=node.hostname,
            timestamp=round(reading.timestamp, 6),
            power_node_watts=round(reading.node_w, 3),
            power_node_is_estimate=not reading.node_measured,
        )
        for name, key, dom in self.plan_for(node).entries:
            # dw covers every measurable domain, so the fallback only
            # fires for exotic hand-built readings; dict.get's default
            # would evaluate the actual_w property on every hit.
            watts = dw.get(name)
            if watts is None:
                watts = dom.actual_w
            sample[key] = round(watts, 3)
        return sample

    def finalize_sample(
        self, node: Node, sample: Dict[str, object]
    ) -> Dict[str, object]:
        """Record the per-node constant wire-size estimate of ``sample``.

        Every sample a backend emits for a given node has the same keys
        and leaf types — floats (always 8 bytes), one bool and the
        node's fixed hostname string — so the estimate is a per-node
        constant: walked once on the first finished sample and kept on
        the plan. Query responses are then priced arithmetically from
        it (see the node agent) without ever re-walking sample dicts.
        Backends call this after adding their vendor-specific keys.
        """
        plan = self.plan_for(node)
        if plan.sample_size is None:
            plan.sample_size = estimate_payload_bytes(sample)
        return sample

    def sample_cached(
        self,
        node: Node,
        timestamp: float,
        plan: "TelemetryPlan | None" = None,
    ) -> Dict[str, object]:
        """Telemetry sample with the power-revision template fast path.

        Between power-state changes a node's finished sample differs
        only in its quantised timestamp, so the last full sample is
        kept as a template keyed by ``node.power_rev`` (bumped by every
        demand/cap mutation) and later ticks copy it with a fresh
        timestamp — the same floor/round arithmetic the sensor path
        uses, so values are bit-identical to a full rebuild.
        Samples are treated as write-once everywhere (ring buffer,
        responses); mutating one would poison its node's template.
        """
        if plan is None:
            plan = self.plan_for(node)
        tmpl = plan.template
        rev = node.power_rev
        if tmpl is None or plan.template_rev != rev:
            sample = self.get_node_power_json(node, timestamp)
            plan.template = sample
            plan.template_rev = rev
            return sample
        g = node.sensors.granularity_s
        quantised = math.floor(timestamp / g) * g if g > 0 else timestamp
        sample = dict(tmpl)
        sample["timestamp"] = round(float(quantised), 6)
        return sample
