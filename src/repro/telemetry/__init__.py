"""repro.telemetry — the framework's own observability layer.

The paper argues a power-management framework is only production-grade
when its *own* behaviour is measurable (Section IV-B quantifies the
monitor at 0.4 % average overhead). This package gives the reproduction
the same property: every hot path — TBON RPC, monitor sampling and
aggregation, the cluster→job→node cap chain, FPP's FFT iterations —
reports into one hub with three parts:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters, gauges
  and fixed-bucket histograms with labeled series, Prometheus-text and
  JSON export;
* :class:`~repro.telemetry.tracing.TraceRecorder` — a ring buffer of
  span/instant records exportable to ``chrome://tracing`` (see
  :mod:`repro.analysis.chrome_trace`);
* :class:`~repro.telemetry.overhead.OverheadAccountant` — attributes
  simulated work to monitor/manager/application and reproduces the
  paper's overhead-percentage table.

Everything runs on **simulation time** and is a pure observer: no
metric mutation schedules events or draws randomness, so a run with
telemetry enabled produces byte-identical power timelines to one with
it disabled (pinned by ``tests/test_telemetry_integration.py``).

One hub exists per simulator; components reach it with::

    from repro.telemetry import telemetry_of
    tel = telemetry_of(sim)                      # shared hub
    tel.metrics.counter("flux_rpc_requests_total",
                        labels={"topic": topic}).inc()
    with tel.tracer.trace_span("fpp.control_tick", "manager", rank=3):
        ...

The full metric catalog is documented in docs/observability.md and a
consistency test fails the build when an emitted metric is missing
from it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_S,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.overhead import (
    AGGREGATION_COST_PER_NODE_S,
    FPP_FFT_COST_S,
    MANAGER_RECOMPUTE_COST_PER_JOB_S,
    MANAGER_TRACK_COST_S,
    PAPER_OVERHEAD_PCT,
    OverheadAccountant,
    OverheadReport,
)
from repro.telemetry.tracing import TraceEvent, TraceRecorder

__all__ = [
    "Telemetry",
    "telemetry_of",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S",
    "TraceEvent",
    "TraceRecorder",
    "OverheadAccountant",
    "OverheadReport",
    "PAPER_OVERHEAD_PCT",
    "AGGREGATION_COST_PER_NODE_S",
    "MANAGER_TRACK_COST_S",
    "MANAGER_RECOMPUTE_COST_PER_JOB_S",
    "FPP_FFT_COST_S",
]


class Telemetry:
    """The per-simulation observability hub.

    Bundles a metrics registry, a trace recorder and an overhead
    accountant behind one ``enabled`` switch. The clock must be the
    owning simulator's ``now`` (simulation time — the determinism
    contract; see docs/architecture.md).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True) -> None:
        self.clock = clock or (lambda: 0.0)
        self.metrics = MetricsRegistry(clock=self.clock, enabled=enabled)
        self.tracer = TraceRecorder(clock=self.clock, enabled=enabled)
        self.accountant = OverheadAccountant(
            registry=self.metrics, enabled=enabled
        )

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.metrics.enabled = bool(value)
        self.tracer.enabled = bool(value)
        self.accountant.enabled = bool(value)

    def reset(self) -> None:
        """Zero metrics, drop traces, clear charges (registrations stay)."""
        self.metrics.reset()
        self.tracer.clear()
        self.accountant.reset()


def telemetry_of(sim) -> Telemetry:
    """The hub attached to ``sim``, creating (and attaching) one if absent.

    Every broker and module of an instance shares the simulator, hence
    the hub — cluster-wide counters fall out for free. Attachment is a
    duck-typed attribute so :mod:`repro.simkernel` never needs to know
    telemetry exists.
    """
    tel = getattr(sim, "telemetry", None)
    if tel is None:
        tel = Telemetry(clock=lambda: sim.now)
        sim.telemetry = tel
    return tel
