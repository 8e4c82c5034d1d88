"""Overhead accounting: what the framework itself costs.

The paper's production claim is quantitative: monitoring costs 0.4 % of
application performance on average (1.2 % on Lassen, 0.04 % on Tioga).
The accountant reproduces that bookkeeping for the simulated stack. It
attributes *simulated CPU seconds* to one of three categories:

* ``monitor`` — Variorum reads + ring appends (the per-platform sample
  cost from :mod:`repro.monitor.overhead`) and root-agent aggregation;
* ``manager`` — node power tracking, share recomputation, and FPP's FFT
  control iterations;
* ``application`` — node-seconds spent executing jobs (filled in at
  report time from the instance's app runs).

Percentages are reported against *cluster capacity* — ``elapsed ×
n_nodes`` node-seconds — which is exactly the fraction of each node's
compute the framework consumes, and what
:func:`repro.monitor.overhead.sampling_overhead_fraction` feeds into
the application slowdown model. The two views agree by construction:
the accountant's monitor percentage equals the progress penalty the
apps actually experienced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.metrics import MetricsRegistry, repeat_add

#: The paper's Section IV-B overhead measurements (percent).
PAPER_OVERHEAD_PCT = {"average": 0.4, "lassen": 1.2, "tioga": 0.04}

#: Simulated cost charged per root-agent aggregation, per node queried
#: (response handling + CSV assembly amortised).
AGGREGATION_COST_PER_NODE_S = 0.2e-3

#: Simulated cost of one node-manager tracking-loop iteration.
MANAGER_TRACK_COST_S = 0.3e-3

#: Simulated cost of one cluster-level share recomputation, per job.
MANAGER_RECOMPUTE_COST_PER_JOB_S = 0.1e-3

#: Simulated cost of one FFT period estimation (a ~45-point rFFT).
FPP_FFT_COST_S = 2.0e-3


class OverheadAccountant:
    """Accumulates attributed simulated work by category.

    Charges are mirrored into the ``overhead_seconds_total{category=}``
    counter when a registry is attached, so exports carry the same
    numbers the report prints.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 enabled: bool = True) -> None:
        self.registry = registry
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        # charge() is on the per-sample hot path; cache the counter
        # handle per category instead of a registry lookup per charge.
        self._counters: Dict[str, object] = {}

    def charge(self, category: str, seconds: float) -> None:
        """Attribute ``seconds`` of simulated work to ``category``."""
        if not self.enabled:
            return
        if seconds < 0:
            raise ValueError(f"cannot charge negative time ({seconds})")
        self._seconds[category] = self._seconds.get(category, 0.0) + seconds
        if self.registry is not None:
            self._counter(category).inc(seconds)

    def charge_repeated(self, category: str, seconds: float, count: int) -> None:
        """Attribute ``count`` identical charges in bulk, bit-exactly.

        The accumulator (and its mirrored counter) end up with exactly
        the value ``count`` sequential :meth:`charge` calls would
        produce — :func:`repro.telemetry.metrics.repeat_add` preserves
        the left-to-right float order — without per-call overhead. A
        sampler tick charges each run of members with equal costs
        through this.
        """
        if not self.enabled or count <= 0:
            return
        if seconds < 0:
            raise ValueError(f"cannot charge negative time ({seconds})")
        self._seconds[category] = repeat_add(
            self._seconds.get(category, 0.0), seconds, count
        )
        if self.registry is not None:
            self._counter(category).inc_repeated(seconds, count)

    def _counter(self, category: str):
        """The mirrored ``overhead_seconds_total`` series, registered at
        the category's first charge."""
        counter = self._counters.get(category)
        if counter is None:
            counter = self.registry.counter(
                "overhead_seconds_total",
                labels={"category": category},
                help="simulated CPU seconds attributed to framework category",
            )
            self._counters[category] = counter
        return counter

    def seconds(self, category: str) -> float:
        """Total simulated seconds charged to ``category`` so far."""
        return self._seconds.get(category, 0.0)

    def categories(self) -> List[str]:
        return sorted(self._seconds)

    def reset(self) -> None:
        self._seconds.clear()


@dataclass
class OverheadReport:
    """The Table-style overhead breakdown for one run.

    Build via :meth:`repro.cluster.PowerManagedCluster.overhead_report`;
    ``category_seconds`` holds monitor/manager charges from the
    accountant plus application node-seconds computed from app runs.
    """

    platform: str
    elapsed_s: float
    n_nodes: int
    category_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def capacity_node_s(self) -> float:
        """Total node-seconds of compute capacity over the run."""
        return self.elapsed_s * self.n_nodes

    def pct(self, category: str) -> float:
        """Category cost as a percentage of cluster capacity."""
        cap = self.capacity_node_s
        if cap <= 0:
            return 0.0
        return 100.0 * self.category_seconds.get(category, 0.0) / cap

    @property
    def monitor_overhead_pct(self) -> float:
        """The headline number to compare against the paper's 0.4 %."""
        return self.pct("monitor")

    def paper_reference_pct(self) -> Optional[float]:
        """The paper's measured overhead for this platform, if any."""
        return PAPER_OVERHEAD_PCT.get(self.platform)

    def render(self) -> str:
        """Paper-style overhead table with the reference claim inline."""
        lines = [
            f"overhead accounting — {self.platform}, {self.n_nodes} nodes, "
            f"{self.elapsed_s:.1f} s simulated "
            f"({self.capacity_node_s:.1f} node-s capacity)",
            f"{'category':<14} {'node-s':>12} {'% capacity':>11}",
        ]
        for cat in sorted(self.category_seconds):
            lines.append(
                f"{cat:<14} {self.category_seconds[cat]:>12.3f} "
                f"{self.pct(cat):>11.3f}"
            )
        ref = self.paper_reference_pct()
        ref_str = f"{ref:.2f} % on {self.platform}, " if ref is not None else ""
        lines.append(
            f"paper reference: monitor overhead {ref_str}"
            f"{PAPER_OVERHEAD_PCT['lassen']:.1f} % Lassen / "
            f"{PAPER_OVERHEAD_PCT['tioga']:.2f} % Tioga / "
            f"{PAPER_OVERHEAD_PCT['average']:.1f} % average"
        )
        return "\n".join(lines)
