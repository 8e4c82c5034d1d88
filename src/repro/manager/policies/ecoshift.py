"""EcoShift: demand-driven CPU/GPU budget reallocation.

The share-enforcement policies spend the whole node limit on the GPU
side and leave CPU sockets uncapped — fine for GPU-bound codes, wasteful
for anything with real CPU phases. EcoShift treats the node limit as a
single budget over *both* cappable domains and re-splits it on a slow
cadence according to measured demand:

1. reserve the uncappable draw (memory domains, recent peak) off the
   top,
2. water-fill the remainder across the CPU-socket and GPU domain boxes
   toward each side's measured demand (recent peak × a headroom
   factor),
3. install the result as uniform per-socket and per-GPU caps.

The split arithmetic is the pure :func:`split_node_budget`, so the
conservation property — allocations stay inside their boxes and sum to
the budget whenever the budget is feasible — is property-tested without
a simulator (``tests/test_property_policy_guards.py``).

This is the per-node analogue of the federation tier's
``split_site_budget`` (same water-fill shape, one level down), and of
the CPU/GPU power-shifting governors in the PowerStack literature.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.manager.policies.base import PowerPolicy

#: Re-split cadence in seconds. Slow by design: domain demand moves
#: with application phases, not samples.
CONTROL_INTERVAL_S = 10.0
#: Multiplier on measured demand (>= 1) so the granted budget absorbs
#: spikes between control actions.
HEADROOM = 1.1
#: Tracking samples of demand history per domain (recent peak).
WINDOW = 8


def split_node_budget(
    budget_w: float,
    boxes: Sequence[Tuple[float, float]],
    demands_w: Sequence[float],
) -> List[float]:
    """Water-fill ``budget_w`` across domain boxes toward demand.

    ``boxes`` are per-domain ``(lo, hi)`` total-watt bounds;
    ``demands_w`` the desired watts per domain. Returns one allocation
    per domain with ``lo_i <= alloc_i <= hi_i`` and
    ``sum(alloc) == clamp(budget_w, sum(lo), sum(hi))`` (the budget is
    conserved whenever it is feasible; an infeasible budget is clamped
    to the nearest feasible total). Pure and deterministic.

    Two passes: first fill every domain toward its (box-clamped)
    demand, pro-rata when the budget cannot cover all demands; then
    spread any surplus toward the ``hi`` bounds pro-rata to remaining
    headroom, so spare power is not stranded.
    """
    if len(boxes) != len(demands_w):
        raise ValueError("boxes and demands_w must have equal length")
    for lo, hi in boxes:
        if hi < lo:
            raise ValueError(f"domain box inverted: [{lo}, {hi}]")
    los = [float(lo) for lo, _ in boxes]
    his = [float(hi) for _, hi in boxes]
    total = min(max(float(budget_w), sum(los)), sum(his))
    alloc = list(los)
    remaining = total - sum(los)

    targets = [
        min(hi, max(lo, float(d))) for (lo, hi), d in zip(boxes, demands_w)
    ]
    want = [t - a for t, a in zip(targets, alloc)]
    want_total = sum(want)
    if want_total > 0.0 and remaining > 0.0:
        scale = min(1.0, remaining / want_total)
        alloc = [a + w * scale for a, w in zip(alloc, want)]
        remaining -= want_total * scale

    if remaining > 0.0:
        head = [hi - a for hi, a in zip(his, alloc)]
        head_total = sum(head)
        if head_total > 0.0:
            # remaining <= head_total because total <= sum(his).
            scale = min(1.0, remaining / head_total)
            alloc = [a + h * scale for a, h in zip(alloc, head)]
    return alloc


class EcoShiftPolicy(PowerPolicy):
    """Re-split the node limit across CPU and GPU domains by demand,
    every :data:`CONTROL_INTERVAL_S` seconds."""

    name = "ecoshift"

    def __init__(self) -> None:
        super().__init__()
        self._gpu_demand = deque(maxlen=WINDOW)
        self._cpu_demand = deque(maxlen=WINDOW)
        self.last_split_w: Optional[Tuple[float, float]] = None
        self._timer = None

    # ------------------------------------------------------------------
    def attach(self, manager) -> None:
        super().attach(manager)
        self._timer = manager.add_timer(
            CONTROL_INTERVAL_S, self._control_tick
        )

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        super().detach()

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        assert self.manager is not None
        if limit_w is None:
            self.manager.clear_caps("gpu")
            self.manager.clear_caps("socket")
            return
        # Until demand history accumulates, enforce the GPU-side share
        # like the proportional policy (safe: sockets stay uncapped).
        self.manager.enforce_limit_via_gpus(limit_w)

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        assert self.manager is not None
        gpu_sum = sum(gpu_w)
        self._gpu_demand.append(gpu_sum)
        cpu_w = node_w - gpu_sum - self.manager.mem_power_w()
        self._cpu_demand.append(max(0.0, cpu_w))

    def reset_job_state(self) -> None:
        self._gpu_demand.clear()
        self._cpu_demand.clear()
        self.last_split_w = None

    def snapshot(self) -> dict:
        return {
            "gpu_demand": list(self._gpu_demand),
            "cpu_demand": list(self._cpu_demand),
            "last_split_w": (
                list(self.last_split_w) if self.last_split_w is not None else None
            ),
        }

    def restore(self, state) -> None:
        self._gpu_demand.clear()
        self._gpu_demand.extend(float(w) for w in state.get("gpu_demand") or [])
        self._cpu_demand.clear()
        self._cpu_demand.extend(float(w) for w in state.get("cpu_demand") or [])
        split = state.get("last_split_w")
        self.last_split_w = None if split is None else (float(split[0]), float(split[1]))

    # ------------------------------------------------------------------
    def _control_tick(self, _timer) -> None:
        m = self.manager
        assert m is not None
        limit = m.node_limit_w
        if limit is None or not m.job_present:
            return
        if len(self._gpu_demand) < WINDOW:
            return  # still warming up; share enforcement holds
        n_gpu = m.device_count("gpu")
        n_sock = m.device_count("socket")
        if n_gpu == 0 or n_sock == 0:
            return
        g_lo, g_hi = m.cap_range("gpu")
        s_lo, s_hi = m.cap_range("socket")
        budget = float(limit) - m.mem_power_w()
        cpu_alloc, gpu_alloc = split_node_budget(
            budget,
            boxes=[(n_sock * s_lo, n_sock * s_hi), (n_gpu * g_lo, n_gpu * g_hi)],
            demands_w=[
                max(self._cpu_demand) * HEADROOM,
                max(self._gpu_demand) * HEADROOM,
            ],
        )
        self.last_split_w = (cpu_alloc, gpu_alloc)
        for i in range(n_sock):
            m.set_cap("socket", i, cpu_alloc / n_sock)
        for i in range(n_gpu):
            m.set_cap("gpu", i, gpu_alloc / n_gpu)
        tel = m.broker.telemetry
        tel.metrics.gauge(
            "policy_domain_budget_w", labels={"domain": "cpu"},
            help="EcoShift per-domain budget allocations (watts)",
        ).set(cpu_alloc)
        tel.metrics.gauge(
            "policy_domain_budget_w", labels={"domain": "gpu"},
            help="EcoShift per-domain budget allocations (watts)",
        ).set(gpu_alloc)
        tel.metrics.counter(
            "policy_control_updates_total", labels={"policy": self.name},
            help="dynamic-policy control-loop evaluations, by policy",
        ).inc()

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "headroom": HEADROOM,
            "last_split_w": self.last_split_w,
            "demand_fill": (len(self._cpu_demand), len(self._gpu_demand)),
        }
