"""Power-aware admission: hold jobs that would dilute shares too far.

The paper's related work includes SLURM power-aware scheduling plugins
[31, 32]; its own framework deliberately separates scheduling (plain
FCFS) from power management. This module composes the two: an admission
filter in front of the FCFS scheduler that models what proportional
sharing *would* do if a job started now, and holds the job back while
the resulting per-node share sits below a floor.

Rationale: under proportional sharing, admitting one more job shrinks
*every* job's share. A compute-bound job admitted into a saturated
budget runs at a deeply throttled (energy-inefficient) operating point;
waiting until headroom exists can finish the same work sooner and
cheaper. The bench compares both admission modes under a tight budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.flux.scheduler import Scheduler
from repro.manager.policies.proportional import per_node_share


class PowerAwareScheduler(Scheduler):
    """FCFS + a minimum-share admission floor.

    Parameters
    ----------
    size:
        Node count.
    global_cap_w:
        The cluster budget the power manager operates under.
    min_share_w:
        Do not start a job if doing so would push the per-node share
        below this (e.g. 1000 W keeps V100 nodes above the deep-throttle
        cliff). The head job is never starved forever: it is admitted
        regardless once the cluster is otherwise empty.
    node_peak_w:
        Theoretical per-node peak (share values are capped here).
    """

    def __init__(
        self,
        size: int,
        global_cap_w: float,
        min_share_w: float = 1000.0,
        node_peak_w: float = 3050.0,
    ) -> None:
        super().__init__(size)
        if global_cap_w <= 0:
            raise ValueError("global_cap_w must be positive")
        if min_share_w <= 0:
            raise ValueError("min_share_w must be positive")
        self.global_cap_w = float(global_cap_w)
        self.min_share_w = float(min_share_w)
        self.node_peak_w = float(node_peak_w)
        self.held_jobs = 0  # admission decisions deferred (telemetry)

    def _busy_nodes(self) -> int:
        return self.size - self.free_count

    def projected_share_w(self, extra_nodes: int) -> float:
        """Per-node share if a job of ``extra_nodes`` started now."""
        total = self._busy_nodes() + extra_nodes
        if total <= 0:
            return self.node_peak_w
        return per_node_share(self.global_cap_w, total, self.node_peak_w)

    def pick_next(self, queue: List[int], requests: Dict[int, int]) -> Optional[int]:
        jobid = super().pick_next(queue, requests)
        if jobid is None:
            return None
        share = self.projected_share_w(requests[jobid])
        if share >= self.min_share_w:
            return jobid
        # Never starve: an empty cluster admits the head unconditionally
        # (its share is the floor of what the budget can ever provide).
        if self._busy_nodes() == 0:
            return jobid
        self.held_jobs += 1
        return None
