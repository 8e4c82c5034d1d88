"""Proportional-share enforcement policy (Section III-B1).

The cluster manager computes each job's share; the job manager splits
it per node; this policy *enforces* the resulting node limit by setting
uniform per-GPU caps: the GPU budget is the node limit minus the node
manager's running estimate of non-GPU power (CPU + memory + uncore,
tracked from live measurements), divided across GPUs and clamped into
the device capping range.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.manager.policies.base import PowerPolicy


# ----------------------------------------------------------------------
# Share arithmetic (pure; property-tested)
# ----------------------------------------------------------------------
def per_node_share(budget_w: float, active_nodes: int, node_peak_w: float) -> float:
    """The paper's ``P_n = min(peak, P_G / (N_k + N_i))``.

    Every allocated node gets its theoretical peak while the budget
    covers it; past that point the whole budget is divided evenly over
    the allocated nodes. Pure so the cluster manager's arithmetic can
    be property-tested without a simulator
    (``tests/test_property_buffer_shares.py``).
    """
    if active_nodes <= 0:
        raise ValueError(f"active_nodes must be > 0, got {active_nodes}")
    if active_nodes * node_peak_w <= budget_w:
        return node_peak_w
    return budget_w / active_nodes


def split_budget(
    budget_w: float, job_nodes: Mapping[int, int], node_peak_w: float
) -> Dict[int, float]:
    """Per-job power limits: each job gets ``share × its node count``."""
    total = sum(job_nodes.values())
    if total == 0:
        return {}
    share = per_node_share(budget_w, total, node_peak_w)
    return {jobid: share * n for jobid, n in job_nodes.items()}


class ProportionalPolicy(PowerPolicy):
    """Enforce the assigned node share via uniform per-GPU caps."""

    name = "proportional"

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        assert self.manager is not None
        if limit_w is None:
            self.manager.clear_caps("gpu")
            return
        self.manager.enforce_limit_via_gpus(limit_w)

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        # Re-derive caps as the non-GPU power estimate refines — a share
        # computed against a stale estimate can strand or overshoot
        # power. Cheap: only reissues NVML calls when the cap moved.
        assert self.manager is not None
        if self.manager.node_limit_w is not None:
            self.manager.enforce_limit_via_gpus(self.manager.node_limit_w)
