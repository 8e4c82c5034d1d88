"""The cluster-level manager (Section III-B, III-B1).

State-aware: subscribes to ``job-state.*`` events from the job manager,
so it always knows which jobs occupy which nodes. On every arrival or
departure it recomputes power shares:

* **Unconstrained** cluster (no global cap): every node is allowed its
  theoretical peak and no capping is performed.
* **Power-constrained**: first try to give every active node peak
  power; if the budget does not cover that, redistribute to *all* jobs
  proportionally to node count — per-node allocation
  ``P_n = P_G / (N_k + N_i)``, a new job receiving ``N_i * P_n``.
  On a tenant cluster the same split is fairshare-weighted per job
  (:func:`repro.tenancy.fairshare.split_budget_weighted`).

A configured static node cap (IBM OPAL on Lassen) is installed by every
node manager at load time; this is the Table III/IV "static" baseline
and also the hard backstop above the dynamic policies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, FrozenSet, List, Optional

from repro.flux.broker import Broker
from repro.flux.message import Message
from repro.flux.module import Module
from repro.lifecycle.machine import (
    AVAILABLE,
    DEGRADED,
    MAINTENANCE,
    RETIRED,
    LifecycleRegistry,
)
from repro.manager.job_level import JobLevelManager, JobPowerState
from repro.manager.node_manager import JOB_DEPARTED_TOPIC
from repro.manager.policies.proportional import per_node_share
from repro.telemetry import MANAGER_RECOMPUTE_COST_PER_JOB_S


@dataclass(frozen=True)
class ManagerConfig:
    """Deployment configuration for flux-power-manager.

    Attributes
    ----------
    global_cap_w:
        Cluster power budget; ``None`` models an unconstrained system.
    node_peak_w:
        Theoretical per-node peak (3050 W on Lassen) — the allocation
        when the budget allows it.
    policy:
        Node-policy name resolved against
        :data:`repro.manager.policies.POLICY_FACTORIES`: the paper's
        ``"static"``, ``"proportional"`` and ``"fpp"``, plus
        ``"fpp-socket"``, ``"history"`` and the safety-wrapped zoo
        policies ``"pi"``, ``"ecoshift"`` and ``"checkpoint"``.
    static_node_cap_w:
        OPAL node cap installed on every node at load time (IBM's
        mechanism; also the backstop for the dynamic policies, 1950 W
        in Table IV).
    sample_interval_s:
        Node managers' power-tracking period.
    account_idle_nodes:
        The paper's formula ``P_n = P_G/(N_k + N_i)`` divides the whole
        budget over *allocated* nodes; idle nodes' draw rides on top,
        so total cluster power exceeds ``P_G`` whenever the machine is
        partially allocated. With this flag the manager reserves
        ``idle_node_w`` per unallocated node out of the budget first,
        making the constraint hold for the *whole* cluster.
    idle_node_w:
        Reserved per idle node when ``account_idle_nodes`` is set
        (Lassen idles at ~400 W).
    """

    global_cap_w: Optional[float] = None
    node_peak_w: float = 3050.0
    policy: str = "proportional"
    static_node_cap_w: Optional[float] = None
    sample_interval_s: float = 2.0
    account_idle_nodes: bool = False
    idle_node_w: float = 400.0


class ClusterLevelManager(Module):
    """Rank-0 budget owner: proportional sharing across jobs."""

    name = "power-manager-root"

    def __init__(self, broker: Broker, config: ManagerConfig) -> None:
        if broker.rank != 0:
            raise ValueError("cluster manager runs on rank 0")
        super().__init__(broker)
        self.config = config
        self.job_level = JobLevelManager(broker)
        #: (time, total_active_nodes, per_node_share_w) — Fig 5 series.
        self.share_log: List[tuple] = []
        #: ``job_weights({jobid: nodes}) -> {jobid: weight}``, installed
        #: by the tenancy tier; None (anonymous) means equal weights.
        self.job_weights = None
        #: Per-rank lifecycle: only AVAILABLE ranks are booked into new
        #: jobs' power shares. The scheduler does not track broker
        #: liveness, so a job can start on a rank whose management plane
        #: is dead (DEGRADED), drained (MAINTENANCE) or decommissioned
        #: (RETIRED); booking it would pay a power share to a node that
        #: can never install the cap.
        self.lifecycle = LifecycleRegistry(
            range(broker.overlay.size), "node", broker.telemetry
        )

    def on_load(self) -> None:
        self.subscribe("job-state.", self._on_job_state)
        self.subscribe("broker.", self._on_broker_event)
        for rank in self.lifecycle.entities():
            self.lifecycle.ensure(rank, AVAILABLE, reason="enroll", t=self.sim.now)

    @property
    def down_ranks(self) -> FrozenSet[int]:
        """Ranks whose management plane the event stream says is dead."""
        return frozenset(self.lifecycle.in_state(DEGRADED))

    # ------------------------------------------------------------------
    # Job state tracking
    # ------------------------------------------------------------------
    def _on_job_state(self, msg: Message) -> None:
        state = msg.topic.split(".", 1)[1]
        jobid = msg.payload["jobid"]
        if state == "running":
            ranks = [
                r for r in msg.payload["ranks"] if self.lifecycle.is_available(r)
            ]
            dropped = len(msg.payload["ranks"]) - len(ranks)
            if dropped:
                self.broker.telemetry.metrics.counter(
                    "manager_dead_ranks_skipped_total",
                    help="dead ranks excluded from new jobs' power shares",
                ).inc(dropped)
            if ranks:
                self.job_level.job_started(jobid, ranks)
            self.recompute()
        elif state in ("completed", "cancelled"):
            self.job_level.job_ended(jobid)
            self.recompute()

    def _on_broker_event(self, msg: Message) -> None:
        """React to node death: reclaim its share in one recompute.

        A crashed broker takes its node manager with it; leaving the
        dead rank in the books would keep paying it a share of the
        budget forever. Dropping it and recomputing immediately lets
        the surviving nodes of every affected job absorb the reclaimed
        power (``P_n = P_G/(N_k + N_i)`` over the *live* node count).
        """
        if msg.topic == "broker.up":
            rank = int(msg.payload["rank"])
            # Only a death is undone by a revival: maintenance and
            # retirement are operator intent, not liveness, and stay
            # put until the operator ends them.
            if self.lifecycle.state_of(rank) == DEGRADED:
                self.lifecycle.transition(
                    rank, AVAILABLE, reason="broker.up", t=self.sim.now
                )
            return
        if msg.topic != "broker.down":
            return
        rank = int(msg.payload["rank"])
        if self.lifecycle.state_of(rank) in (DEGRADED, RETIRED):
            # Repeat down events and deaths of decommissioned nodes
            # carry no new information.
            return
        self.lifecycle.transition(
            rank, DEGRADED, reason=msg.topic, t=self.sim.now
        )
        affected = self.job_level.node_died(rank)
        tel = self.broker.telemetry
        tel.metrics.counter(
            "manager_node_deaths_total",
            help="broker down-events processed by the cluster manager",
        ).inc()
        tel.tracer.instant(
            "manager.node_down", "manager", rank=self.broker.rank,
            dead_rank=rank, affected_jobs=len(affected),
        )
        if affected:
            self.recompute()

    # ------------------------------------------------------------------
    # Operator lifecycle controls
    # ------------------------------------------------------------------
    def _drain(self, rank: int) -> None:
        """Remove a rank from the books and rebalance immediately.

        Unlike a broker death the drained rank is *alive*, so each
        affected job also gets a departure RPC to it — its node manager
        releases the limit and caps exactly as when a job ends (one
        TBON latency later; the ``lifecycle`` invariant's cap check
        allows that settle tick).
        """
        affected = self.job_level.node_died(rank)
        for jobid in affected:
            self.broker.rpc(rank, JOB_DEPARTED_TOPIC, {"jobid": jobid})
        if affected:
            self.recompute()

    def begin_maintenance(self, rank: int, reason: str = "maintenance") -> None:
        """Drain a rank for planned service: AVAILABLE → MAINTENANCE."""
        self.lifecycle.transition(rank, MAINTENANCE, reason=reason, t=self.sim.now)
        self._drain(rank)

    def end_maintenance(self, rank: int, reason: str = "maintenance-done") -> None:
        """Return a serviced rank to the pool: MAINTENANCE → AVAILABLE."""
        self.lifecycle.transition(rank, AVAILABLE, reason=reason, t=self.sim.now)

    def retire_node(self, rank: int, reason: str = "retired") -> None:
        """Permanently decommission a rank (terminal state)."""
        self.lifecycle.transition(rank, RETIRED, reason=reason, t=self.sim.now)
        self._drain(rank)

    # ------------------------------------------------------------------
    # Crash recovery (see repro.lifecycle.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-able continuation state for the manager chain on rank 0.

        Config rides along because retunes mutate it mid-run (the
        federation tier replaces ``global_cap_w`` every epoch); jobs
        are stored in insertion order so a restore reproduces dict
        iteration order exactly.
        """
        return {
            "config": asdict(self.config),
            "lifecycle": self.lifecycle.snapshot(),
            "share_log": [list(row) for row in self.share_log],
            "jobs": [
                {
                    "jobid": state.jobid,
                    "ranks": list(state.ranks),
                    "job_limit_w": state.job_limit_w,
                }
                for state in self.job_level.jobs.values()
            ],
            "assignment_log": [list(row) for row in self.job_level.assignment_log],
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate from :meth:`snapshot_state`; ``{}`` wipes to fresh.

        Silent: rebuilding the job books must NOT call
        :meth:`JobLevelManager.assign` — the node managers hold (or are
        themselves restored to) the last pushed limits, and re-fanning
        RPCs would shift transport timing versus the uninterrupted run.
        """
        cfg = state.get("config")
        if cfg is not None:
            self.config = ManagerConfig(**cfg)
        self.lifecycle.restore(state.get("lifecycle"))
        self.share_log = [tuple(row) for row in state.get("share_log") or []]
        self.job_level.jobs = {
            int(job["jobid"]): JobPowerState(
                jobid=int(job["jobid"]),
                ranks=[int(r) for r in job["ranks"]],
                job_limit_w=(
                    None
                    if job.get("job_limit_w") is None
                    else float(job["job_limit_w"])
                ),
            )
            for job in state.get("jobs") or []
        }
        self.job_level.assignment_log = [
            tuple(row) for row in state.get("assignment_log") or []
        ]

    # ------------------------------------------------------------------
    # Proportional sharing (Section III-B1)
    # ------------------------------------------------------------------
    def effective_budget_w(self) -> Optional[float]:
        """The budget the proportional split divides: the global cap
        minus the idle-node reserve (when accounted); None if uncapped."""
        if self.config.global_cap_w is None:
            return None
        budget = self.config.global_cap_w
        if self.config.account_idle_nodes:
            total_nodes = self.job_level.active_node_count()
            idle = max(0, self.broker.overlay.size - total_nodes)
            budget = max(0.0, budget - idle * self.config.idle_node_w)
        return budget

    def per_node_share_w(self) -> Optional[float]:
        """Current per-node allocation, or None when uncapped."""
        if self.config.global_cap_w is None:
            return None
        total_nodes = self.job_level.active_node_count()
        if total_nodes == 0:
            return None
        budget = self.effective_budget_w()
        return per_node_share(budget, total_nodes, self.config.node_peak_w)

    def set_budget(self, global_cap_w: Optional[float]) -> None:
        """Install a new cluster budget (None: uncapped) and re-split it."""
        self.config = replace(self.config, global_cap_w=global_cap_w)
        self.recompute()

    def recompute(self) -> None:
        """Re-split the budget into job limits and push them down."""
        if self.config.policy == "static":
            # Static deployments never push dynamic shares; the OPAL
            # node cap installed at load time is the entire policy.
            return
        share = self.per_node_share_w()
        self.share_log.append(
            (self.sim.now, self.job_level.active_node_count(), share)
        )
        tel = self.broker.telemetry
        tel.metrics.counter(
            "manager_share_recomputes_total",
            help="cluster-level proportional-share recomputations",
        ).inc()
        tel.metrics.gauge(
            "manager_active_nodes",
            help="nodes currently allocated to jobs",
        ).set(self.job_level.active_node_count())
        tel.metrics.gauge(
            "manager_per_node_share_w",
            help="current per-node power share (0 when uncapped/idle)",
        ).set(share if share is not None else 0.0)
        tel.tracer.instant(
            "manager.recompute", "manager", rank=self.broker.rank,
            share_w=share, jobs=len(self.job_level.jobs),
        )
        tel.accountant.charge(
            "manager",
            MANAGER_RECOMPUTE_COST_PER_JOB_S * max(1, len(self.job_level.jobs)),
        )
        limits: Dict[int, float] = {}
        if share is not None:
            # With no weight source this is bitwise ``share × nodes``.
            # Imported here: repro.tenancy imports this module.
            from repro.tenancy.fairshare import split_budget_weighted

            job_nodes = {
                jobid: len(state.ranks)
                for jobid, state in self.job_level.jobs.items()
            }
            limits = split_budget_weighted(
                self.effective_budget_w(),
                job_nodes,
                self.config.node_peak_w,
                None if self.job_weights is None else self.job_weights(job_nodes),
            )
        for jobid in list(self.job_level.jobs):
            self.job_level.assign(jobid, limits.get(jobid))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "global_cap_w": self.config.global_cap_w,
            "policy": self.config.policy,
            "active_jobs": sorted(self.job_level.jobs),
            "active_nodes": self.job_level.active_node_count(),
            "per_node_share_w": self.per_node_share_w(),
        }
