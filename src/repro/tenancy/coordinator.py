"""Tenancy coordinator: wires the tenant model into a live cluster.

The coordinator sits beside :class:`~repro.cluster.PowerManagedCluster`
and does four things, all deterministically in simulated time:

* **admission** — when an :class:`~repro.tenancy.admission.AdmissionConfig`
  is set, every submission passes :func:`~repro.tenancy.admission.decide`
  first; queued specs wait FIFO and are released as capacity frees.
  Every decision is logged with its pure inputs so the simtest
  ``tenant_admission`` checker can replay the whole log byte for byte;
* **accounting** — a periodic tick charges each project for its
  currently *granted* watts (allocation-based, like core-hours: what
  the manager granted, not what the devices happened to draw) into a
  decaying :class:`~repro.tenancy.accounting.UsageLedger`;
* **fairshare** — the tick refreshes per-project effective weights and
  installs :meth:`TenancyCoordinator.job_weights` as the cluster
  manager's weight source, so job power limits track fairshare rather
  than flat node counts;
* **telemetry** — ``tenant_*`` gauges/counters per tick and decision,
  plus a deterministic accounting CSV export (same seed → same bytes).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.flux.jobspec import JobRecord, Jobspec
from repro.tenancy.accounting import (
    DEFAULT_HALF_LIFE_S,
    DEFAULT_USAGE_NORM_WS,
    UsageLedger,
    effective_weight,
)
from repro.tenancy.admission import (
    ADMIT,
    QUEUE,
    AdmissionConfig,
    AdmissionDecision,
    decide,
)
from repro.tenancy.model import TenantDirectory, UNAFFILIATED

#: Columns of the accounting CSV export, in order.
ACCOUNTING_CSV_FIELDS = (
    "project",
    "account",
    "weight",
    "effective_weight",
    "usage_ws",
    "lifetime_ws",
    "granted_w",
    "active_jobs",
    "admitted_total",
    "queued_total",
    "rejected_total",
)


@dataclass(frozen=True)
class TenancyConfig:
    """Everything the coordinator needs, as plain data."""

    directory: TenantDirectory
    half_life_s: float = DEFAULT_HALF_LIFE_S
    usage_norm_ws: float = DEFAULT_USAGE_NORM_WS
    #: Accounting/fairshare refresh period (simulated seconds).
    accounting_interval_s: float = 10.0
    admission: Optional[AdmissionConfig] = None


@dataclass(frozen=True)
class AdmissionRecord:
    """One logged admission decision with its pure replay inputs."""

    t: float
    user: str
    project: str
    nnodes: int
    committed_w: float
    queue_depth: int
    known_tenant: bool
    decision: AdmissionDecision
    #: True when this admit released a previously queued spec.
    released: bool = False
    jobid: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": self.t,
            "user": self.user,
            "project": self.project,
            "nnodes": self.nnodes,
            "committed_w": self.committed_w,
            "queue_depth": self.queue_depth,
            "known_tenant": self.known_tenant,
            "decision": self.decision.to_dict(),
            "released": self.released,
            "jobid": self.jobid,
        }


@dataclass
class _QueuedSpec:
    spec: Jobspec
    project: str
    user: str


class TenancyCoordinator:
    """Attaches tenancy to one cluster; see the module docstring."""

    def __init__(self, cluster, config: TenancyConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.directory = config.directory
        self.ledger = UsageLedger(half_life_s=config.half_life_s)
        #: Cached per-project effective weights; refreshed every
        #: accounting tick, read by the manager's split in between so
        #: allocation is a pure function of the last tick's state.
        self._weights: Dict[str, float] = {
            p: self.directory.base_weight(p) for p in self.directory.projects()
        }
        self.decisions: List[AdmissionRecord] = []
        self._queue: List[_QueuedSpec] = []
        #: jobid → reserved admission demand (W), held until the job
        #: leaves the active states.
        self._admitted_demand: Dict[int, float] = {}
        self.submissions_total = 0
        self.counts: Dict[str, int] = {"admit": 0, "queue": 0, "reject": 0}
        self._project_counts: Dict[str, Dict[str, int]] = {}
        self.accounting_ticks = 0

        root = self._root()
        if root is not None:
            root.job_weights = self.job_weights
        self._tick_event = cluster.sim.schedule_periodic(
            config.accounting_interval_s,
            self._accounting_tick,
            start_delay=config.accounting_interval_s,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.cluster.sim

    @property
    def admission_enabled(self) -> bool:
        return self.config.admission is not None

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def _root(self):
        manager = self.cluster.manager
        return None if manager is None else manager.cluster

    def _node_peak_w(self) -> float:
        root = self._root()
        return 3050.0 if root is None else root.config.node_peak_w

    # ------------------------------------------------------------------
    # Tenant resolution
    # ------------------------------------------------------------------
    def project_of_spec(self, spec: Jobspec) -> str:
        return self.directory.resolve(
            spec.user, getattr(spec, "project", None)
        ).project

    def project_of_job(self, jobid: int) -> str:
        record = self.cluster.instance.jobmanager.jobs.get(jobid)
        if record is None:
            return UNAFFILIATED
        return self.project_of_spec(record.spec)

    def job_weights(self, job_nodes) -> Dict[int, float]:
        """Fairshare weight per job: its project's cached effective
        weight (what the manager's split and the checkers both use)."""
        return {
            jobid: self._weights.get(self.project_of_job(jobid), 1.0)
            for jobid in job_nodes
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _committed_w(self) -> float:
        """Reservation held by admitted jobs still in active states."""
        books = self.cluster.instance.jobmanager.jobs
        total = 0.0
        for jobid, demand_w in self._admitted_demand.items():
            record = books.get(jobid)
            if record is not None and record.state.active:
                total += demand_w
        return total

    def _log_decision(
        self,
        spec: Jobspec,
        project: str,
        committed_w: float,
        queue_depth: int,
        known: bool,
        decision: AdmissionDecision,
        released: bool,
        jobid: Optional[int],
    ) -> None:
        self.decisions.append(
            AdmissionRecord(
                t=self.sim.now,
                user=spec.user,
                project=project,
                nnodes=spec.nnodes,
                committed_w=committed_w,
                queue_depth=queue_depth,
                known_tenant=known,
                decision=decision,
                released=released,
                jobid=jobid,
            )
        )
        self.counts[decision.action] += 1
        per = self._project_counts.setdefault(
            project, {"admit": 0, "queue": 0, "reject": 0}
        )
        per[decision.action] += 1
        self.cluster.telemetry_hub.metrics.counter(
            "tenant_admission_decisions_total",
            {"action": decision.action},
            help="admission decisions by action (admit/queue/reject)",
        ).inc()

    def submit(self, spec: Jobspec, depends_on=None) -> Optional[JobRecord]:
        """Submission front door. Returns the job record when admitted,
        None when queued or rejected (``last_decision`` tells which)."""
        if depends_on is not None:
            # Dependency chains ride on an already-admitted ancestor;
            # admission applies to the chain head only.
            return self.cluster.instance.submit(spec, depends_on=depends_on)
        self.submissions_total += 1
        project = self.project_of_spec(spec)
        admission = self.config.admission
        if admission is None:
            return self.cluster.instance.submit(spec)
        committed_w = self._committed_w()
        queue_depth = len(self._queue)
        known = self.directory.knows_user(spec.user)
        decision = decide(
            admission, spec.nnodes, committed_w, queue_depth, known_tenant=known
        )
        if decision.action == ADMIT:
            record = self.cluster.instance.submit(spec)
            self._admitted_demand[record.jobid] = decision.demand_w
            self._log_decision(
                spec, project, committed_w, queue_depth, known, decision,
                released=False, jobid=record.jobid,
            )
            return record
        self._log_decision(
            spec, project, committed_w, queue_depth, known, decision,
            released=False, jobid=None,
        )
        if decision.action == QUEUE:
            self._queue.append(_QueuedSpec(spec=spec, project=project, user=spec.user))
        return None

    @property
    def last_decision(self) -> Optional[AdmissionDecision]:
        return self.decisions[-1].decision if self.decisions else None

    def _release_queue(self) -> None:
        """Admit queued specs FIFO while the head's reservation fits.

        Strict FIFO (no bypass): determinism and no-starvation beat
        packing efficiency here. The head always drains eventually —
        infeasible jobs were rejected at the door, so once running jobs
        finish the head's reservation fits an idle system.
        """
        admission = self.config.admission
        if admission is None:
            return
        while self._queue:
            head = self._queue[0]
            committed_w = self._committed_w()
            queue_depth = len(self._queue) - 1
            known = self.directory.knows_user(head.user)
            decision = decide(
                admission, head.spec.nnodes, committed_w, queue_depth,
                known_tenant=known,
            )
            if decision.action != ADMIT:
                break
            self._queue.pop(0)
            record = self.cluster.instance.submit(head.spec)
            self._admitted_demand[record.jobid] = decision.demand_w
            self._log_decision(
                head.spec, head.project, committed_w, queue_depth, known,
                decision, released=True, jobid=record.jobid,
            )

    def drained(self) -> bool:
        """True once every submission has been decided and no spec is
        still waiting in the admission queue."""
        return not self._queue

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _granted_by_project(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """(granted watts, active job count) per project, from the
        manager's live books (falling back to the job manager when no
        power manager is attached)."""
        granted: Dict[str, float] = {}
        active: Dict[str, int] = {}
        peak = self._node_peak_w()
        root = self._root()
        if root is not None:
            for jobid, state in root.job_level.jobs.items():
                project = self.project_of_job(jobid)
                watts = (
                    state.job_limit_w
                    if state.job_limit_w is not None
                    else peak * len(state.ranks)
                )
                granted[project] = granted.get(project, 0.0) + watts
                active[project] = active.get(project, 0) + 1
        else:
            for record in self.cluster.instance.jobmanager.running_jobs():
                project = self.project_of_spec(record.spec)
                granted[project] = granted.get(project, 0.0) + peak * record.spec.nnodes
                active[project] = active.get(project, 0) + 1
        return granted, active

    def _accounting_tick(self) -> None:
        now = self.sim.now
        granted, active = self._granted_by_project()
        for project in sorted(granted):
            watts = granted[project]
            if watts > 0.0:
                self.ledger.charge(
                    project, watts, self.config.accounting_interval_s, now
                )
        # Refresh effective weights from the decayed ledger.
        projects = sorted(set(self.directory.projects()) | set(self.ledger.projects()))
        self._weights = {
            p: effective_weight(
                self.directory.base_weight(p),
                self.ledger.decayed(p, now),
                self.config.usage_norm_ws,
            )
            for p in projects
        }
        metrics = self.cluster.telemetry_hub.metrics
        for p in projects:
            labels = {"project": p}
            metrics.gauge(
                "tenant_usage_ws", labels,
                help="decayed fairshare usage (watt-seconds) per project",
            ).set(self.ledger.decayed(p, now))
            metrics.gauge(
                "tenant_effective_weight", labels,
                help="usage-discounted fairshare weight per project",
            ).set(self._weights[p])
            metrics.gauge(
                "tenant_granted_w", labels,
                help="power currently granted to the project's jobs",
            ).set(granted.get(p, 0.0))
            metrics.gauge(
                "tenant_active_jobs", labels,
                help="jobs of the project currently in the manager's books",
            ).set(active.get(p, 0))
        metrics.counter(
            "tenant_accounting_ticks_total",
            help="fairshare accounting/refresh ticks",
        ).inc()
        self.accounting_ticks += 1
        self._release_queue()
        # Re-fill job limits under the refreshed weights.
        root = self._root()
        if root is not None and root.config.policy != "static":
            root.recompute()

    # ------------------------------------------------------------------
    # Views / export
    # ------------------------------------------------------------------
    def accounting_rows(self) -> List[Dict[str, Any]]:
        """Per-project accounting rows, sorted by project name."""
        now = self.sim.now
        granted, active = self._granted_by_project()
        projects = sorted(set(self.directory.projects()) | set(self.ledger.projects()))
        rows = []
        for p in projects:
            meta = self.directory.project(p)
            per = self._project_counts.get(p, {})
            rows.append(
                {
                    "project": p,
                    "account": meta.account if meta is not None else "default",
                    "weight": self.directory.base_weight(p),
                    "effective_weight": self._weights.get(
                        p, self.directory.base_weight(p)
                    ),
                    "usage_ws": self.ledger.decayed(p, now),
                    "lifetime_ws": self.ledger.lifetime(p),
                    "granted_w": granted.get(p, 0.0),
                    "active_jobs": active.get(p, 0),
                    "admitted_total": per.get("admit", 0),
                    "queued_total": per.get("queue", 0),
                    "rejected_total": per.get("reject", 0),
                }
            )
        return rows

    def accounting_csv(self) -> str:
        """Deterministic CSV export: same seed → byte-identical text."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(ACCOUNTING_CSV_FIELDS))
        writer.writeheader()
        for row in self.accounting_rows():
            out = dict(row)
            for key in ("weight", "effective_weight", "usage_ws",
                        "lifetime_ws", "granted_w"):
                out[key] = f"{out[key]:.6f}"
            writer.writerow(out)
        return buf.getvalue()

    def digest_summary(self) -> Dict[str, Any]:
        """Canonical tenancy section for the simtest run digest."""
        return {
            "projects": {
                row["project"]: {
                    "usage_ws": row["usage_ws"],
                    "lifetime_ws": row["lifetime_ws"],
                    "effective_weight": row["effective_weight"],
                    "admitted_total": row["admitted_total"],
                    "queued_total": row["queued_total"],
                    "rejected_total": row["rejected_total"],
                }
                for row in self.accounting_rows()
            },
            "counts": dict(self.counts),
            "submissions_total": self.submissions_total,
            "queue_len": len(self._queue),
            "accounting_ticks": self.accounting_ticks,
        }
