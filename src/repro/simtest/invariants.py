"""Runtime invariant checkers.

Each checker is a pure observer over a running
:class:`~repro.cluster.PowerManagedCluster`: it reads manager / monitor
/ telemetry state on every harness tick (and once at end of run) and
reports :class:`Violation` records. Checkers never mutate model state,
draw randomness or send messages, so attaching them cannot change what
the simulation does — only whether we notice it misbehaving.

The invariants encode the paper's implicit safety properties
(PAPER.md §III-B / §IV):

* ``budget``      — Σ job power limits never exceeds the cluster budget;
* ``share_split`` — a job's equal split is exact: node_limit × n_ranks
  == job_limit, and no share is negative;
* ``cap_range``   — every installed device cap lies inside the
  platform's capping range (e.g. the 100–300 W GPU window);
* ``buffer``      — ring-buffer timestamps are monotonic and occupancy
  bookkeeping is consistent;
* ``orphan_share``— a dead node's share does not survive ``node_died``
  (checked with a persistence grace, since the ``broker.down`` event
  takes one broadcast latency to reach the manager);
* ``lifecycle``   — power only flows to lifecycle-``available`` nodes:
  no job books a rank in ``maintenance``/``retired`` (exact — the
  drain is synchronous with the transition), and retired ranks' node
  managers release their limit within one settle tick;
* ``counters``    — telemetry counters never decrease;
* ``serving_view``— when a serving campaign is attached, the API's
  paginated job listing agrees exactly with the job-manager books and
  the manager-internal share split (no phantom, missing or duplicated
  jobs; limits match);
* ``engine``      — simulated time is monotonic and the event heap's
  live count stays sane;
* ``tenant_conservation`` — with a tenant mix attached, installed job
  limits equal the weighted water-fill recomputed independently from
  the coordinator's weights (and conserve the budget);
* ``tenant_no_starvation`` — every active job holds at least its
  fairshare floor ``min(peak·n, budget·wn·n/W)``; no tenant with
  demand is starved below entitlement;
* ``tenant_admission`` — the coordinator's admission log replays
  exactly through the pure ``decide()`` (same inputs → same decision),
  and at end of run the queue is drained and the admitted jobids are
  precisely the job-manager books;
* ``telemetry_rows`` (end of run) — client CSV rows are well-formed:
  component powers are non-negative and sum to at most the node power,
  and per-host timestamps are sorted and inside the job window.

Two additional checkers cover the federation (site) tier and run over a
:class:`~repro.simtest.federation.harness.FederatedSimtestContext`:

* ``site_budget``   — Σ budgets installed in live clusters never
  exceeds the site budget, and each rebalance conserves it exactly
  (to the binding ceiling total);
* ``floor_ceiling`` — no live cluster is ever capped below its min
  share floor or granted above its max ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.lifecycle.machine import MAINTENANCE, RETIRED
from repro.manager.node_manager import CAP_CLASSES

if TYPE_CHECKING:  # pragma: no cover
    from repro.simtest.harness import SimtestContext
    from repro.simtest.federation.harness import FederatedSimtestContext

#: Relative tolerance for float share arithmetic.
REL_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed during a run."""

    invariant: str
    t: float
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "t": self.t,
            "message": self.message,
            "details": self.details,
        }


class InvariantChecker:
    """Base class: override :meth:`check` (per tick) and/or :meth:`at_end`."""

    #: Stable identifier; violations carry it and the shrinker matches on it.
    name = "invariant"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        return []

    def at_end(self, ctx: "SimtestContext") -> List[Violation]:
        return []

    # Helper ------------------------------------------------------------
    def violation(self, ctx: "SimtestContext", message: str, **details: Any) -> Violation:
        return Violation(
            invariant=self.name, t=ctx.sim.now, message=message, details=details
        )


class ShareSplitChecker(InvariantChecker):
    """Equal split is exact and shares are never negative."""

    name = "share_split"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        out: List[Violation] = []
        manager = ctx.cluster.manager
        if manager is None:
            return out
        for jobid, state in manager.cluster.job_level.jobs.items():
            limit = state.job_limit_w
            if limit is None:
                continue
            if limit < 0:
                out.append(
                    self.violation(
                        ctx, f"job {jobid} has negative power limit {limit}",
                        jobid=jobid, job_limit_w=limit,
                    )
                )
                continue
            node_limit = state.node_limit_w
            if node_limit is None or node_limit < 0:
                out.append(
                    self.violation(
                        ctx, f"job {jobid} has negative node share {node_limit}",
                        jobid=jobid, node_limit_w=node_limit,
                    )
                )
                continue
            recombined = node_limit * len(state.ranks)
            if abs(recombined - limit) > REL_EPS * max(1.0, abs(limit)):
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid}: node share x ranks = {recombined:.6f} W "
                        f"!= job limit {limit:.6f} W",
                        jobid=jobid,
                        n_ranks=len(state.ranks),
                        node_limit_w=node_limit,
                        job_limit_w=limit,
                    )
                )
        return out


class BudgetChecker(InvariantChecker):
    """Σ job limits ≤ cluster budget (minus any idle-node reserve)."""

    name = "budget"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        manager = ctx.cluster.manager
        if manager is None:
            return []
        root = manager.cluster
        cfg = root.config
        if cfg.global_cap_w is None or cfg.policy == "static":
            return []
        total = 0.0
        any_limit = False
        for state in root.job_level.jobs.values():
            if state.job_limit_w is not None:
                any_limit = True
                total += state.job_limit_w
        if not any_limit:
            return []
        budget = cfg.global_cap_w
        if cfg.account_idle_nodes:
            idle = max(0, root.broker.overlay.size - root.job_level.active_node_count())
            budget = max(0.0, budget - idle * cfg.idle_node_w)
        if total > budget * (1.0 + REL_EPS) + REL_EPS:
            return [
                self.violation(
                    ctx,
                    f"sum of job limits {total:.3f} W exceeds budget {budget:.3f} W",
                    sum_job_limits_w=total,
                    budget_w=budget,
                    global_cap_w=cfg.global_cap_w,
                    jobs={
                        str(j): s.job_limit_w for j, s in root.job_level.jobs.items()
                    },
                )
            ]
        return []


class CapRangeChecker(InvariantChecker):
    """Installed device caps stay inside the platform capping range."""

    name = "cap_range"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        out: List[Violation] = []
        manager = ctx.cluster.manager
        if manager is None:
            return out
        for nm in manager.node_managers:
            broker = nm.broker
            if nm.name not in broker.modules or broker.modules[nm.name] is not nm:
                continue  # crashed / replaced manager: nothing installed
            for domain in CAP_CLASSES:
                lo, hi = nm.cap_range(domain)
                for i, cap in enumerate(nm._last_caps[domain]):
                    if cap is None:
                        continue
                    if cap < lo - REL_EPS or cap > hi + REL_EPS:
                        out.append(
                            self.violation(
                                ctx,
                                f"rank {broker.rank} {domain}{i} cap {cap:.2f} W "
                                f"outside [{lo:.0f}, {hi:.0f}] W",
                                rank=broker.rank, **{domain: i},
                                cap_w=cap, lo_w=lo, hi_w=hi,
                            )
                        )
            if nm.node_limit_w is not None and nm.node_limit_w <= 0:
                out.append(
                    self.violation(
                        ctx,
                        f"rank {broker.rank} holds non-positive node limit "
                        f"{nm.node_limit_w}",
                        rank=broker.rank, node_limit_w=nm.node_limit_w,
                    )
                )
        return out


class BufferChecker(InvariantChecker):
    """Ring buffers: monotonic timestamps, consistent occupancy math,
    at most one segment more than retained samples."""

    name = "buffer"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        out: List[Violation] = []
        monitor = ctx.cluster.monitor
        if monitor is None:
            return out
        for agent in monitor.node_agents:
            broker = agent.broker
            if agent.name not in broker.modules or broker.modules[agent.name] is not agent:
                continue
            buf = agent.buffer
            n = len(buf)
            if n > buf.capacity:
                out.append(
                    self.violation(
                        ctx,
                        f"rank {broker.rank} buffer holds {n} > capacity "
                        f"{buf.capacity}",
                        rank=broker.rank, len=n, capacity=buf.capacity,
                    )
                )
            if buf.total_appended < n or buf.dropped < 0:
                out.append(
                    self.violation(
                        ctx,
                        f"rank {broker.rank} buffer accounting inconsistent "
                        f"(appended={buf.total_appended}, retained={n})",
                        rank=broker.rank, appended=buf.total_appended, retained=n,
                    )
                )
            if len(buf.segments) > n + 1:
                out.append(
                    self.violation(
                        ctx,
                        f"rank {broker.rank} ring keeps {len(buf.segments)} "
                        f"segments for {n} retained samples",
                        rank=broker.rank, segments=len(buf.segments), len=n,
                    )
                )
            # The retained window's timestamps, read straight from the
            # ring's tick log: no sample dicts are built.
            end = buf.end
            times = buf.log.raw.data[end - n:end]
            back = np.flatnonzero(times[1:] < times[:-1])
            if back.size:
                k = int(back[0]) + 1
                ts, last = float(times[k]), float(times[k - 1])
                out.append(
                    self.violation(
                        ctx,
                        f"rank {broker.rank} buffer timestamps not "
                        f"monotonic ({ts} after {last})",
                        rank=broker.rank, ts=ts, prev=last,
                    )
                )
        return out


class OrphanShareChecker(InvariantChecker):
    """Dead ranks must leave every job's share within one settle tick.

    The crash → ``broker.down`` event → ``node_died`` chain crosses the
    TBON (milliseconds of simulated latency), so a dead rank may
    legitimately appear in job state for an instant. A rank that is
    still booked on the *second* consecutive tick has genuinely leaked.
    """

    name = "orphan_share"

    def __init__(self) -> None:
        self._suspect: Dict[int, int] = {}  # rank -> first-seen tick index

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        manager = ctx.cluster.manager
        if manager is None:
            return []
        down = ctx.cluster.instance.down_ranks
        booked: Dict[int, List[int]] = {}
        for jobid, state in manager.cluster.job_level.jobs.items():
            for rank in state.ranks:
                if rank in down:
                    booked.setdefault(rank, []).append(jobid)
        out: List[Violation] = []
        for rank, jobids in booked.items():
            first = self._suspect.setdefault(rank, ctx.tick_index)
            if ctx.tick_index > first:
                out.append(
                    self.violation(
                        ctx,
                        f"dead rank {rank} still holds a share in jobs "
                        f"{jobids} one settle tick after going down",
                        rank=rank, jobs=jobids,
                    )
                )
        for rank in list(self._suspect):
            if rank not in booked:
                del self._suspect[rank]
        return out


class LifecycleChecker(InvariantChecker):
    """Power shares only flow to lifecycle-``available`` nodes.

    The booking check is exact (no settle grace): the cluster manager
    transitions lifecycle state and drains the books in the *same*
    event, so a booked rank in ``maintenance``/``retired`` is a bug at
    the very tick it appears. The retired-cap check allows one settle
    tick, because the drain's departure RPC crosses the TBON before the
    node manager releases its limit. ``degraded`` is exempt from the
    booking check here; the orphan-share checker owns that transient.
    """

    name = "lifecycle"

    def __init__(self) -> None:
        self._capped: Dict[int, int] = {}  # retired rank -> first-seen tick

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        manager = ctx.cluster.manager
        if manager is None:
            return []
        lifecycle = getattr(manager.cluster, "lifecycle", None)
        if lifecycle is None:
            return []
        out: List[Violation] = []
        for jobid, state in manager.cluster.job_level.jobs.items():
            for rank in state.ranks:
                rank_state = lifecycle.state_of(rank)
                if rank_state in (MAINTENANCE, RETIRED):
                    out.append(
                        self.violation(
                            ctx,
                            f"job {jobid} books rank {rank} in lifecycle "
                            f"state {rank_state!r}",
                            jobid=jobid, rank=rank, state=rank_state,
                        )
                    )
        capped_now: set = set()
        for rank in lifecycle.in_state(RETIRED):
            broker = ctx.cluster.instance.brokers[rank]
            nm = broker.modules.get("power-manager")
            if nm is not None and getattr(nm, "node_limit_w", None) is not None:
                capped_now.add(rank)
                first = self._capped.setdefault(rank, ctx.tick_index)
                if ctx.tick_index > first:
                    out.append(
                        self.violation(
                            ctx,
                            f"retired rank {rank} still holds node limit "
                            f"{nm.node_limit_w} one settle tick after "
                            f"retirement",
                            rank=rank, node_limit_w=nm.node_limit_w,
                        )
                    )
        for rank in list(self._capped):
            if rank not in capped_now:
                del self._capped[rank]
        return out


class MonotonicCountersChecker(InvariantChecker):
    """Telemetry counters never decrease between ticks."""

    name = "counters"

    def __init__(self) -> None:
        self._last: Dict[Any, float] = {}

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        out: List[Violation] = []
        metrics = ctx.cluster.telemetry_hub.metrics
        for name in metrics.names():
            for series in metrics.series_for(name):
                if series.kind != "counter":
                    continue
                key = (name, tuple(sorted(series.labels.items())))
                value = series.value
                prev = self._last.get(key)
                if prev is not None and value < prev:
                    out.append(
                        self.violation(
                            ctx,
                            f"counter {name}{series.labels} decreased "
                            f"{prev} -> {value}",
                            counter=name, labels=series.labels,
                            prev=prev, value=value,
                        )
                    )
                self._last[key] = value
        return out


class EngineChecker(InvariantChecker):
    """Simulated time is monotonic; engine bookkeeping stays sane."""

    name = "engine"

    def __init__(self) -> None:
        self._last_now: Optional[float] = None
        self._last_processed = 0

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        out: List[Violation] = []
        sim = ctx.sim
        if self._last_now is not None and sim.now < self._last_now:
            out.append(
                self.violation(
                    ctx, f"time went backwards: {self._last_now} -> {sim.now}",
                    prev=self._last_now, now=sim.now,
                )
            )
        if sim.events_processed < self._last_processed:
            out.append(
                self.violation(
                    ctx, "events_processed decreased",
                    prev=self._last_processed, now=sim.events_processed,
                )
            )
        if sim.pending() < 0:
            out.append(
                self.violation(ctx, f"negative pending() = {sim.pending()}")
            )
        self._last_now = sim.now
        self._last_processed = sim.events_processed
        return out


class TelemetryRowsChecker(InvariantChecker):
    """End of run: fetched job CSVs are physically sensible."""

    name = "telemetry_rows"

    #: The variorum backends round every domain field to 3 decimals
    #: independently, so Σ components can exceed the rounded node power
    #: by a few mW. Real conservation bugs are watts, not milliwatts.
    QUANT_EPS_W = 0.05

    def at_end(self, ctx: "SimtestContext") -> List[Violation]:
        out: List[Violation] = []
        for jobid, data in ctx.job_telemetry.items():
            last_ts: Dict[str, float] = {}
            for row in data.rows:
                host = row["hostname"]
                comps = row["cpu_w"] + row["mem_w"] + row["gpu_w"]
                if min(row["cpu_w"], row["mem_w"], row["gpu_w"], row["node_w"]) < 0:
                    out.append(
                        self.violation(
                            ctx, f"job {jobid} {host}: negative power reading",
                            jobid=jobid, host=host, row=dict(row),
                        )
                    )
                elif comps > row["node_w"] * (1.0 + 1e-6) + self.QUANT_EPS_W:
                    out.append(
                        self.violation(
                            ctx,
                            f"job {jobid} {host}: components {comps:.3f} W exceed "
                            f"node power {row['node_w']:.3f} W",
                            jobid=jobid, host=host, components_w=comps,
                            node_w=row["node_w"],
                        )
                    )
                prev = last_ts.get(host, -math.inf)
                if row["timestamp"] < prev:
                    out.append(
                        self.violation(
                            ctx,
                            f"job {jobid} {host}: timestamps out of order",
                            jobid=jobid, host=host, ts=row["timestamp"], prev=prev,
                        )
                    )
                last_ts[host] = row["timestamp"]
        return out


class ServingViewChecker(InvariantChecker):
    """API job views agree with manager-internal books and shares.

    Active only when the harness attached a serving-tier
    :class:`~repro.serving.service.PowerService` to the context
    (``scenario.serving``); a no-op otherwise, so it can sit in the
    default set without cost. It pages through the detailed job listing
    with the scenario's ``page_limit`` and cross-checks every view
    against the job manager's books (id set, state, node counts, rank
    assignment) and the power manager's share split
    (``job_limit_w`` / ``node_limit_w``). Service reads never step the
    simulator, so the checker remains a pure observer.
    """

    name = "serving_view"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        service = getattr(ctx, "service", None)
        if service is None:
            return []
        out: List[Violation] = []
        mix = getattr(ctx.scenario, "serving", None)
        limit = mix.page_limit if mix is not None else 100

        views: Dict[int, Dict[str, Any]] = {}
        offset = 0
        while True:
            resp = service.handle(
                "GET", "/v1/clusters/default/jobs",
                {"response_format": "detailed", "limit": limit,
                 "offset": offset},
            )
            if resp.status != 200:
                out.append(
                    self.violation(
                        ctx, f"job listing returned {resp.status}",
                        status=resp.status, body=resp.body,
                    )
                )
                return out
            for view in resp.body["jobs"]:
                jobid = view["jobid"]
                if jobid in views:
                    out.append(
                        self.violation(
                            ctx, f"job {jobid} appears on two pages",
                            jobid=jobid, offset=offset,
                        )
                    )
                views[jobid] = view
            if resp.body["next_offset"] is None:
                break
            offset = resp.body["next_offset"]

        books = ctx.cluster.instance.jobmanager.jobs
        if set(views) != set(books):
            out.append(
                self.violation(
                    ctx, "API job listing disagrees with job-manager books",
                    api_only=sorted(set(views) - set(books)),
                    books_only=sorted(set(books) - set(views)),
                )
            )
        manager = ctx.cluster.manager
        shares = manager.cluster.job_level.jobs if manager is not None else {}
        for jobid, view in views.items():
            record = books.get(jobid)
            if record is None:
                continue
            if view["state"] != record.state.value:
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid} API state {view['state']!r} != "
                        f"books state {record.state.value!r}",
                        jobid=jobid, api=view["state"],
                        books=record.state.value,
                    )
                )
            if view["nnodes"] != record.spec.nnodes \
                    or view["ranks"] != list(record.ranks):
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid} API placement disagrees with books",
                        jobid=jobid, api_nnodes=view["nnodes"],
                        api_ranks=view["ranks"],
                        books_nnodes=record.spec.nnodes,
                        books_ranks=list(record.ranks),
                    )
                )
            share = shares.get(jobid)
            expect_job = share.job_limit_w if share is not None else None
            expect_node = share.node_limit_w if share is not None else None
            if view["job_limit_w"] != expect_job \
                    or view["node_limit_w"] != expect_node:
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid} API limits "
                        f"({view['job_limit_w']}, {view['node_limit_w']}) != "
                        f"manager shares ({expect_job}, {expect_node})",
                        jobid=jobid,
                        api_job_limit_w=view["job_limit_w"],
                        api_node_limit_w=view["node_limit_w"],
                        manager_job_limit_w=expect_job,
                        manager_node_limit_w=expect_node,
                    )
                )
        return out


class TenantConservationChecker(InvariantChecker):
    """Installed job limits match the weighted water-fill, recomputed.

    Active only when the cluster carries a tenancy coordinator whose
    weight source is installed on the manager; a no-op otherwise. The
    checker reruns :func:`~repro.tenancy.fairshare.split_budget_weighted`
    over the manager's live books and the coordinator's cached weights —
    the same pure inputs the manager's ``recompute`` used — so any drift
    (a buggy weight source, a stale weight cache, a missed recompute)
    shows up as a per-job mismatch or a conservation breach.
    """

    name = "tenant_conservation"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        coord = getattr(ctx.cluster, "tenancy", None)
        manager = ctx.cluster.manager
        if coord is None or manager is None:
            return []
        root = manager.cluster
        if root.job_weights is None or root.config.policy == "static":
            return []
        if root.config.global_cap_w is None:
            return []
        if root.per_node_share_w() is None:
            return []  # no active nodes: limits are legitimately None
        from repro.tenancy.fairshare import split_budget_weighted

        job_nodes = {
            jobid: len(state.ranks)
            for jobid, state in root.job_level.jobs.items()
        }
        if not job_nodes:
            return []
        budget = root.effective_budget_w()
        expected = split_budget_weighted(
            budget, job_nodes, root.config.node_peak_w,
            coord.job_weights(job_nodes),
        )
        out: List[Violation] = []
        total = 0.0
        for jobid, state in root.job_level.jobs.items():
            limit = state.job_limit_w
            if limit is None:
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid} has no power limit under the "
                        f"fairshare split",
                        jobid=jobid,
                    )
                )
                continue
            total += limit
            want = expected[jobid]
            if abs(limit - want) > REL_EPS * max(1.0, abs(want)):
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid} limit {limit:.6f} W != weighted "
                        f"water-fill {want:.6f} W",
                        jobid=jobid, installed_w=limit, expected_w=want,
                        weights=coord.job_weights(job_nodes),
                    )
                )
        cap = root.config.node_peak_w * sum(job_nodes.values())
        conserve = min(float(budget), cap)
        if total > conserve * (1.0 + REL_EPS) + REL_EPS:
            out.append(
                self.violation(
                    ctx,
                    f"weighted limits total {total:.6f} W exceeds "
                    f"min(budget, peak demand) {conserve:.6f} W",
                    total_w=total, conserve_w=conserve, budget_w=budget,
                )
            )
        return out


class TenantFloorChecker(InvariantChecker):
    """No-starvation: every active job holds at least its fairshare floor.

    The floor is the first-round weighted proportional rate capped at
    peak (:func:`~repro.tenancy.fairshare.fair_floor_w`); the water-fill
    provably never allocates below it, so a breach means a tenant is
    being starved below entitlement.
    """

    name = "tenant_no_starvation"

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        coord = getattr(ctx.cluster, "tenancy", None)
        manager = ctx.cluster.manager
        if coord is None or manager is None:
            return []
        root = manager.cluster
        if root.job_weights is None or root.config.policy == "static":
            return []
        if root.config.global_cap_w is None or root.per_node_share_w() is None:
            return []
        from repro.tenancy.fairshare import fair_floor_w

        job_nodes = {
            jobid: len(state.ranks)
            for jobid, state in root.job_level.jobs.items()
        }
        if not job_nodes:
            return []
        floors = fair_floor_w(
            root.effective_budget_w(), job_nodes, root.config.node_peak_w,
            coord.job_weights(job_nodes),
        )
        out: List[Violation] = []
        for jobid, state in root.job_level.jobs.items():
            limit = state.job_limit_w
            if limit is None:
                continue  # conservation checker reports the miss
            floor = floors[jobid]
            if limit < floor * (1.0 - REL_EPS) - REL_EPS:
                project = coord.project_of_job(jobid)
                out.append(
                    self.violation(
                        ctx,
                        f"job {jobid} (project {project}) granted "
                        f"{limit:.6f} W below its fairshare floor "
                        f"{floor:.6f} W",
                        jobid=jobid, project=project,
                        granted_w=limit, floor_w=floor,
                    )
                )
        return out


class TenantAdmissionChecker(InvariantChecker):
    """Admission decisions are a pure function of their logged inputs.

    Replays every new :class:`~repro.tenancy.coordinator.AdmissionRecord`
    through :func:`~repro.tenancy.admission.decide` and demands the full
    decision (action, code, demand, committed, capacity) comes back
    identical. At end of run the queue must be drained and the admitted
    jobids must be exactly the job-manager's books — nothing snuck past
    the gate, nothing admitted got lost.
    """

    name = "tenant_admission"

    def __init__(self) -> None:
        self._replayed = 0

    def check(self, ctx: "SimtestContext") -> List[Violation]:
        coord = getattr(ctx.cluster, "tenancy", None)
        if coord is None or not coord.admission_enabled:
            return []
        from repro.tenancy.admission import decide

        admission = coord.config.admission
        out: List[Violation] = []
        for record in coord.decisions[self._replayed:]:
            expect = decide(
                admission, record.nnodes, record.committed_w,
                record.queue_depth, known_tenant=record.known_tenant,
            )
            if expect.to_dict() != record.decision.to_dict():
                out.append(
                    self.violation(
                        ctx,
                        f"admission decision at t={record.t:.3f} for "
                        f"{record.user!r} does not replay: logged "
                        f"{record.decision.action}/{record.decision.code}, "
                        f"replayed {expect.action}/{expect.code}",
                        logged=record.decision.to_dict(),
                        replayed=expect.to_dict(),
                        inputs=record.to_dict(),
                    )
                )
        self._replayed = len(coord.decisions)
        return out

    def at_end(self, ctx: "SimtestContext") -> List[Violation]:
        coord = getattr(ctx.cluster, "tenancy", None)
        if coord is None or not coord.admission_enabled:
            return []
        out: List[Violation] = []
        if not coord.drained():
            out.append(
                self.violation(
                    ctx,
                    f"admission queue still holds {coord.queue_len} "
                    f"spec(s) at end of run",
                    queue_len=coord.queue_len,
                )
            )
        admitted = {
            r.jobid for r in coord.decisions
            if r.decision.action == "admit" and r.jobid is not None
        }
        books = set(ctx.cluster.instance.jobmanager.jobs)
        if admitted != books:
            out.append(
                self.violation(
                    ctx,
                    "admitted jobids disagree with job-manager books",
                    admitted_only=sorted(admitted - books),
                    books_only=sorted(books - admitted),
                )
            )
        return out


class SiteBudgetChecker(InvariantChecker):
    """Site budget conservation (the federation tier's core safety).

    At every tick, the budgets *installed* in live clusters' managers
    must sum to at most the site budget; and the site manager's own
    rebalance snapshot must sum exactly (REL_EPS) to
    :func:`~repro.federation.rebalance.site_allocation_total_w` — the
    site budget, or the binding total of the live ceilings. Installed
    configs are read back from each cluster manager rather than trusted
    from the site's bookkeeping, so a drifted install is a finding.
    """

    name = "site_budget"

    def check(self, ctx: "FederatedSimtestContext") -> List[Violation]:
        out: List[Violation] = []
        site = ctx.site
        installed = 0.0
        for name in site.live_clusters:
            manager = site.clusters[name].manager
            if manager is None:
                continue
            cap = manager.cluster.config.global_cap_w
            if cap is not None:
                installed += cap
        budget = site.site_budget_w
        if installed > budget * (1.0 + REL_EPS) + REL_EPS:
            out.append(
                self.violation(
                    ctx,
                    f"installed cluster budgets {installed:.3f} W exceed "
                    f"site budget {budget:.3f} W",
                    installed_w=installed, site_budget_w=budget,
                    shares=dict(site.assigned_shares),
                )
            )
        assigned = sum(site.assigned_shares.values())
        expected = site.expected_total_w
        if abs(assigned - expected) > REL_EPS * max(1.0, abs(expected)):
            out.append(
                self.violation(
                    ctx,
                    f"rebalance at t={site.last_rebalance_t:.3f} assigned "
                    f"{assigned:.6f} W, expected exactly {expected:.6f} W",
                    assigned_w=assigned, expected_w=expected,
                    shares=dict(site.assigned_shares),
                )
            )
        return out


class ClusterFloorChecker(InvariantChecker):
    """Floor/ceiling respect: no live cluster outside ``[min, max]``.

    Reads the installed ``global_cap_w`` back from each live cluster's
    manager and compares against that cluster's spec. Down clusters are
    exempt (their share is reclaimed to zero by design).
    """

    name = "floor_ceiling"

    def check(self, ctx: "FederatedSimtestContext") -> List[Violation]:
        out: List[Violation] = []
        site = ctx.site
        for name in site.live_clusters:
            spec = site.specs[name]
            manager = site.clusters[name].manager
            if manager is None:
                continue
            cap = manager.cluster.config.global_cap_w
            if cap is None:
                continue  # first rebalance not yet applied
            lo = spec.min_share_w
            if cap < lo * (1.0 - REL_EPS) - REL_EPS:
                out.append(
                    self.violation(
                        ctx,
                        f"cluster {name} capped at {cap:.3f} W below its "
                        f"floor {lo:.3f} W",
                        cluster=name, cap_w=cap, floor_w=lo,
                    )
                )
            hi = spec.max_share_w
            if hi is not None and cap > hi * (1.0 + REL_EPS) + REL_EPS:
                out.append(
                    self.violation(
                        ctx,
                        f"cluster {name} granted {cap:.3f} W above its "
                        f"ceiling {hi:.3f} W",
                        cluster=name, cap_w=cap, ceiling_w=hi,
                    )
                )
        return out


def site_checkers() -> List[InvariantChecker]:
    """Fresh instances of the federation-tier (site-level) checkers."""
    return [SiteBudgetChecker(), ClusterFloorChecker()]


def default_checkers() -> List[InvariantChecker]:
    """A fresh set of every built-in checker (stateful ones included)."""
    return [
        ShareSplitChecker(),
        BudgetChecker(),
        CapRangeChecker(),
        BufferChecker(),
        OrphanShareChecker(),
        LifecycleChecker(),
        MonotonicCountersChecker(),
        ServingViewChecker(),
        TenantConservationChecker(),
        TenantFloorChecker(),
        TenantAdmissionChecker(),
        EngineChecker(),
        TelemetryRowsChecker(),
    ]
