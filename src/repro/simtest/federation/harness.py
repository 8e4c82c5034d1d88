"""Run one federated scenario under site- and cluster-tier checkers.

Builds a :class:`~repro.federation.FederatedSite` from a
:class:`~repro.simtest.federation.scenario.FederatedScenario`, schedules
every cluster's job arrivals, the site budget schedule and per-cluster
fault campaigns, then interleaves a periodic check tick exactly like the
single-cluster harness (:mod:`repro.simtest.harness`):

* the **site checkers** (``site_budget``, ``floor_ceiling``) see a
  :class:`FederatedSimtestContext` with the whole site;
* the existing **cluster checkers** run unchanged, one fresh set per
  member cluster, each over a per-cluster view — the federation tier
  must not break any single-cluster property;
* engine/counter checkers run once (the engine and the telemetry hub
  are shared across the site).

The result digest follows the same canonical-JSON/SHA-256 contract, now
also covering the site's rebalance timeline, so ``repro federate
--expect-digest`` pins cross-cluster behaviour byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.federation import ClusterSpec, FederatedSite, SiteConfig
from repro.flux.jobspec import Jobspec
from repro.monitor.client import JobPowerData
from repro.simkernel.canonical import canonical_digest
from repro.simtest.harness import (
    DEFAULT_CHECK_INTERVAL_S,
    DEFAULT_MAX_EVENTS,
    DEFAULT_TIMEOUT_S,
    DIGEST_COUNTERS,
)
from repro.simtest.invariants import (
    BudgetChecker,
    BufferChecker,
    CapRangeChecker,
    EngineChecker,
    InvariantChecker,
    LifecycleChecker,
    MonotonicCountersChecker,
    OrphanShareChecker,
    ShareSplitChecker,
    TelemetryRowsChecker,
    Violation,
    site_checkers,
)
from repro.simtest.federation.scenario import FederatedScenario

#: Federation counters folded into the digest alongside the
#: single-cluster :data:`~repro.simtest.harness.DIGEST_COUNTERS`.
FEDERATION_DIGEST_COUNTERS = (
    "federation_rebalances_total",
    "federation_cluster_outages_total",
    "federation_cluster_recoveries_total",
    "federation_site_retunes_total",
)


class ClusterView:
    """Per-cluster adapter exposing the single-cluster checker surface
    (``cluster`` / ``sim`` / ``tick_index`` / ``job_telemetry``)."""

    def __init__(self, parent: "FederatedSimtestContext", name: str) -> None:
        self._parent = parent
        self.name = name
        self.cluster = parent.site.clusters[name]
        self.job_telemetry: Dict[int, JobPowerData] = {}

    @property
    def sim(self):
        return self._parent.site.sim

    @property
    def tick_index(self) -> int:
        return self._parent.tick_index


class FederatedSimtestContext:
    """What the site checkers see: the site plus harness bookkeeping."""

    def __init__(self, site: FederatedSite, scenario: FederatedScenario) -> None:
        self.site = site
        self.scenario = scenario
        self.tick_index = 0
        self.views: Dict[str, ClusterView] = {
            name: ClusterView(self, name) for name in sorted(site.clusters)
        }

    @property
    def sim(self):
        return self.site.sim


@dataclass
class FederatedSimtestResult:
    """Outcome of one federated scenario run."""

    scenario: FederatedScenario
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    makespan_s: Optional[float] = None
    n_ticks: int = 0
    events_processed: int = 0
    n_rebalances: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return (
                f"OK   {self.scenario.describe()} "
                f"digest={self.digest[:12]} ticks={self.n_ticks} "
                f"rebalances={self.n_rebalances}"
            )
        v = self.violations[0]
        return (
            f"FAIL {self.scenario.describe()} "
            f"[{v.invariant}] t={v.t:.3f}: {v.message}"
            + (f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else "")
        )


def _cluster_checkers() -> List[InvariantChecker]:
    """A fresh per-cluster checker set (engine/counter checkers are
    site-wide — the engine and metrics registry are shared — so they
    are attached once by the harness, not per cluster)."""
    return [
        ShareSplitChecker(),
        BudgetChecker(),
        CapRangeChecker(),
        BufferChecker(),
        OrphanShareChecker(),
        LifecycleChecker(),
        TelemetryRowsChecker(),
    ]


def _site_config(scenario: FederatedScenario) -> SiteConfig:
    return SiteConfig(
        site_budget_w=scenario.site_budget_w,
        rebalance_epoch_s=scenario.rebalance_epoch_s,
        clusters=tuple(
            ClusterSpec(
                name=c.name,
                platform=c.platform,
                n_nodes=c.n_nodes,
                fanout=c.fanout,
                monitor_strategy=c.monitor_strategy,
                policy=c.policy,
                static_node_cap_w=c.static_node_cap_w,
                node_peak_w=c.node_peak_w,
                min_share_w=c.min_share_w,
                max_share_w=c.max_share_w,
            )
            for c in scenario.clusters
        ),
    )


def run_federated_scenario(
    scenario: FederatedScenario,
    checkers: Optional[List[InvariantChecker]] = None,
    check_interval_s: float = DEFAULT_CHECK_INTERVAL_S,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    max_events: int = DEFAULT_MAX_EVENTS,
    setup=None,
) -> FederatedSimtestResult:
    """Execute ``scenario`` under site + per-cluster invariant checkers.

    ``checkers`` overrides the *site-tier* set only; the per-cluster and
    shared engine/counter checkers always run. ``setup(site, sim)``,
    when given, runs before the first event (the crash-recovery fuzz
    schedules its snapshot → wipe → restore cycle through it).
    """
    if checkers is None:
        checkers = site_checkers()

    site = FederatedSite(
        _site_config(scenario),
        seed=scenario.seed,
        fault_plans={
            c.name: plan
            for c in scenario.clusters
            if (plan := c.fault_plan()) is not None
        },
    )
    ctx = FederatedSimtestContext(site, scenario)
    result = FederatedSimtestResult(scenario=scenario)
    sim = site.sim
    if setup is not None:
        setup(site, sim)

    # Job arrivals -------------------------------------------------------
    for c in scenario.clusters:
        for entry in c.jobs:
            spec = Jobspec(
                app=entry.app,
                nnodes=min(entry.nnodes, c.n_nodes),
                params={"work_scale": entry.work_scale},
            )
            if entry.submit_t <= 0.0:
                site.submit(c.name, spec)
            else:
                site.submit_at(c.name, spec, entry.submit_t)

    # Site budget schedule -----------------------------------------------
    for t, w in scenario.site_budget_schedule:
        site.schedule_retune(t, w)

    # Invariant tick -----------------------------------------------------
    per_cluster = {name: _cluster_checkers() for name in sorted(site.clusters)}
    shared = [MonotonicCountersChecker(), EngineChecker()]

    def _tick() -> None:
        for checker in checkers:
            result.violations.extend(checker.check(ctx))
        for name, cluster_set in per_cluster.items():
            view = ctx.views[name]
            for checker in cluster_set:
                result.violations.extend(checker.check(view))
        first_view = next(iter(ctx.views.values()))
        for checker in shared:
            result.violations.extend(checker.check(first_view))
        ctx.tick_index += 1
        result.n_ticks += 1

    tick_event = sim.schedule_periodic(check_interval_s, _tick, start_delay=0.0)

    # Run ----------------------------------------------------------------
    deadline = sim.now + timeout_s
    count = 0
    timed_out = False
    while not site.all_complete():
        if not sim.step():
            result.violations.append(
                Violation(
                    invariant="engine", t=sim.now,
                    message="event heap drained with jobs still active",
                )
            )
            timed_out = True
            break
        count += 1
        if count > max_events or sim.now > deadline:
            result.violations.append(
                Violation(
                    invariant="liveness", t=sim.now,
                    message=(
                        f"jobs still active after {count} events / "
                        f"t={sim.now:.0f}s"
                    ),
                    details={"events": count},
                )
            )
            timed_out = True
            break
    if not timed_out:
        site.run_for(scenario.drain_s)
    tick_event.cancel()

    # End-of-run checks --------------------------------------------------
    if not timed_out:
        for name, view in ctx.views.items():
            cluster = view.cluster
            for jobid, run in cluster.instance.app_runs.items():
                if not run.finished:
                    continue
                try:
                    view.job_telemetry[jobid] = cluster.telemetry(jobid)
                except Exception as exc:  # noqa: BLE001 - a failed fetch IS a finding
                    result.violations.append(
                        Violation(
                            invariant="telemetry_fetch", t=sim.now,
                            message=(
                                f"telemetry fetch for {name} job {jobid} "
                                f"failed: {exc}"
                            ),
                            details={"cluster": name, "jobid": jobid,
                                     "error": str(exc)},
                        )
                    )
        for checker in checkers:
            result.violations.extend(checker.check(ctx))
            result.violations.extend(checker.at_end(ctx))
        for name, cluster_set in per_cluster.items():
            view = ctx.views[name]
            for checker in cluster_set:
                result.violations.extend(checker.check(view))
                result.violations.extend(checker.at_end(view))

    # Digest -------------------------------------------------------------
    makespans = [
        site.clusters[name].makespan_s() for name in sorted(site.clusters)
    ]
    known = [m for m in makespans if m is not None]
    result.makespan_s = max(known) if known else None
    result.events_processed = sim.events_processed
    result.n_rebalances = len(site.budget_log)
    summary: Dict[str, Any] = {
        "seed": scenario.seed,
        "scenario": scenario.to_dict(),
        "makespan_s": result.makespan_s,
        "t_end": sim.now,
        "clusters": {},
        "rebalances": [
            {"t": t, "reason": reason, "shares": shares, "live": list(live)}
            for t, reason, shares, live in site.budget_log
        ],
        "counters": {},
        "violations": [v.to_dict() for v in result.violations],
    }
    for name in sorted(site.clusters):
        cluster = site.clusters[name]
        jobs: Dict[str, Any] = {}
        for jobid, m in sorted(cluster.all_metrics().items()):
            jobs[str(jobid)] = {
                "runtime_s": m.runtime_s,
                "avg_node_power_w": m.avg_node_power_w,
                "avg_node_energy_kj": m.avg_node_energy_kj,
            }
        summary["clusters"][name] = {
            "jobs": jobs,
            "faults": list(cluster.faults.injected),
        }
    metrics = site.telemetry.metrics
    for counter in DIGEST_COUNTERS + FEDERATION_DIGEST_COUNTERS:
        total = sum(s.value for s in metrics.series_for(counter))
        summary["counters"][counter] = total
    result.digest = canonical_digest(summary)
    return result
