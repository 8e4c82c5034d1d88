"""Run one federated scenario under site- and cluster-tier checkers.

Builds a :class:`~repro.federation.FederatedSite` from a
:class:`~repro.simtest.federation.scenario.FederatedScenario`, schedules
every cluster's job arrivals, the site budget schedule and per-cluster
fault campaigns, then runs the single-cluster harness's run loop
(:func:`repro.simtest.harness.run_checked`) with these check groups:

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

from typing import Any, Dict, List, Optional

from repro.federation import ClusterSpec, FederatedSite, SiteConfig
from repro.flux.jobspec import Jobspec
from repro.monitor.client import JobPowerData
from repro.simkernel.canonical import canonical_digest
from repro.simtest.harness import (
    DIGEST_COUNTERS,
    SimtestResult,
    counter_totals,
    job_rows,
    run_checked,
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
    site_checkers,
)
from repro.simtest.federation.scenario import (
    FederatedScenario,
    generate_federated_scenario,
)
from repro.simtest.fuzzer import Tier

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
    setup=None,
) -> SimtestResult:
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
    result = SimtestResult(scenario=scenario)
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

    # Invariant tick, run, end-of-run checks ------------------------------
    # The site checkers see the whole site; one fresh set of cluster
    # checkers runs per member view; the engine/counter checkers run
    # once, on the first view (engine and metrics are shared), and only
    # per tick.
    groups = [(ctx, checkers)] + [
        (ctx.views[name], _cluster_checkers()) for name in sorted(site.clusters)
    ]
    shared = [MonotonicCountersChecker(), EngineChecker()]
    run_checked(
        ctx, result,
        pending=lambda: not site.all_complete(),
        drain=lambda: site.run_for(scenario.drain_s),
        tick_groups=groups + [(next(iter(ctx.views.values())), shared)],
        end_groups=groups,
        fetches=[
            (name, view.cluster, view.job_telemetry)
            for name, view in ctx.views.items()
        ],
    )

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
        "clusters": {
            name: {
                "jobs": job_rows(site.clusters[name]),
                "faults": list(site.clusters[name].faults.injected),
            }
            for name in sorted(site.clusters)
        },
        "rebalances": [
            {"t": t, "reason": reason, "shares": shares, "live": list(live)}
            for t, reason, shares, live in site.budget_log
        ],
        "counters": counter_totals(
            site.telemetry.metrics,
            DIGEST_COUNTERS + FEDERATION_DIGEST_COUNTERS,
        ),
        "violations": [v.to_dict() for v in result.violations],
    }
    result.digest = canonical_digest(summary)
    return result


#: The site tier (``repro federate``): federated scenarios are already
#: small (2–4 clusters), so violating seeds are written out unshrunk.
FEDERATED_TIER = Tier(
    name="federate",
    scenario_cls=FederatedScenario,
    generate=generate_federated_scenario,
    run=run_federated_scenario,
)
