"""Unit tests for the center-level (site) manager — ISSUE 5 tentpole.

Covers: shared-engine bootstrapping, demand-weighted epoch rebalancing,
floors/ceilings, whole-cluster outage share reclaim + recovery via the
broker event path, site budget retunes, config validation, and the
federation telemetry catalog.
"""

from __future__ import annotations

import math

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.federation import ClusterSpec, FederatedSite, SiteConfig, create_site
from repro.flux.jobspec import Jobspec


def two_cluster_config(**site_kwargs):
    defaults = dict(
        site_budget_w=40_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=4,
                        static_node_cap_w=1950.0),
            ClusterSpec(name="beta", platform="tioga", n_nodes=3),
        ),
    )
    defaults.update(site_kwargs)
    return SiteConfig(**defaults)


def outage_plan(n_nodes, t=15.0, duration_s=30.0):
    return FaultPlan(events=[
        FaultEvent(t=t, kind="crash", rank=r, duration_s=duration_s)
        for r in range(1, n_nodes)
    ])


def test_clusters_share_one_engine_and_telemetry():
    site = FederatedSite(two_cluster_config(), seed=7)
    sims = {c.sim for c in site.clusters.values()}
    assert sims == {site.sim}
    hubs = {c.telemetry_hub for c in site.clusters.values()}
    assert hubs == {site.telemetry}


def test_hostnames_distinguish_sibling_clusters():
    config = SiteConfig(
        site_budget_w=10_000.0,
        clusters=(
            ClusterSpec(name="east", platform="lassen", n_nodes=2),
            ClusterSpec(name="west", platform="lassen", n_nodes=2),
        ),
    )
    site = FederatedSite(config, seed=0)
    assert [n.hostname for n in site.cluster("east").nodes] == ["east000", "east001"]
    assert [n.hostname for n in site.cluster("west").nodes] == ["west000", "west001"]


def test_initial_split_is_equal_when_idle():
    site = FederatedSite(two_cluster_config(), seed=7)
    assert site.assigned_shares == {"alpha": 20_000.0, "beta": 20_000.0}
    assert site.expected_total_w == 40_000.0


def test_epoch_rebalance_follows_demand():
    site = FederatedSite(two_cluster_config(), seed=7)
    site.submit("alpha", Jobspec(app="gemm", nnodes=3))
    site.submit("beta", Jobspec(app="lammps", nnodes=1))
    site.run_for(12.0)
    # demand weights 3:1 → shares 30k / 10k
    assert site.assigned_shares["alpha"] == pytest.approx(30_000.0)
    assert site.assigned_shares["beta"] == pytest.approx(10_000.0)
    # installed in the cluster managers, not just bookkeeping
    for name, share in site.assigned_shares.items():
        cfg = site.clusters[name].manager.cluster.config
        assert cfg.global_cap_w == pytest.approx(share)


def test_floor_and_ceiling_are_respected():
    config = SiteConfig(
        site_budget_w=40_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=4,
                        static_node_cap_w=1950.0, min_share_w=15_000.0),
            ClusterSpec(name="beta", platform="tioga", n_nodes=3,
                        max_share_w=18_000.0),
        ),
    )
    site = FederatedSite(config, seed=7)
    # All demand on beta: its proportional share would be the whole
    # budget, but alpha's floor and beta's ceiling both bind.
    site.submit("beta", Jobspec(app="lammps", nnodes=3))
    site.run_for(12.0)
    assert site.assigned_shares["alpha"] >= 15_000.0
    assert site.assigned_shares["beta"] <= 18_000.0
    # conservation with the ceiling slack flowing back to alpha
    assert sum(site.assigned_shares.values()) == pytest.approx(40_000.0)


def test_outage_reclaims_share_in_one_recompute():
    site = FederatedSite(
        two_cluster_config(), seed=3,
        fault_plans={"beta": outage_plan(3, t=15.0, duration_s=30.0)},
    )
    site.submit("alpha", Jobspec(app="gemm", nnodes=2))
    site.submit("beta", Jobspec(app="nqueens", nnodes=2))
    site.run_for(20.0)
    assert site.down_clusters == ["beta"]
    assert site.live_clusters == ["alpha"]
    assert site.assigned_shares["beta"] == 0.0
    assert site.assigned_shares["alpha"] == pytest.approx(40_000.0)
    outage_events = [e for e in site.budget_log if e[1] == "outage"]
    assert len(outage_events) == 1
    assert outage_events[0][0] == pytest.approx(15.0, abs=0.1)
    # the down cluster's manager is zeroed so stale state cannot spend
    beta_cfg = site.clusters["beta"].manager.cluster.config
    assert beta_cfg.global_cap_w == 0.0


def test_recovery_restores_cluster_to_the_split():
    site = FederatedSite(
        two_cluster_config(), seed=3,
        fault_plans={"beta": outage_plan(3, t=15.0, duration_s=30.0)},
    )
    site.submit("alpha", Jobspec(app="gemm", nnodes=2))
    site.run_for(60.0)
    assert site.down_clusters == []
    reasons = [e[1] for e in site.budget_log]
    assert "outage" in reasons and "recovery" in reasons
    recovery = next(e for e in site.budget_log if e[1] == "recovery")
    assert "beta" in recovery[3]  # back in the live set at the re-split
    metrics = site.telemetry.metrics
    outages = sum(
        s.value for s in metrics.series_for("federation_cluster_outages_total")
    )
    recoveries = sum(
        s.value
        for s in metrics.series_for("federation_cluster_recoveries_total")
    )
    assert outages == 1.0 and recoveries == 1.0


def test_partial_node_loss_is_not_an_outage():
    plan = FaultPlan(events=[FaultEvent(t=15.0, kind="crash", rank=1,
                                        duration_s=30.0)])
    site = FederatedSite(two_cluster_config(), seed=3,
                         fault_plans={"beta": plan})
    site.run_for(25.0)
    assert site.down_clusters == []
    assert not any(e[1] == "outage" for e in site.budget_log)


def test_site_retune_revalidates_floors_and_resplits():
    config = SiteConfig(
        site_budget_w=40_000.0,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=4,
                        static_node_cap_w=1950.0, min_share_w=10_000.0),
            ClusterSpec(name="beta", platform="tioga", n_nodes=3),
        ),
    )
    site = FederatedSite(config, seed=1)
    site.retune_site_budget(25_000.0)
    assert site.site_budget_w == 25_000.0
    assert sum(site.assigned_shares.values()) == pytest.approx(25_000.0)
    with pytest.raises(ValueError):
        site.retune_site_budget(5_000.0)  # below alpha's floor
    with pytest.raises(ValueError, match="finite"):
        site.retune_site_budget(math.nan)
    retunes = sum(
        s.value
        for s in site.telemetry.metrics.series_for("federation_site_retunes_total")
    )
    assert retunes == 1.0


@pytest.mark.parametrize("budget", [math.inf, math.nan])
def test_non_finite_site_budget_is_rejected(budget):
    """An infinite budget used to install ``{'a': inf, 'b': nan}`` as
    cluster caps, and a NaN budget installed 0.0 on every cluster."""
    config = SiteConfig(
        site_budget_w=budget,
        clusters=(
            ClusterSpec(name="a", platform="lassen", n_nodes=2),
            ClusterSpec(name="b", platform="tioga", n_nodes=2),
        ),
    )
    with pytest.raises(ValueError, match="finite"):
        FederatedSite(config, seed=0)


def test_schedule_retune_validates_at_call_time():
    """A bad scheduled budget fails when scheduled, not mid-run."""
    site = FederatedSite(two_cluster_config(), seed=0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            site.schedule_retune(5.0, bad)
    site.run_for(10.0)
    assert not any(e[1] == "retune" for e in site.budget_log)


def test_config_validation():
    with pytest.raises(ValueError):
        SiteConfig(site_budget_w=100.0, clusters=()).validate()
    with pytest.raises(ValueError):
        SiteConfig(
            site_budget_w=100.0,
            clusters=(ClusterSpec(name="a"), ClusterSpec(name="a")),
        ).validate()
    with pytest.raises(ValueError):
        SiteConfig(
            site_budget_w=100.0, rebalance_epoch_s=0.0,
            clusters=(ClusterSpec(name="a"),),
        ).validate()
    with pytest.raises(ValueError):
        SiteConfig(
            site_budget_w=100.0,
            clusters=(ClusterSpec(name="a", min_share_w=200.0),),
        ).validate()
    with pytest.raises(ValueError):
        FederatedSite(two_cluster_config(), seed=0,
                      fault_plans={"nope": FaultPlan(events=[])})


def test_jobs_complete_and_makespan_reported():
    site = FederatedSite(two_cluster_config(), seed=11)
    site.submit("alpha", Jobspec(app="gemm", nnodes=2))
    site.submit_at("beta", Jobspec(app="nqueens", nnodes=1), 5.0)
    t = site.run_until_complete()
    assert t > 5.0
    assert site.all_complete()
    for name in ("alpha", "beta"):
        assert site.clusters[name].makespan_s() is not None


def test_deferred_submissions_block_all_complete():
    site = FederatedSite(two_cluster_config(), seed=11)
    site.submit_at("alpha", Jobspec(app="nqueens", nnodes=1), 30.0)
    assert not site.all_complete()
    site.run_until_complete()
    assert site.all_complete()


def test_describe_reports_every_cluster():
    site = FederatedSite(two_cluster_config(), seed=0)
    d = site.describe()
    assert set(d["clusters"]) == {"alpha", "beta"}
    assert d["site_budget_w"] == 40_000.0
    assert d["clusters"]["alpha"]["platform"] == "lassen"


def test_per_cluster_seeds_are_independent():
    """Adding a cluster must not perturb an existing cluster's stream."""
    site2 = FederatedSite(two_cluster_config(), seed=42)
    config3 = SiteConfig(
        site_budget_w=40_000.0,
        clusters=two_cluster_config().clusters
        + (ClusterSpec(name="gamma", platform="tioga", n_nodes=2),),
    )
    site3 = FederatedSite(config3, seed=42)
    a2 = site2.cluster("alpha").instance.streams.seed
    a3 = site3.cluster("alpha").instance.streams.seed
    assert a2 == a3


# ----------------------------------------------------------------------
# Site digest
# ----------------------------------------------------------------------
def _digest_config() -> SiteConfig:
    return SiteConfig(
        site_budget_w=40_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=6,
                        node_peak_w=3050.0),
            ClusterSpec(name="beta", platform="tioga", n_nodes=4,
                        node_peak_w=3200.0, min_share_w=2000.0),
        ),
    )


def _retune_run(site: FederatedSite) -> FederatedSite:
    site.submit("alpha", Jobspec(app="gemm", nnodes=4))
    site.submit_at("alpha", Jobspec(app="lammps", nnodes=2), 13.0)
    site.submit("beta", Jobspec(app="gemm", nnodes=3))
    site.schedule_retune(25.0, 36_000.0)
    site.run_for(130.0)
    return site


def _outage_run() -> FederatedSite:
    # Crashes every crashable rank of a 3-node cluster at off-grid
    # instants, then restores them: a whole-cluster outage and recovery.
    plan = FaultPlan(events=[
        FaultEvent(t=17.3, kind="crash", rank=1),
        FaultEvent(t=17.9, kind="crash", rank=2),
        FaultEvent(t=44.1, kind="restart", rank=1),
        FaultEvent(t=46.7, kind="restart", rank=2),
    ])
    config = SiteConfig(
        site_budget_w=40_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=4,
                        node_peak_w=3050.0),
            ClusterSpec(name="beta", platform="lassen", n_nodes=3,
                        node_peak_w=3050.0),
        ),
    )
    site = FederatedSite(config, seed=7, fault_plans={"beta": plan})
    site.submit("alpha", Jobspec(app="gemm", nnodes=3))
    site.submit("beta", Jobspec(app="gemm", nnodes=2))
    site.submit_at("beta", Jobspec(app="lammps", nnodes=2), 55.0)
    site.run_for(140.0)
    return site


def test_site_digest_bytes_are_pinned():
    """Literal digests: the canonical JSON (``t_end``, ``rebalances``
    and per-cluster hashes under ``"shards"``) must not drift."""
    retune = _retune_run(FederatedSite(_digest_config(), seed=42))
    reasons = [r for _, r, _, _ in retune.budget_log]
    assert reasons[0] == "initial"
    assert "retune" in reasons and "epoch" in reasons
    assert retune.site_digest() == (
        "f592c7ce8094b6363b5afd4257d2f9d114c7698413cfe8fdd5d0a0b5e8dc8509"
    )
    outage = _outage_run()
    reasons = [r for _, r, _, _ in outage.budget_log]
    assert "outage" in reasons and "recovery" in reasons
    assert outage.site_digest() == (
        "5c981a510d440a74415596eed31ca3271357afad322019a7ee0b5d2c0b3af79d"
    )


def test_workload_changes_the_digest():
    # With jitter and sensor noise off, the run is seed-independent by
    # design; the digest must still separate different workloads.
    a = _retune_run(FederatedSite(_digest_config(), seed=1))
    b = FederatedSite(_digest_config(), seed=1)
    b.submit("alpha", Jobspec(app="gemm", nnodes=5))
    b.run_for(130.0)
    assert a.site_digest() != b.site_digest()


def test_create_site_is_the_federated_site():
    assert create_site is FederatedSite
