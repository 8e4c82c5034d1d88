"""Pinned recovery-path regressions: dead-set bookkeeping must survive.

Two bug families this PR's sweep covers, each pinned both ways:

* **cluster tier** — a recovered rank (``broker.up``) must leave the
  manager's dead set and be booked into later jobs' shares, and a
  restore taken *while a rank is down* must preserve the dead set. A
  naive restore that drops the lifecycle section books shares to dead
  nodes again (demonstrated below against the stripped artifact).
* **site tier** — a whole-cluster flap (down → up inside one epoch)
  must clear the site's event-derived dead set before the next
  ``split_site_budget``, and that bookkeeping must survive a site
  restore taken mid-outage. A naive restore that drops it leaves the
  cluster permanently "never recovered" (no recovery re-split, ever).
"""

from __future__ import annotations

import json

from repro.faults import FaultEvent, FaultPlan
from repro.federation import ClusterSpec, FederatedSite, SiteConfig
from repro.flux.jobspec import Jobspec
from repro.lifecycle.machine import AVAILABLE, DEGRADED
from repro.lifecycle.snapshot import (
    restore_cluster,
    restore_site,
    snapshot_cluster,
    snapshot_site,
    wipe_cluster_state,
    wipe_site_state,
)
from repro.cluster import PowerManagedCluster
from repro.manager.cluster_manager import ManagerConfig
from repro.serving import ClusterRegistry, PowerService
from repro.simtest.federation.harness import run_federated_scenario
from repro.simtest.federation.scenario import ClusterScenario, FederatedScenario
from repro.simtest.scenario import JobEntry


def _counter_total(metrics, name: str) -> float:
    return sum(m.value for m in metrics.series_for(name))


def _capped_cluster(fault_plan=None, n_nodes: int = 8):
    return PowerManagedCluster(
        platform="lassen",
        n_nodes=n_nodes,
        seed=5,
        manager_config=ManagerConfig(
            global_cap_w=1500.0 * n_nodes,
            policy="proportional",
            static_node_cap_w=1950.0,
        ),
        fault_plan=fault_plan,
    )


def _running_job_ranks(cluster):
    jobs = cluster.manager.cluster.job_level.jobs
    assert len(jobs) == 1, f"expected one mid-flight job, got {sorted(jobs)}"
    return list(next(iter(jobs.values())).ranks)


# ----------------------------------------------------------------------
# Satellite: broker.up must re-admit the rank to future shares
# ----------------------------------------------------------------------
def test_recovered_rank_is_booked_into_later_jobs():
    # down at t=10, back at t=30; the job arrives well after recovery.
    plan = FaultPlan([FaultEvent(t=10.0, kind="crash", rank=3, duration_s=20.0)])
    cluster = _capped_cluster(plan)
    cluster.submit_at(
        Jobspec(app="gemm", nnodes=8, params={"work_scale": 6.0}), 40.0
    )
    cluster.run_for(46.0)
    root = cluster.manager.cluster
    assert root.down_ranks == frozenset()
    assert root.lifecycle.state_of(3) == AVAILABLE
    assert 3 in _running_job_ranks(cluster)
    metrics = cluster.telemetry_hub.metrics
    assert _counter_total(metrics, "manager_dead_ranks_skipped_total") == 0


def test_submit_while_down_excludes_the_dead_rank():
    plan = FaultPlan([FaultEvent(t=10.0, kind="crash", rank=3, duration_s=20.0)])
    cluster = _capped_cluster(plan)
    cluster.submit_at(
        Jobspec(app="gemm", nnodes=8, params={"work_scale": 6.0}), 15.0
    )
    cluster.run_for(20.0)
    root = cluster.manager.cluster
    assert root.down_ranks == frozenset({3})
    assert 3 not in _running_job_ranks(cluster)
    metrics = cluster.telemetry_hub.metrics
    assert _counter_total(metrics, "manager_dead_ranks_skipped_total") == 1


def test_restore_while_down_preserves_dead_set():
    plan = FaultPlan([FaultEvent(t=10.0, kind="crash", rank=3, duration_s=40.0)])
    cluster = _capped_cluster(plan)
    cluster.run_for(20.0)
    root = cluster.manager.cluster
    assert root.down_ranks == frozenset({3})

    snap = json.loads(json.dumps(snapshot_cluster(cluster)))
    wipe_cluster_state(cluster)
    assert root.down_ranks == frozenset()  # the wipe is amnesiac
    restore_cluster(cluster, snap)
    assert root.down_ranks == frozenset({3})
    assert root.lifecycle.state_of(3) == DEGRADED

    # ...and the revival at t=50 still lands on the restored books.
    cluster.run_for(35.0)
    assert root.down_ranks == frozenset()
    assert root.lifecycle.state_of(3) == AVAILABLE


def test_naive_restore_without_lifecycle_books_shares_to_dead_nodes():
    """The pre-fix failure: a restore that drops the lifecycle section.

    Restored mid-outage, the manager believes every rank is available,
    so a job submitted before the rank revives gets the dead rank
    booked into its share split — power paid to a node that cannot
    install the cap.
    """
    plan = FaultPlan([FaultEvent(t=10.0, kind="crash", rank=3, duration_s=40.0)])
    cluster = _capped_cluster(plan)
    cluster.run_for(20.0)
    root = cluster.manager.cluster

    snap = json.loads(json.dumps(snapshot_cluster(cluster)))
    del snap["manager"]["lifecycle"]
    wipe_cluster_state(cluster)
    restore_cluster(cluster, snap)
    assert root.down_ranks == frozenset()  # dead set silently lost

    cluster.submit(Jobspec(app="gemm", nnodes=8, params={"work_scale": 6.0}))
    cluster.run_for(5.0)
    assert 3 in _running_job_ranks(cluster)  # dead rank booked: the bug
    metrics = cluster.telemetry_hub.metrics
    assert _counter_total(metrics, "manager_dead_ranks_skipped_total") == 0


# ----------------------------------------------------------------------
# Satellite: site flap bookkeeping across epochs and restores
# ----------------------------------------------------------------------
def _flap_site(outage_duration_s: float):
    """Two 2-node clusters; east's sole crashable rank flaps at t=12."""
    config = SiteConfig(
        site_budget_w=12_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterSpec(name="east", platform="lassen", n_nodes=2,
                        static_node_cap_w=1950.0),
            ClusterSpec(name="west", platform="lassen", n_nodes=2,
                        static_node_cap_w=1950.0),
        ),
    )
    plan = FaultPlan([
        FaultEvent(t=12.0, kind="crash", rank=1, duration_s=outage_duration_s)
    ])
    return FederatedSite(config, seed=4, fault_plans={"east": plan})


def test_flap_within_one_epoch_clears_dead_set_before_next_split():
    site = _flap_site(outage_duration_s=5.0)  # down 12 → up 17, epoch at 20
    site.run_for(25.0)
    reasons = [e[1] for e in site.budget_log]
    assert "outage" in reasons and "recovery" in reasons
    assert site._event_down_ranks["east"] == set()
    assert not site.cluster_is_down("east")
    assert site.lifecycle.state_of("east") == AVAILABLE
    assert site.assigned_shares["east"] > 0.0
    metrics = site.telemetry.metrics
    assert _counter_total(metrics, "federation_cluster_recoveries_total") == 1


def test_site_restore_mid_outage_preserves_flap_bookkeeping():
    site = _flap_site(outage_duration_s=18.0)  # down 12 → up 30
    site.run_for(14.0)
    assert site.cluster_is_down("east")

    snap = json.loads(json.dumps(snapshot_site(site)))
    # One liveness record: the cluster-grain lifecycle says who is down.
    assert "cluster_down" not in snap["site"]
    assert snap["site"]["lifecycle"]["states"]["east"] == DEGRADED
    wipe_site_state(site)
    assert not site.cluster_is_down("east")  # the wipe is amnesiac
    restore_site(site, snap)
    assert site.cluster_is_down("east")
    assert site.down_clusters == ["east"] and site.live_clusters == ["west"]
    power = PowerService(ClusterRegistry.from_site(site)).handle(
        "GET", "/v1/site/power"
    )
    assert {n: c["down"] for n, c in power.body["clusters"].items()} == {
        "east": True, "west": False,
    }
    assert site._event_down_ranks["east"] == {1}
    assert site.lifecycle.state_of("east") == DEGRADED

    # The revival at t=30 lands on the restored dead set: the cluster
    # is declared recovered and restored to the split.
    site.run_for(20.0)
    assert not site.cluster_is_down("east")
    assert any(e[1] == "recovery" and e[0] >= 29.0 for e in site.budget_log)
    metrics = site.telemetry.metrics
    assert _counter_total(metrics, "federation_cluster_recoveries_total") == 1


def test_naive_site_restore_never_declares_recovery():
    """The pre-fix failure at the site tier.

    Dropping ``event_down_ranks`` and ``lifecycle`` (the site's one
    liveness record) from the artifact makes the restored site re-count the eventual
    ``broker.up`` against an empty dead set: the liveness edge never
    fires, so no recovery re-split ever happens.
    """
    site = _flap_site(outage_duration_s=18.0)
    site.run_for(14.0)
    snap = json.loads(json.dumps(snapshot_site(site)))
    for key in ("event_down_ranks", "lifecycle"):
        del snap["site"][key]
    wipe_site_state(site)
    restore_site(site, snap)
    assert not site.cluster_is_down("east")  # outage silently forgotten

    site.run_for(30.0)  # well past the t=30 revival
    assert not any(e[1] == "recovery" for e in site.budget_log)
    metrics = site.telemetry.metrics
    assert _counter_total(metrics, "federation_cluster_recoveries_total") == 0


def test_federated_simtest_flap_scenario_is_clean_and_deterministic():
    scenario = FederatedScenario(
        seed=5,
        site_budget_w=15_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterScenario(
                name="east", platform="lassen", n_nodes=3,
                jobs=(JobEntry(app="gemm", nnodes=2, work_scale=1.0,
                               submit_t=0.0),),
                outages=((12.0, 5.0),),
            ),
            ClusterScenario(
                name="west", platform="lassen", n_nodes=2,
                jobs=(JobEntry(app="nqueens", nnodes=1, work_scale=1.0,
                               submit_t=2.0),),
            ),
        ),
    )
    sites = []

    def _capture(site, sim):
        sites.append(site)

    first = run_federated_scenario(scenario, setup=_capture)
    assert first.ok, first.summary()
    metrics = sites[0].telemetry.metrics
    assert _counter_total(metrics, "federation_cluster_outages_total") == 1
    assert _counter_total(metrics, "federation_cluster_recoveries_total") == 1

    second = run_federated_scenario(scenario)
    assert second.ok and second.digest == first.digest
