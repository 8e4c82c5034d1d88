"""Sharded federation (one engine per cluster) vs the single-engine site.

The acceptance contract: for the same :class:`SiteConfig`, seed and
workload, a sharded run's ``site_digest()`` — the stable combination of
per-shard digests plus the site rebalance timeline — is byte-identical
to the classic :class:`FederatedSite`'s, for both the inline and the
``multiprocessing`` backends, including scheduled retunes and (inline)
whole-cluster outage/recovery campaigns.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.federation import (
    ClusterSpec,
    FederatedSite,
    ShardedFederatedSite,
    SiteConfig,
    create_site,
)
from repro.flux.jobspec import Jobspec

HORIZON_S = 130.0


def _config(sharded: bool = False) -> SiteConfig:
    return SiteConfig(
        site_budget_w=40000.0,
        rebalance_epoch_s=10.0,
        sharded=sharded,
        clusters=(
            ClusterSpec(name="alpha", platform="lassen", n_nodes=6,
                        node_peak_w=3050.0),
            ClusterSpec(name="beta", platform="tioga", n_nodes=4,
                        node_peak_w=3200.0, min_share_w=2000.0),
        ),
    )


def _submit_workload(site) -> None:
    site.submit("alpha", Jobspec(app="gemm", nnodes=4))
    site.submit_at("alpha", Jobspec(app="lammps", nnodes=2), 13.0)
    site.submit("beta", Jobspec(app="gemm", nnodes=3))
    site.schedule_retune(25.0, 36000.0)


def _run(site):
    _submit_workload(site)
    site.run_for(HORIZON_S)
    return site


#: Crashes every crashable rank of a 3-node cluster (ranks 1 and 2) at
#: off-grid instants, then restores them — a whole-cluster outage and
#: recovery as seen by the site tier.
OUTAGE_PLAN = FaultPlan(events=[
    FaultEvent(t=17.3, kind="crash", rank=1),
    FaultEvent(t=17.9, kind="crash", rank=2),
    FaultEvent(t=44.1, kind="restart", rank=1),
    FaultEvent(t=46.7, kind="restart", rank=2),
])


def test_inline_backend_matches_unsharded_digest():
    plain = _run(FederatedSite(_config(), seed=42))
    sharded = _run(ShardedFederatedSite(_config(), seed=42))
    assert sharded.site_digest() == plain.site_digest()
    assert sharded.budget_log == plain.budget_log
    reasons = [r for _, r, _, _ in sharded.budget_log]
    assert reasons[0] == "initial"
    assert "retune" in reasons and "epoch" in reasons


def test_process_backend_matches_unsharded_digest():
    plain = _run(FederatedSite(_config(), seed=42))
    sharded = ShardedFederatedSite(_config(), seed=42, backend="process")
    try:
        _run(sharded)
        assert sharded.site_digest() == plain.site_digest()
        assert sharded.budget_log == plain.budget_log
    finally:
        sharded.close()


def test_inline_backend_matches_under_cluster_outage():
    def faulted_config():
        return SiteConfig(
            site_budget_w=40000.0,
            rebalance_epoch_s=10.0,
            clusters=(
                ClusterSpec(name="alpha", platform="lassen", n_nodes=4,
                            node_peak_w=3050.0),
                ClusterSpec(name="beta", platform="lassen", n_nodes=3,
                            node_peak_w=3050.0),
            ),
        )

    def run(cls):
        site = cls(faulted_config(), seed=7, fault_plans={"beta": OUTAGE_PLAN})
        site.submit("alpha", Jobspec(app="gemm", nnodes=3))
        site.submit("beta", Jobspec(app="gemm", nnodes=2))
        site.submit_at("beta", Jobspec(app="lammps", nnodes=2), 55.0)
        site.run_for(140.0)
        return site

    plain = run(FederatedSite)
    sharded = run(ShardedFederatedSite)
    assert sharded.site_digest() == plain.site_digest()
    reasons = [r for _, r, _, _ in sharded.budget_log]
    assert "outage" in reasons and "recovery" in reasons
    assert sharded.budget_log == plain.budget_log


def test_run_until_complete_matches_unsharded():
    def run(cls):
        site = cls(_config(), seed=3)
        site.submit("alpha", Jobspec(app="gemm", nnodes=2))
        site.submit("beta", Jobspec(app="quicksilver", nnodes=2))
        site.run_until_complete(timeout_s=100000.0)
        return site

    plain = run(FederatedSite)
    sharded = run(ShardedFederatedSite)
    assert sharded.now == plain.sim.now
    assert sharded.site_digest() == plain.site_digest()
    assert sharded.all_complete() and plain.all_complete()


def test_shard_digests_are_the_combination_inputs():
    sharded = _run(ShardedFederatedSite(_config(), seed=42))
    per_shard = sharded.shard_digests()
    assert sorted(per_shard) == ["alpha", "beta"]
    from repro.federation import combine_site_digest

    assert (
        combine_site_digest(sharded.now, sharded.budget_log, per_shard)
        == sharded.site_digest()
    )


def test_workload_changes_the_digest():
    # With jitter and sensor noise off, the run is seed-independent by
    # design; the digest must still separate different workloads.
    a = _run(ShardedFederatedSite(_config(), seed=1))
    b = ShardedFederatedSite(_config(), seed=1)
    b.submit("alpha", Jobspec(app="gemm", nnodes=5))
    b.run_for(HORIZON_S)
    assert a.site_digest() != b.site_digest()


def test_create_site_honours_sharded_flag():
    assert isinstance(create_site(_config(sharded=False), seed=1), FederatedSite)
    site = create_site(_config(sharded=True), seed=1)
    assert isinstance(site, ShardedFederatedSite)
    assert site.describe()["sharded"] is True


def test_process_backend_rejects_fault_plans():
    with pytest.raises(ValueError, match="inline backend"):
        ShardedFederatedSite(
            _config(), seed=0,
            fault_plans={"alpha": OUTAGE_PLAN},
            backend="process",
        )


def test_process_backend_rejects_late_submissions():
    site = ShardedFederatedSite(_config(), seed=0, backend="process")
    try:
        site.submit("alpha", Jobspec(app="gemm", nnodes=2))
        site.run_for(5.0)
        with pytest.raises(RuntimeError, match="declared up front"):
            site.submit("alpha", Jobspec(app="gemm", nnodes=1))
    finally:
        site.close()
