"""Crash-at-random-tick recovery: the digest-equivalence oracle.

The artifact's contract — snapshot → wipe → restore at *any* instant
leaves the remaining run byte-identical to never having crashed — is
property-tested here over generated scenarios (cluster tier, through
``run_with_recovery`` and ``RECOVERY_TIER``) and a deterministic
mid-outage site restore (federated tier), plus unit coverage of the
``lifecycle`` simtest invariant that guards the books. A planted
restore bug shows the tier can fail.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PowerManagedCluster
from repro.flux.jobspec import Jobspec
from repro.lifecycle.machine import MAINTENANCE, RETIRED
from repro.lifecycle import recovery
from repro.lifecycle.recovery import RECOVERY_TIER, run_with_recovery
from repro.lifecycle.snapshot import (
    restore_site,
    snapshot_site,
    wipe_site_state,
)
from repro.manager.cluster_manager import ManagerConfig
from repro.simtest import run_batch
from repro.simtest.federation.harness import run_federated_scenario
from repro.simtest.federation.scenario import ClusterScenario, FederatedScenario
from repro.simtest.harness import SimtestContext, run_scenario
from repro.simtest.invariants import LifecycleChecker
from repro.simtest.scenario import (
    GeneratorConfig,
    JobEntry,
    Scenario,
    generate_scenario,
)

#: Small scenarios keep each (base run + recovery run) pair cheap; the
#: 100-seed campaign in tools/verify.sh covers the full default bounds.
SMALL = GeneratorConfig(max_nodes=8, max_jobs=3)


# ----------------------------------------------------------------------
# Property: crash anywhere, restore, land on the same digest
# ----------------------------------------------------------------------
@settings(derandomize=True, deadline=None, max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    fraction=st.floats(min_value=0.15, max_value=0.85),
)
def test_crash_restore_lands_on_the_uninterrupted_digest(seed, fraction):
    result = run_with_recovery(generate_scenario(seed, SMALL), fraction)
    assert result.ok, result.summary()


def test_fuzz_batch_reports_equivalence():
    report = run_batch(range(3), config=SMALL, tier=RECOVERY_TIER, shrink=False)
    assert report.ok, report.summary()
    assert report.summary() == "lifecycle: 3 scenario(s), 3 ok, 0 violating"


def test_tier_reports_a_planted_restore_bug(monkeypatch):
    """A restore that loses the manager's books must fail the tier."""
    real_restore = recovery.restore_cluster

    def _drop_manager(cluster, snap):
        real_restore(cluster, {k: v for k, v in snap.items() if k != "manager"})

    monkeypatch.setattr(recovery, "restore_cluster", _drop_manager)
    report = run_batch([0], tier=RECOVERY_TIER, shrink=False)
    assert not report.ok
    violation = report.results[0].violations[-1]
    assert violation.invariant == "restore_equivalence"
    base, recovered = (
        violation.details["base_digest"], violation.details["recovered_digest"]
    )
    assert base != recovered
    assert base in violation.message and recovered in violation.message
    assert recovered == report.results[0].digest
    assert "[restore_equivalence]" in report.summary()


def test_crash_past_the_end_of_the_run_is_a_violation():
    result = run_with_recovery(generate_scenario(0, SMALL), 3.0)
    assert [v.invariant for v in result.violations] == ["crash_unreached"]
    assert "never fired" in result.violations[0].message


# ----------------------------------------------------------------------
# Federated tier: restore mid-outage, digests still converge
# ----------------------------------------------------------------------
def test_site_crash_restore_mid_outage_is_digest_equivalent():
    scenario = FederatedScenario(
        seed=9,
        site_budget_w=15_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterScenario(
                name="east", platform="lassen", n_nodes=3,
                jobs=(JobEntry(app="gemm", nnodes=2, work_scale=3.0,
                               submit_t=0.0),),
                outages=((12.0, 8.0),),
            ),
            ClusterScenario(
                name="west", platform="lassen", n_nodes=2,
                jobs=(JobEntry(app="nqueens", nnodes=2, work_scale=3.0,
                               submit_t=2.0),),
            ),
        ),
    )
    base = run_federated_scenario(scenario)
    assert base.ok, base.summary()
    assert base.makespan_s is not None and base.makespan_s > 15.0

    # t=15 is inside east's outage window (12 → 20): the artifact must
    # carry the site's dead-set bookkeeping for the digests to match.
    def _crash_restore(site, sim):
        def _cycle():
            blob = json.dumps(snapshot_site(site), sort_keys=True)
            wipe_site_state(site)
            restore_site(site, json.loads(blob))

        sim.schedule_at(15.0, _cycle)

    recovered = run_federated_scenario(scenario, setup=_crash_restore)
    assert recovered.ok, recovered.summary()
    assert recovered.digest == base.digest


# ----------------------------------------------------------------------
# The lifecycle invariant checker
# ----------------------------------------------------------------------
def _running_cluster(n_nodes: int = 4):
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=n_nodes,
        seed=6,
        manager_config=ManagerConfig(
            global_cap_w=1500.0 * n_nodes,
            policy="proportional",
            static_node_cap_w=1950.0,
        ),
    )
    cluster.submit(Jobspec(app="gemm", nnodes=n_nodes, params={"work_scale": 6.0}))
    cluster.run_for(10.0)
    return cluster


def test_checker_flags_booked_rank_forced_into_maintenance():
    cluster = _running_cluster()
    ctx = SimtestContext(cluster, generate_scenario(0, SMALL))
    checker = LifecycleChecker()
    assert checker.check(ctx) == []
    # Forge the transition *without* draining the books — the bug class
    # the invariant exists to catch, exact at the very same tick.
    root = cluster.manager.cluster
    root.lifecycle.transition(2, MAINTENANCE, reason="forged", t=cluster.sim.now)
    violations = checker.check(ctx)
    assert violations
    assert "books rank 2" in violations[0].message


def test_proper_maintenance_drain_is_clean_immediately():
    cluster = _running_cluster()
    root = cluster.manager.cluster
    root.begin_maintenance(2)
    ctx = SimtestContext(cluster, generate_scenario(0, SMALL))
    checker = LifecycleChecker()
    assert checker.check(ctx) == []  # books drained in the same event
    assert all(
        2 not in state.ranks for state in root.job_level.jobs.values()
    )
    # After service the rank returns to the pool.
    root.end_maintenance(2)
    assert root.lifecycle.is_available(2)


def test_retired_rank_releases_its_cap_within_one_settle_tick():
    cluster = _running_cluster()
    root = cluster.manager.cluster
    nm = cluster.manager.node_managers[2]
    assert nm.node_limit_w is not None  # capped while booked
    root.retire_node(2)
    ctx = SimtestContext(cluster, generate_scenario(0, SMALL))
    checker = LifecycleChecker()
    # First sight: the departure RPC is still crossing the TBON, so the
    # stale cap is a suspect, not yet a violation.
    assert checker.check(ctx) == []
    cluster.run_for(1.0)
    ctx.tick_index += 1
    assert nm.node_limit_w is None
    assert checker.check(ctx) == []


def test_forged_retirement_without_drain_violates_after_grace():
    cluster = _running_cluster()
    root = cluster.manager.cluster
    # Retire via the raw registry, skipping retire_node's drain: the
    # node manager keeps its limit forever.
    root.lifecycle.transition(2, RETIRED, reason="forged", t=cluster.sim.now)
    root.job_level.node_died(2)  # keep the booking check quiet
    ctx = SimtestContext(cluster, generate_scenario(0, SMALL))
    checker = LifecycleChecker()
    assert checker.check(ctx) == []  # settle grace
    cluster.run_for(5.0)
    ctx.tick_index += 1
    violations = checker.check(ctx)
    assert violations
    assert "retired rank 2" in violations[0].message


def test_mid_run_maintenance_scenario_passes_all_invariants():
    scenario = Scenario(
        seed=13,
        n_nodes=6,
        global_cap_w=9_000.0,
        jobs=(
            JobEntry(app="gemm", nnodes=6, work_scale=4.0, submit_t=0.0),
            JobEntry(app="nqueens", nnodes=4, work_scale=1.0, submit_t=30.0),
        ),
    )

    def _setup(cluster, sim):
        def _service():
            cluster.manager.cluster.begin_maintenance(5)

        sim.schedule_at(10.0, _service)

    result = run_scenario(scenario, setup=_setup)
    assert result.ok, result.summary()
