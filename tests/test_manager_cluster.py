"""Unit tests for the cluster-level manager and job-level manager."""

import pytest

from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.manager.module import attach_manager


def test_unconstrained_cluster_never_caps(lassen4):
    mgr = attach_manager(lassen4, ManagerConfig(global_cap_w=None, policy="proportional"))
    rec = lassen4.submit(Jobspec(app="gemm", nnodes=4))
    lassen4.run_for(30.0)
    assert mgr.cluster.per_node_share_w() is None
    nm = mgr.node_managers[0]
    assert nm.node_limit_w is None
    lassen4.run_until_complete()


def test_share_is_budget_over_active_nodes(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=4800.0, policy="proportional")
    )
    lassen4.submit(Jobspec(app="gemm", nnodes=2))
    lassen4.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 20}))
    lassen4.run_for(10.0)
    # 4 active nodes, 4800 W budget -> 1200 W each.
    assert mgr.cluster.per_node_share_w() == pytest.approx(1200.0)
    for rank in range(4):
        assert mgr.node_managers[rank].node_limit_w == pytest.approx(1200.0)
    lassen4.run_until_complete(timeout_s=100000)


def test_budget_allows_peak_when_underutilised(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=9600.0, node_peak_w=3050.0, policy="proportional")
    )
    lassen4.submit(Jobspec(app="laghos", nnodes=2))  # 2*3050 < 9600
    lassen4.run_for(5.0)
    assert mgr.cluster.per_node_share_w() == pytest.approx(3050.0)
    lassen4.run_until_complete()


def test_share_reclaimed_on_job_exit(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=4800.0, policy="proportional")
    )
    lassen4.submit(Jobspec(app="gemm", nnodes=2))  # long
    lassen4.submit(Jobspec(app="laghos", nnodes=2))  # short (~12.6 s)
    lassen4.run_for(60.0)
    # laghos gone: gemm's 2 nodes share the whole 4800 -> 2400 each.
    assert mgr.cluster.per_node_share_w() == pytest.approx(2400.0)
    lassen4.run_until_complete(timeout_s=100000)


def test_share_log_records_transitions(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=4800.0, policy="proportional")
    )
    lassen4.submit(Jobspec(app="gemm", nnodes=2))
    lassen4.submit(Jobspec(app="laghos", nnodes=2))
    lassen4.run_until_complete(timeout_s=100000)
    shares = [s for (_, _, s) in mgr.share_log if s is not None]
    assert 1200.0 in [pytest.approx(v) for v in shares] or any(
        abs(v - 1200.0) < 1 for v in shares
    )
    assert any(abs(v - 2400.0) < 1 for v in shares)


def test_job_level_manager_splits_equally(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=4800.0, policy="proportional")
    )
    rec = lassen4.submit(Jobspec(app="gemm", nnodes=4))
    lassen4.run_for(5.0)
    jl = mgr.cluster.job_level
    state = jl.state_of(rec.jobid)
    assert state.job_limit_w == pytest.approx(4800.0)
    assert state.node_limit_w == pytest.approx(1200.0)
    lassen4.run_until_complete(timeout_s=100000)


def test_job_level_assign_unknown_job_raises(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=4800.0, policy="proportional")
    )
    with pytest.raises(KeyError):
        mgr.cluster.job_level.assign(99, 1000.0)


def test_static_mode_pushes_no_shares(lassen4):
    mgr = attach_manager(
        lassen4,
        ManagerConfig(global_cap_w=9600.0, policy="static", static_node_cap_w=1200.0),
    )
    lassen4.submit(Jobspec(app="laghos", nnodes=4))
    lassen4.run_until_complete()
    assert mgr.share_log == []
    assert mgr.node_managers[0].node_limit_w is None


def test_cluster_manager_describe(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=4800.0, policy="proportional")
    )
    lassen4.submit(Jobspec(app="gemm", nnodes=4))
    lassen4.run_for(5.0)
    d = mgr.cluster.describe()
    assert d["active_nodes"] == 4
    assert d["policy"] == "proportional"
    lassen4.run_until_complete(timeout_s=100000)


def test_unknown_policy_rejected(lassen4):
    with pytest.raises(ValueError):
        attach_manager(lassen4, ManagerConfig(policy="greedy"))


def test_custom_policy_factory(lassen4):
    from repro.manager.policies import StaticPolicy

    class MyPolicy(StaticPolicy):
        name = "mine"

    mgr = attach_manager(
        lassen4,
        ManagerConfig(global_cap_w=9600.0, policy="static"),
        policy_factory=MyPolicy,
    )
    assert mgr.node_managers[0].policy.name == "mine"


def test_detach_unloads_everything(lassen4):
    mgr = attach_manager(
        lassen4, ManagerConfig(global_cap_w=9600.0, policy="proportional")
    )
    mgr.detach()
    assert "power-manager" not in lassen4.brokers[0].modules
    assert "power-manager-root" not in lassen4.brokers[0].modules
