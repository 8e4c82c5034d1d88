"""Unit tests for the history-based power policy."""

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.manager.policies import POLICY_FACTORIES, HistoryPolicy


def history_cluster(cap=2400.0, seed=28, **kwargs):
    return PowerManagedCluster(
        platform="lassen",
        n_nodes=2,
        seed=seed,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=cap, policy="history", static_node_cap_w=1950.0
        ),
        **kwargs,
    )


def test_registered_in_factories():
    assert POLICY_FACTORIES["history"] is HistoryPolicy


def test_caps_track_quicksilver_peak_plus_margin():
    cluster = history_cluster()
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 30}))
    cluster.run_for(120.0)
    node = cluster.nodes[0]
    caps = [g.get_cap("nvml") for g in node.gpu_domains]
    # QS peaks at 138 W/GPU; history caps near 138 + 20 margin —
    # far below the ~200 W share-derived ceiling.
    assert all(c is not None for c in caps)
    assert all(140.0 <= c <= 170.0 for c in caps)
    cluster.run_until_complete(timeout_s=1_000_000)


def test_history_policy_does_not_slow_workload():
    capped = history_cluster()
    j1 = capped.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 30}))
    capped.run_until_complete(timeout_s=1_000_000)

    free = PowerManagedCluster(
        platform="lassen", n_nodes=2, seed=28, trace=False
    )
    j2 = free.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 30}))
    free.run_until_complete(timeout_s=1_000_000)

    assert capped.metrics(j1.jobid).runtime_s == pytest.approx(
        free.metrics(j2.jobid).runtime_s, rel=0.02
    )


def test_history_respects_share_ceiling():
    cluster = history_cluster(cap=1800.0)  # 900 W/node share
    cluster.submit(Jobspec(app="gemm", nnodes=2, params={"work_scale": 2}))
    cluster.run_for(120.0)
    nm = cluster.manager.node_managers[0]
    ceiling = nm.derive_share("gpu", 900.0)
    caps = [g.get_cap("nvml") for g in cluster.nodes[0].gpu_domains]
    assert all(c <= ceiling + 1e-6 for c in caps)
    cluster.run_until_complete(timeout_s=2_000_000)


def test_describe_reports_fill():
    cluster = history_cluster()
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 30}))
    cluster.run_for(10.0)
    d = cluster.manager.node_managers[0].policy.describe()
    assert d["policy"] == "history"
    assert len(d["history_fill"]) == 4
    cluster.run_until_complete(timeout_s=1_000_000)


def test_reset_on_new_job():
    cluster = history_cluster()
    a = cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 10}))
    cluster.run_until_complete(timeout_s=1_000_000)
    b = cluster.submit(Jobspec(app="gemm", nnodes=2, params={"work_scale": 0.5}))
    cluster.run_for(5.0)
    nm = cluster.manager.node_managers[0]
    # Fresh history after the tenant change: fill restarted.
    assert max(nm.policy.describe()["history_fill"]) <= 3
    cluster.run_until_complete(timeout_s=1_000_000)
