"""Integration tests for FPP's node-level behaviour."""

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.manager.policies import FPPParams


def fpp_cluster(n_nodes=2, cap=2400.0, seed=14, params=None, **job):
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=n_nodes,
        seed=seed,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=cap, policy="fpp", static_node_cap_w=1950.0
        ),
        fpp_params=params,
    )
    return cluster


def test_fpp_probes_quicksilver_then_converges():
    cluster = fpp_cluster()
    cluster.submit(
        Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 40})
    )
    cluster.run_for(400.0)
    nm = cluster.manager.node_managers[0]
    desc = nm.policy.describe()
    # Stable 20 s period: all controllers converged after the probe.
    assert all(c["converged"] for c in desc["controllers"])
    # Caps sit a probe below the derived ceiling.
    ceiling = nm.derive_share("gpu", 1200.0)
    assert all(c <= ceiling for c in desc["caps_w"])
    cluster.run_until_complete(timeout_s=1_000_000)


def test_fpp_detects_quicksilver_period():
    cluster = fpp_cluster()
    cluster.submit(
        Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 40})
    )
    cluster.run_for(200.0)
    nm = cluster.manager.node_managers[0]
    periods = [
        c["period_s"]
        for c in nm.policy.describe()["controllers"]
        if c["period_s"] is not None
    ]
    assert periods, "no period detected on any GPU"
    assert all(abs(p - 20.0) < 4.0 for p in periods)
    cluster.run_until_complete(timeout_s=1_000_000)


def test_fpp_controllers_are_per_gpu_independent():
    """Non-uniform per-GPU capping: converged state is per device."""
    cluster = fpp_cluster()
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 40}))
    cluster.run_for(100.0)
    nm = cluster.manager.node_managers[0]
    # Force one controller into a different state; others unaffected.
    nm.policy.controllers[2].converged = True
    nm.policy.controllers[2].t_prev = 99.0
    assert nm.policy.controllers[0].t_prev != 99.0
    cluster.run_until_complete(timeout_s=1_000_000)


def test_fpp_custom_params_respected():
    params = FPPParams(powercap_time_s=30.0, p_reduce_w=10.0)
    cluster = fpp_cluster(params=params)
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 30}))
    cluster.run_for(100.0)
    nm = cluster.manager.node_managers[0]
    assert nm.policy.params.p_reduce_w == 10.0
    # With a 30 s cadence, at least two control ticks happened by t=100
    # and the probe depth is 10 W.
    ceiling = nm.policy._ceiling()
    assert any(
        c >= ceiling - 20.0 for c in nm.policy.describe()["caps_w"]
    )
    cluster.run_until_complete(timeout_s=1_000_000)


def test_fpp_share_decrease_is_enforced_immediately():
    cluster = fpp_cluster(n_nodes=4, cap=9600.0)
    gemm = cluster.submit(Jobspec(app="gemm", nnodes=2, params={"work_scale": 2}))
    cluster.run_for(60.0)
    nm = cluster.manager.node_managers[0]
    caps_before = list(nm.policy.caps_w)
    # Second job arrives: shares drop from 3050 (peak) to 2400.
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 30}))
    cluster.run_for(10.0)
    assert nm.node_limit_w == pytest.approx(2400.0)
    cluster.run_until_complete(timeout_s=1_000_000)


def test_fpp_gpuless_platform_does_not_crash():
    """FPP on a CPU-only generic node degenerates gracefully."""
    cluster = PowerManagedCluster(
        platform="generic",
        n_nodes=2,
        seed=14,
        trace=False,
        manager_config=ManagerConfig(global_cap_w=800.0, policy="fpp"),
    )
    job = cluster.submit(Jobspec(app="nqueens", nnodes=2, launcher="non-mpi"))
    cluster.run_until_complete(timeout_s=1_000_000)
    assert cluster.metrics(job.jobid).runtime_s > 0
