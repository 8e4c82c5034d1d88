"""Unit tests for the socket-level FPP extension."""

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.manager.module import attach_manager
from repro.manager.policies import FPPSocketPolicy, SOCKET_FPP_PARAMS


def socket_cluster(platform="lassen", n_nodes=2, cap=1400.0, seed=4):
    return PowerManagedCluster(
        platform=platform,
        n_nodes=n_nodes,
        seed=seed,
        trace=False,
        manager_config=ManagerConfig(global_cap_w=cap, policy="fpp-socket"),
    )


def test_socket_params_scaled_for_cpu_range():
    assert SOCKET_FPP_PARAMS.p_reduce_w < 50.0
    assert max(SOCKET_FPP_PARAMS.powercap_levels_w) < 25.0


def test_socket_policy_registered():
    from repro.manager.policies import POLICY_FACTORIES

    assert POLICY_FACTORIES["fpp-socket"] is FPPSocketPolicy


def test_socket_share_enforced_on_cpu_job():
    cluster = socket_cluster()
    job = cluster.submit(Jobspec(app="nqueens", nnodes=2, launcher="non-mpi"))
    cluster.run_until_complete(timeout_s=200_000)
    m = cluster.metrics(job.jobid)
    # NQueens demands ~740 W/node but the share is 700 W: sockets capped.
    assert m.max_node_power_w <= 700.0 * 1.02
    assert m.runtime_s > 300.0  # slowed by the cap


def test_socket_caps_installed_per_socket():
    cluster = socket_cluster()
    cluster.submit(Jobspec(app="nqueens", nnodes=2, launcher="non-mpi"))
    cluster.run_for(30.0)
    nm = cluster.manager.node_manager_for_rank(0)
    caps = nm.policy.describe()["caps_w"]
    assert len(caps) == 2  # dual socket
    lo, hi = nm.cap_range("socket")
    assert all(lo <= c <= hi for c in caps)
    cluster.run_until_complete(timeout_s=200_000)


def test_unconstrained_socket_policy_is_noop():
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=2,
        seed=4,
        trace=False,
        manager_config=ManagerConfig(global_cap_w=None, policy="fpp-socket"),
    )
    job = cluster.submit(Jobspec(app="nqueens", nnodes=2, launcher="non-mpi"))
    cluster.run_until_complete(timeout_s=200_000)
    assert cluster.metrics(job.jobid).runtime_s == pytest.approx(300.0, abs=3.0)


def test_socket_policy_on_generic_platform_uses_rapl():
    cluster = PowerManagedCluster(
        platform="generic",
        n_nodes=2,
        seed=4,
        trace=False,
        manager_config=ManagerConfig(global_cap_w=700.0, policy="fpp-socket"),
    )
    cluster.submit(Jobspec(app="nqueens", nnodes=2, launcher="non-mpi"))
    cluster.run_for(10.0)
    node = cluster.nodes[0]
    assert any(d.get_cap("rapl") is not None for d in node.cpu_domains)
    cluster.run_until_complete(timeout_s=200_000)


def _ran_to_first_limit():
    cluster = socket_cluster()
    cluster.submit(Jobspec(app="nqueens", nnodes=2, launcher="non-mpi"))
    cluster.run_for(30.0)
    nm = cluster.manager.node_manager_for_rank(0)
    assert nm.node_limit_w is not None
    return cluster, nm


def test_socket_limit_decrease_keeps_learned_controller_state():
    """One ``on_node_limit`` for every device class: only growing
    headroom restarts the controllers; a share cut keeps what they
    learned and clamps caps under the new ceiling."""
    _cluster, nm = _ran_to_first_limit()
    policy = nm.policy
    controllers = list(policy.controllers)
    controllers[0].converged = True
    controllers[0].period_s = 12.0
    cut = nm.node_limit_w - 100.0
    nm.node_limit_w = cut
    policy.on_node_limit(cut)
    assert policy.controllers == controllers
    assert policy.controllers[0].converged
    assert policy.controllers[0].period_s == 12.0
    ceiling = policy._ceiling()
    assert all(c <= max(ceiling, 50.0) for c in policy.caps_w)

    raised = cut + 200.0
    nm.node_limit_w = raised
    policy.on_node_limit(raised)
    assert policy.controllers[0] is not controllers[0]
    assert not policy.controllers[0].converged


def test_socket_control_tick_counts_fft_runs_and_charges_manager():
    from repro.telemetry import FPP_FFT_COST_S

    cluster, nm = _ran_to_first_limit()
    tel = cluster.telemetry_hub

    def fft_runs():
        return sum(s.value for s in tel.metrics.series_for("fpp_fft_runs_total"))

    runs, charged = fft_runs(), tel.accountant.seconds("manager")
    nm.policy._control_tick(None)
    assert fft_runs() == runs + 2  # one FFT per socket
    assert tel.accountant.seconds("manager") == pytest.approx(
        charged + 2 * FPP_FFT_COST_S
    )


def test_socket_caps_cleared_when_the_job_leaves():
    """A departed job's socket caps must not outlive it on an idle node
    (the next job's policy may not cap sockets at all)."""
    cluster = socket_cluster()
    job = cluster.submit(
        Jobspec(app="nqueens", nnodes=2, launcher="non-mpi",
                params={"work_scale": 0.2})
    )
    cluster.run_for(30.0)
    assert cluster.nodes[0].cpu_domains[0].get_cap("socket-manager") is not None
    cluster.run_until_complete(timeout_s=200_000)
    assert cluster.instance.app_runs[job.jobid].finished
    cluster.run_for(100.0)
    for node in cluster.nodes:
        assert [d.effective_cap_w for d in node.cpu_domains] == [None, None]
