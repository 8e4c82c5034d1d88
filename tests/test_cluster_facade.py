"""Unit tests for the PowerManagedCluster facade."""

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster


def test_default_cluster_has_monitor_and_trace():
    c = PowerManagedCluster(platform="lassen", n_nodes=2, seed=1)
    assert c.monitor is not None
    assert c.trace is not None
    assert c.manager is None


def test_monitor_optional():
    c = PowerManagedCluster(platform="lassen", n_nodes=2, seed=1, with_monitor=False)
    assert c.monitor is None
    with pytest.raises(RuntimeError):
        c.telemetry(1)


def test_submit_run_metrics_telemetry():
    c = PowerManagedCluster(platform="lassen", n_nodes=2, seed=1)
    job = c.submit(Jobspec(app="laghos", nnodes=2))
    c.run_until_complete()
    c.run_for(4.0)
    m = c.metrics(job.jobid)
    assert m.app == "laghos"
    assert m.runtime_s == pytest.approx(12.55, rel=0.05)
    data = c.telemetry(job.jobid)
    assert data.complete


def test_manager_config_loads_manager():
    c = PowerManagedCluster(
        platform="lassen",
        n_nodes=2,
        seed=1,
        manager_config=ManagerConfig(global_cap_w=2000.0, policy="proportional"),
    )
    assert c.manager is not None
    job = c.submit(Jobspec(app="gemm", nnodes=2))
    c.run_for(30.0)
    # 2000 W over 2 nodes -> 1000 W shares pushed to node managers.
    assert c.manager.node_managers[0].node_limit_w == pytest.approx(1000.0)
    c.run_until_complete(timeout_s=100000)


def test_all_metrics_and_makespan():
    c = PowerManagedCluster(platform="lassen", n_nodes=4, seed=1)
    c.submit(Jobspec(app="laghos", nnodes=2))
    c.submit(Jobspec(app="laghos", nnodes=2))
    c.run_until_complete()
    assert len(c.all_metrics()) == 2
    assert c.makespan_s() == pytest.approx(12.6, abs=1.5)


def test_submit_at_delays_submission():
    c = PowerManagedCluster(platform="lassen", n_nodes=1, seed=1)
    c.submit_at(Jobspec(app="laghos", nnodes=1), when=50.0)
    c.run_for(49.0)
    assert not c.instance.jobmanager.jobs
    c.run_for(2.0)
    assert len(c.instance.jobmanager.jobs) == 1
    c.run_until_complete()


def test_tioga_cluster_builds():
    c = PowerManagedCluster(platform="tioga", n_nodes=2, seed=1)
    job = c.submit(Jobspec(app="lammps", nnodes=2))
    c.run_until_complete(timeout_s=100000)
    assert c.metrics(job.jobid).runtime_s > 0
