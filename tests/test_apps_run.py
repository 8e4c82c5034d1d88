"""Unit tests for AppRun: execution, capping response, accounting."""

import pytest

from repro.apps.registry import get_profile
from repro.apps.run import AppRun
from repro.variorum import cap_each_gpu_power_limit
from repro.flux.jobspec import JobRecord, Jobspec
from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.simkernel import Simulator


def make_run(app="gemm", n_nodes=1, platform="lassen", sim=None, **kwargs):
    sim = sim or Simulator()
    maker = make_lassen_node if platform == "lassen" else make_tioga_node
    nodes = [maker(f"n{i}") for i in range(n_nodes)]
    record = JobRecord(jobid=1, spec=Jobspec(app=app, nnodes=n_nodes))
    run = AppRun(sim, record, nodes, get_profile(app), **kwargs)
    return sim, nodes, run


def test_unconstrained_runtime_matches_profile():
    sim, _, run = make_run("gemm")
    sim.run(until=1000.0)
    assert run.finished
    assert run.runtime_s == pytest.approx(274.0, abs=1.5)


def test_work_scale_doubles_runtime():
    sim, _, run = make_run("gemm", work_scale=2.0)
    sim.run(until=2000.0)
    assert run.runtime_s == pytest.approx(548.0, abs=2.0)


def test_jitter_factor_scales_runtime():
    sim, _, run = make_run("laghos", jitter_factor=1.5)
    sim.run(until=500.0)
    assert run.runtime_s == pytest.approx(12.55 * 1.5, abs=1.5)


def test_gpu_cap_slows_gemm():
    sim, nodes, run = make_run("gemm")
    cap_each_gpu_power_limit(nodes[0], 100.0)
    sim.run(until=5000.0)
    assert run.runtime_s > 274.0 * 1.7  # deep cap hurts a lot


def test_gpu_cap_barely_affects_quicksilver():
    sim, nodes, run = make_run("quicksilver", work_scale=10.0)
    cap_each_gpu_power_limit(nodes[0], 100.0)
    sim.run(until=5000.0)
    assert run.runtime_s < 130.0 * 1.10  # the cap-insensitive app


def test_slowest_node_paces_the_job():
    """Bulk-synchronous: capping one node slows the whole job."""
    sim, nodes, run = make_run("gemm", n_nodes=3)
    cap_each_gpu_power_limit(nodes[2], 100.0)
    sim.run(until=5000.0)
    assert run.runtime_s > 274.0 * 1.7


def test_demand_cleared_after_completion():
    sim, nodes, run = make_run("gemm")
    sim.run(until=1000.0)
    assert nodes[0].total_power_w() == pytest.approx(400.0)


def test_energy_accounting_consistent():
    sim, _, run = make_run("laghos", n_nodes=2)
    sim.run(until=100.0)
    assert run.finished
    # Energy/node over runtime must equal avg power.
    assert run.avg_node_power_w == pytest.approx(
        run.avg_node_energy_j / run.runtime_s
    )
    # Laghos averages near 470 W on Lassen.
    assert run.avg_node_power_w == pytest.approx(470.0, rel=0.05)


def test_max_node_power_at_least_avg():
    sim, _, run = make_run("quicksilver", work_scale=5.0)
    sim.run(until=500.0)
    assert run.max_node_power_w >= run.avg_node_power_w


def test_phases_stretch_under_caps():
    """Wall-clock phase period grows when the app is throttled.

    GEMM's iteration envelope is 12 s of *progress*; a deep 120 W GPU
    cap slows the high phase, so the wall period must exceed 12 s. This
    is the physical effect FPP's period detector keys on.
    """
    profile = get_profile("gemm")

    def measure_period(cap):
        sim = Simulator()
        node = make_lassen_node("n0")
        if cap:
            cap_each_gpu_power_limit(node, cap)
        record = JobRecord(jobid=1, spec=Jobspec(app="gemm", nnodes=1))
        AppRun(sim, record, [node], profile, work_scale=2.0)
        highs = []

        def probe():
            g = node.gpu_domains[0].actual_w
            highs.append(g > 100.0)

        from repro.simkernel import PeriodicTimer

        PeriodicTimer(sim, 0.5, lambda t: probe())
        sim.run(until=150.0)
        edges = [i for i in range(1, len(highs)) if highs[i] and not highs[i - 1]]
        if len(edges) < 3:
            return None
        return (edges[-1] - edges[0]) / (len(edges) - 1) * 0.5

    base = measure_period(None)
    capped = measure_period(120.0)
    assert base is not None and capped is not None
    assert base == pytest.approx(12.0, abs=1.0)
    assert capped > base + 1.0


def test_overhead_fn_slows_execution():
    sim, _, run = make_run("laghos", overhead_fn=lambda node: 0.10)
    sim.run(until=200.0)
    assert run.runtime_s == pytest.approx(12.55 / 0.9, abs=1.5)


def test_mixed_platform_job_rejected():
    sim = Simulator()
    nodes = [make_lassen_node("a"), make_tioga_node("b")]
    record = JobRecord(jobid=1, spec=Jobspec(app="gemm", nnodes=2))
    with pytest.raises(ValueError):
        AppRun(sim, record, nodes, get_profile("gemm"))


def test_empty_node_list_rejected():
    sim = Simulator()
    record = JobRecord(jobid=1, spec=Jobspec(app="gemm", nnodes=1))
    with pytest.raises(ValueError):
        AppRun(sim, record, [], get_profile("gemm"))


def test_on_done_callback_invoked_once():
    calls = []
    sim, _, run = make_run("laghos", on_done=calls.append)
    sim.run(until=100.0)
    assert calls == [1]


def test_tioga_run_uses_oam_domains():
    sim, nodes, run = make_run("lammps", platform="tioga")
    sim.run(until=10.0)  # mid-run
    oam = nodes[0].gpu_domains[0]
    assert oam.demand_w > oam.spec.idle_w  # 2 GCDs of demand per OAM
    sim.run(until=5000.0)
    assert run.finished
