"""Edge-case coverage across modules."""

import pytest

from repro import variorum
from repro.flux.broker import Broker
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec
from repro.flux.module import Module
from repro.flux.overlay import TBON
from repro.hardware.platforms.generic import make_generic_node
from repro.monitor.overhead import sampling_overhead_fraction
from repro.simkernel import Simulator, Timeout


# ---------------------------------------------------------------------------
# Variorum: Intel best-effort with GPUs present
# ---------------------------------------------------------------------------

def test_intel_best_effort_splits_cpu_and_gpu_budget():
    node = make_generic_node("g0", n_gpus=2)
    res = variorum.cap_best_effort_node_power_limit(node, 600.0)
    assert res["best_effort"] is True
    assert "gpu_cap_watts" in res
    assert node.cpu_domains[0].get_cap("rapl") is not None
    assert node.gpu_domains[0].get_cap("nvml") is not None


def test_intel_best_effort_clamps_socket_caps():
    node = make_generic_node("g0")
    res = variorum.cap_best_effort_node_power_limit(node, 5000.0)
    # Huge budget: sockets clamp to their max cap, not beyond.
    assert res["socket_cap_watts"] <= node.cpu_domains[0].spec.max_cap_w


# ---------------------------------------------------------------------------
# Monitor overhead model
# ---------------------------------------------------------------------------

def test_overhead_unknown_platform_uses_generic_cost():
    assert sampling_overhead_fraction("cray-1", 2.0) == sampling_overhead_fraction(
        "generic", 2.0
    )


def test_overhead_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        sampling_overhead_fraction("lassen", 0.0)


def test_overhead_capped_at_half():
    assert sampling_overhead_fraction("lassen", 1e-6) == 0.5


# ---------------------------------------------------------------------------
# Instance error paths
# ---------------------------------------------------------------------------

def test_run_until_complete_times_out():
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=1)
    inst.submit(Jobspec(app="gemm", nnodes=1, params={"work_scale": 100}))
    with pytest.raises(RuntimeError):
        inst.run_until_complete(timeout_s=5.0)


def test_run_until_complete_detects_drained_heap():
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=1)
    rec = inst.submit(Jobspec(app="laghos", nnodes=1))
    # Kill the app process: the job never completes, the heap drains.
    inst.run_for(1.0)
    inst.app_runs[rec.jobid].process.kill()
    with pytest.raises(RuntimeError):
        inst.run_until_complete(timeout_s=1000.0)


def test_instance_rejects_mismatched_event_budget():
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=1)
    inst.submit(Jobspec(app="laghos", nnodes=1))
    with pytest.raises(RuntimeError):
        inst.run_until_complete(max_events=3)


# ---------------------------------------------------------------------------
# AppRun starvation branch
# ---------------------------------------------------------------------------

def test_starved_app_waits_and_resumes():
    """A fully-starved job makes no progress but recovers when caps lift."""
    from repro.apps.base import AppProfile, PlatformDemand
    from repro.apps.registry import register_profile, unregister_profile
    from repro.apps.run import AppRun
    from repro.flux.jobspec import JobRecord
    from repro.hardware.platforms.lassen import make_lassen_node

    # A pathological profile: 100% GPU-sensitive with a floor-less
    # response, so a deep cap stalls it almost completely.
    register_profile(
        "stallable",
        lambda: AppProfile(
            name="stallable",
            scaling="weak",
            launcher="mpi",
            base_runtime_s=50.0,
            ref_nodes=1,
            gpu_frac=1.0,
            cpu_frac=0.0,
            beta_gpu=1.0,
            gamma_gpu=1.0,
            demand={"lassen": PlatformDemand(0.0, 0.0, 250.0)},
        ),
    )
    from repro.apps.registry import get_profile

    try:
        sim = Simulator()
        node = make_lassen_node("n0")
        variorum.cap_each_gpu_power_limit(node, 100.0)  # dyn grant 50/250
        record = JobRecord(jobid=1, spec=Jobspec(app="stallable", nnodes=1))
        run = AppRun(sim, record, [node], get_profile("stallable"))
        sim.run(until=100.0)
        assert not run.finished
        node.nvml.clear_all()
        sim.run(until=400.0)
        assert run.finished
    finally:
        unregister_profile("stallable")


# ---------------------------------------------------------------------------
# Module helpers
# ---------------------------------------------------------------------------

def test_module_spawned_processes_killed_on_unload():
    sim = Simulator()
    overlay = TBON(size=1)
    broker = Broker(sim, 0, overlay)
    ticks = []

    class Spawner(Module):
        name = "spawner"

        def on_load(self):
            self.spawn(self._loop())

        def _loop(self):
            while True:
                yield Timeout(1.0)
                ticks.append(sim.now)

    broker.load_module(Spawner(broker))
    sim.run(until=3.0)
    assert len(ticks) == 3
    broker.unload_module("spawner")
    sim.run(until=10.0)
    assert len(ticks) == 3  # loop killed


def test_event_published_from_rank0_reaches_itself():
    sim = Simulator()
    overlay = TBON(size=2)
    registry = {}
    b0 = Broker(sim, 0, overlay, registry=registry)
    Broker(sim, 1, overlay, registry=registry)
    got = []
    b0.subscribe("self.", lambda m: got.append(m.seq))
    b0.publish("self.test")
    sim.run()
    assert got == [1]


def test_unregister_service_is_idempotent():
    sim = Simulator()
    broker = Broker(sim, 0, TBON(size=1))
    broker.register_service("x", lambda b, m: None)
    broker.unregister_service("x")
    broker.unregister_service("x")
    # Gone: registering the topic again is not a duplicate.
    broker.register_service("x", lambda b, m: None)
