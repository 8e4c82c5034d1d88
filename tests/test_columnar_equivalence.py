"""Hypothesis pins: the columnar sampling path equals its scalar reference.

The columnar store may only stand in for explicit per-node ring buffers
because every shortcut it takes is *bitwise* equal to the work it
skips:

* :func:`repro.telemetry.metrics.repeat_add` (the bulk replay of
  deferred accountant charges) vs the sequential ``+=`` loop;
* implicit ring contents: a whole-machine job-power query returns
  payloads identical to the same run with every agent demoted to an
  explicit buffer (the snapshot-restore fallback), including across a
  mid-window power mutation (template rebuild).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import repeat_add

# ---------------------------------------------------------------------------
# repeat_add (bulk deferred-charge replay)
# ---------------------------------------------------------------------------


@given(
    base=st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    amount=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    count=st.integers(0, 5000),
)
def test_repeat_add_matches_sequential_loop(base, amount, count):
    expect = base
    for _ in range(count):
        expect += amount
    got = repeat_add(base, amount, count)
    assert math.isinf(got) == math.isinf(expect)
    if not math.isinf(expect):
        assert got == expect  # bitwise: same left-to-right IEEE adds


def test_repeat_add_crosses_chunk_boundary():
    """Chunked accumulation equals one unbroken sequential pass."""
    count = (1 << 20) + 17
    expect = 5.0
    for _ in range(count):
        expect += 0.3e-3
    assert repeat_add(5.0, 0.3e-3, count) == expect


# ---------------------------------------------------------------------------
# columnar rings == explicit buffers, through a real query
# ---------------------------------------------------------------------------


def _whole_machine_query(columnar: bool, n_nodes: int, platform: str,
                         mutate_at: float, window_s: float):
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor
    from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

    inst = FluxInstance(platform=platform, n_nodes=n_nodes, seed=11)
    monitor = attach_monitor(inst, sample_interval_s=2.0)
    if not columnar:
        _demote_everywhere(monitor)
    # A mid-window power mutation forces a segment/template rebuild on
    # the columnar side (and a template invalidation on the scalar one).
    first = inst.brokers[0].node

    def _mutate() -> None:
        gpus = first.gpu_domains
        if gpus:
            gpus[0].set_demand(175.0)

    inst.sim.schedule(mutate_at, _mutate)
    inst.run_for(window_s)
    fut = inst.brokers[0].rpc(
        0,
        GET_JOB_POWER_TOPIC,
        {"ranks": list(range(n_nodes)), "t_start": 0.0, "t_end": window_s},
    )
    while not fut.triggered:
        if not inst.sim.step():
            raise RuntimeError("drained before query completed")
    assert all(
        (agent._ring is not None) == columnar for agent in monitor.node_agents
    )
    return fut.value


def _demote_everywhere(monitor) -> None:
    """Put every agent, and every agent reloaded later, on an explicit
    buffer through the snapshot-restore demotion path."""
    for agent in monitor.node_agents:
        agent._demote()
    reload_agent = monitor.reload_agent

    def reload_scalar(rank):
        agent = reload_agent(rank)
        agent._demote()
        return agent

    monitor.reload_agent = reload_scalar


@settings(max_examples=10, deadline=None)
@given(
    n_nodes=st.integers(1, 6),
    platform=st.sampled_from(["lassen", "tioga", "elcapitan"]),
    mutate_at=st.floats(0.5, 18.0, allow_nan=False),
)
def test_columnar_query_equals_scalar_query(n_nodes, platform, mutate_at):
    window = 20.0
    scalar = _whole_machine_query(False, n_nodes, platform, mutate_at, window)
    columnar = _whole_machine_query(True, n_nodes, platform, mutate_at, window)
    # Full payload, every rank, every sample: the columnar side carries
    # lazy ColumnarSamples views, which compare equal to sample lists.
    assert columnar == scalar


@pytest.mark.parametrize("platform", ["lassen", "elcapitan"])
def test_columnar_query_equality_with_restart(platform):
    """Crash/restart (ring freeze, fresh agent) keeps payload equality."""
    from repro.cluster import PowerManagedCluster
    from repro.faults import FaultEvent, FaultPlan
    from repro.flux.jobspec import Jobspec
    from repro.manager.cluster_manager import ManagerConfig

    def run(columnar: bool):
        cluster = PowerManagedCluster(
            platform=platform,
            n_nodes=8,
            seed=21,
            manager_config=ManagerConfig(
                global_cap_w=12_000.0,
                policy="proportional",
                static_node_cap_w=1800.0,
            ),
            fault_plan=FaultPlan(
                [
                    FaultEvent(t=7.5, kind="crash", rank=3),
                    FaultEvent(t=14.0, kind="restart", rank=3),
                ]
            ),
        )
        if not columnar:
            _demote_everywhere(cluster.monitor)
        job = cluster.submit(Jobspec(app="gemm", nnodes=6))
        cluster.run_until_complete(timeout_s=1_000_000)
        cluster.run_for(4.0)
        return cluster.monitor.client.fetch(job.jobid, timeout_s=300.0).to_csv()

    assert run(True) == run(False)


def test_columnar_samples_compare_as_a_sequence():
    """A ring query's lazy view equals the explicit path's sample list,
    so in-process payloads compare equal whichever path served them."""
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor

    inst = FluxInstance(platform="lassen", n_nodes=1, seed=2)
    monitor = attach_monitor(inst, sample_interval_s=2.0)
    inst.run_for(7.0)
    (agent,) = monitor.node_agents
    samples, _complete = agent.buffer.range(0.0, 7.0)
    listed = list(samples)
    assert len(listed) == 4
    assert samples == listed and listed == samples
    assert samples == tuple(listed)
    assert samples == agent.buffer.range(0.0, 7.0)[0]
    assert samples != listed[:-1] and samples != listed[1:] + listed[:1]
    empty, _ = agent.buffer.range(100.0, 200.0)
    assert empty == [] and [] == empty and empty != samples
    assert samples != "not a sequence"
    with pytest.raises(TypeError):
        hash(samples)
