"""Hypothesis pins: the columnar sampling path equals its scalar reference.

The columnar rings may only stand in for explicit per-node ring buffers
because every shortcut the sampling path takes is *bitwise* equal to
the work it skips:

* :func:`repro.telemetry.metrics.repeat_add` (a sampler tick's bulk
  accountant charge) vs the sequential ``+=`` loop, however the
  charges are split into runs;
* implicit ring contents: a whole-machine job-power query returns the
  samples that one timer and one explicit ring buffer per node would
  hold, including across a mid-window power mutation (template
  rebuild) and ring wrap; a crash/restart run keeps the job CSV
  recorded with explicit buffers. ``tests/test_ring_model.py`` drives
  a ring and the reference buffer through the same operations.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import repeat_add

# ---------------------------------------------------------------------------
# repeat_add (bulk tick charges)
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


@given(
    base=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    amount=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    a=st.integers(0, 2000),
    b=st.integers(0, 2000),
)
def test_repeat_add_runs_split_anywhere(base, amount, a, b):
    """Two runs of ``a`` and ``b`` charges land on one run of ``a + b``:
    a tick charging per group equals any coarser batching."""
    split = repeat_add(repeat_add(base, amount, a), amount, b)
    assert split == repeat_add(base, amount, a + b)


def test_repeat_add_crosses_chunk_boundary():
    """Chunked accumulation equals one unbroken sequential pass."""
    count = (1 << 20) + 17
    expect = 5.0
    for _ in range(count):
        expect += 0.3e-3
    assert repeat_add(5.0, 0.3e-3, count) == expect


# ---------------------------------------------------------------------------
# columnar rings == per-node reference buffers, through a real query
# ---------------------------------------------------------------------------


def _reference_buffers(inst, monitor):
    """One timer and one explicit :class:`CircularBuffer` per agent, on
    the agent's grid, filled from the full (template-free) Variorum
    sample path: the layout the golden fixtures were recorded with."""
    from tests.ring_reference import CircularBuffer
    from repro.variorum.backends import get_backend

    sim = inst.sim
    buffers = []
    for agent in monitor.node_agents:
        node = agent.broker.node
        backend = get_backend(node.spec.vendor)
        buf = CircularBuffer(agent.buffer_capacity)

        def _sample(node=node, buf=buf, backend=backend) -> None:
            buf.append(sim.now, backend.get_node_power_json(node, sim.now))

        sim.schedule_periodic(agent.sample_interval_s, _sample, first_time=sim.now)
        buffers.append(buf)
    return buffers


@settings(max_examples=10, deadline=None)
@given(
    n_nodes=st.integers(1, 6),
    platform=st.sampled_from(["lassen", "tioga", "elcapitan"]),
    mutate_at=st.floats(0.5, 18.0, allow_nan=False),
    capacity=st.integers(3, 12),
)
def test_columnar_query_equals_scalar_query(n_nodes, platform, mutate_at, capacity):
    from repro.columnar.store import ColumnarRing
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor
    from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

    window = 20.0
    inst = FluxInstance(platform=platform, n_nodes=n_nodes, seed=11)
    monitor = attach_monitor(inst, sample_interval_s=2.0, buffer_capacity=capacity)
    reference = _reference_buffers(inst, monitor)
    # A mid-window power mutation forces a segment/template rebuild.
    first = inst.brokers[0].node

    def _mutate() -> None:
        gpus = first.gpu_domains
        if gpus:
            gpus[0].set_demand(175.0)

    inst.sim.schedule(mutate_at, _mutate)
    inst.run_for(window)
    fut = inst.brokers[0].rpc(
        0,
        GET_JOB_POWER_TOPIC,
        {"ranks": list(range(n_nodes)), "t_start": 0.0, "t_end": window},
    )
    while not fut.triggered:
        if not inst.sim.step():
            raise RuntimeError("drained before query completed")
    assert all(isinstance(a.buffer, ColumnarRing) for a in monitor.node_agents)
    records = fut.value["nodes"]
    assert [r["rank"] for r in records] == list(range(n_nodes))
    for record, buf in zip(records, reference):
        samples, complete = buf.range(0.0, window)
        # Lazy ColumnarSamples views compare equal to sample lists.
        assert record["samples"] == samples
        assert record["complete"] is complete


#: CSV digests recorded with one explicit ring buffer per agent.
RESTART_CSV_SHA256 = {
    "lassen": "c37002a587117876c6b0da9389001eeb7cccfcd0dc09c157bea10d39d8ed51c1",
    "elcapitan": "15af0e796c7e88796de829fe52f57e92f64cbf051a4db281e7e8b19a3dce8f6b",
}


@pytest.mark.parametrize("platform", ["lassen", "elcapitan"])
def test_columnar_query_equality_with_restart(platform):
    """Crash/restart (ring freeze, fresh agent) keeps the job CSV."""
    import hashlib

    from repro.cluster import PowerManagedCluster
    from repro.faults import FaultEvent, FaultPlan
    from repro.flux.jobspec import Jobspec
    from repro.manager.cluster_manager import ManagerConfig

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
    job = cluster.submit(Jobspec(app="gemm", nnodes=6))
    cluster.run_until_complete(timeout_s=1_000_000)
    cluster.run_for(4.0)
    csv = cluster.monitor.client.fetch(job.jobid, timeout_s=300.0).to_csv()
    digest = hashlib.sha256(csv.encode()).hexdigest()
    assert digest == RESTART_CSV_SHA256[platform]


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
