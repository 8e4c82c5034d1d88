"""Error-path coverage for the monitor stack."""

import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec
from repro.flux.message import FluxRPCError
from repro.flux.module import RetryConfig
from repro.monitor.module import attach_monitor
from repro.monitor.node_agent import NodeAgentModule
from repro.monitor.root_agent import GET_JOB_POWER_TOPIC, RootAgentModule

NAN = float("nan")


def _degraded_total(instance):
    return sum(
        s.value
        for s in instance.telemetry.metrics.series_for(
            "monitor_degraded_aggregations_total"
        )
    )


def test_root_agent_requires_rank0(lassen4):
    with pytest.raises(ValueError):
        RootAgentModule(lassen4.brokers[1])


def test_node_agent_requires_hardware():
    from repro.flux.broker import Broker
    from repro.flux.overlay import TBON
    from repro.simkernel import Simulator

    sim = Simulator()
    broker = Broker(sim, 0, TBON(size=1))  # no node attached
    with pytest.raises(ValueError):
        NodeAgentModule(broker)


def test_get_job_power_degrades_when_node_agent_missing(lassen4):
    """Ranks without the monitor loaded degrade to per-node error records.

    Historically one missing node agent turned the whole query into an
    errnum=5 failure; now the aggregation completes with the unanswered
    ranks marked partial (the production behaviour the fault layer
    exists to prove).
    """
    # Load the root agent only (no node agents anywhere).
    lassen4.load_module_on_root(lambda b: RootAgentModule(b))
    fut = lassen4.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC, {"ranks": [1, 2], "t_start": 0.0, "t_end": 5.0}
    )
    lassen4.run_for(1.0)
    nodes = fut.value["nodes"]  # must not raise
    assert len(nodes) == 2
    for rec in nodes:
        assert rec["complete"] is False
        assert rec["samples"] == []
        assert rec["errnum"] == 38  # no service on that rank
        assert "error" in rec
    metrics = lassen4.telemetry.metrics
    degraded = sum(
        m.value for m in metrics.series_for("monitor_degraded_aggregations_total")
    )
    assert degraded == 1


def test_get_job_power_missing_args(lassen4):
    attach_monitor(lassen4)
    fut = lassen4.brokers[0].rpc(0, GET_JOB_POWER_TOPIC, {"ranks": [0]})
    lassen4.run_for(1.0)
    with pytest.raises(FluxRPCError):
        _ = fut.value


@pytest.mark.parametrize("window", [(NAN, 20.0), (0.0, NAN), (NAN, NAN)])
def test_node_agent_rejects_nan_window(lassen4, window):
    """A NaN bound is an invalid argument, not an empty or full window."""
    attach_monitor(lassen4, buffer_capacity=4)
    lassen4.run_for(20.0)
    fut = lassen4.brokers[0].rpc(
        1, "power-monitor.query", {"t_start": window[0], "t_end": window[1]}
    )
    lassen4.run_for(1.0)
    with pytest.raises(FluxRPCError) as err:
        _ = fut.value
    assert err.value.errnum == 22


@pytest.mark.parametrize("strategy", ["fanout", "tree"])
@pytest.mark.parametrize("window", [(NAN, 20.0), (0.0, NAN)])
def test_get_job_power_rejects_nan_window(strategy, window):
    inst = FluxInstance(platform="lassen", n_nodes=4, seed=3)
    attach_monitor(inst, strategy=strategy)
    inst.run_for(20.0)
    before = inst.telemetry.metrics.series_for("monitor_aggregations_total")
    fut = inst.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC,
        {"ranks": [0, 1, 2, 3], "t_start": window[0], "t_end": window[1]},
    )
    inst.run_for(1.0)
    with pytest.raises(FluxRPCError) as err:
        _ = fut.value
    assert err.value.errnum == 22
    # Rejected up front: no aggregation was started.
    assert inst.telemetry.metrics.series_for("monitor_aggregations_total") == before


def test_infinite_query_bounds_still_accepted(lassen4):
    attach_monitor(lassen4)
    lassen4.run_for(10.0)
    futs = [
        lassen4.brokers[0].rpc(
            0, GET_JOB_POWER_TOPIC,
            {"ranks": [0, 1], "t_start": t0, "t_end": math.inf},
        )
        for t0 in (0.0, -math.inf)
    ]
    lassen4.run_for(1.0)
    from_load, unbounded = (f.value["nodes"] for f in futs)
    assert [len(n["samples"]) for n in from_load + unbounded] == [6] * 4
    assert all(n["complete"] for n in from_load)
    # The window opens before the agents started sampling: partial.
    assert not any(n["complete"] for n in unbounded)


def test_tree_strategy_partial_rank_subsets():
    inst = FluxInstance(platform="lassen", n_nodes=8, seed=31)
    attach_monitor(inst, strategy="tree")
    inst.run_for(10.0)
    fut = inst.brokers[0].rpc(
        0,
        GET_JOB_POWER_TOPIC,
        {"ranks": [0, 3, 5, 7], "t_start": 0.0, "t_end": 10.0},
    )
    inst.run_for(1.0)
    hosts = sorted(n["hostname"] for n in fut.value["nodes"])
    assert hosts == ["lassen000", "lassen003", "lassen005", "lassen007"]


def test_client_timeout(lassen4):
    """With no root agent loaded, fetch errors rather than hanging."""
    mon = attach_monitor(lassen4)
    rec = lassen4.submit(Jobspec(app="laghos", nnodes=1))
    lassen4.run_until_complete()
    lassen4.unload_module_everywhere(RootAgentModule.name)
    with pytest.raises(FluxRPCError):
        mon.client.fetch(rec.jobid)


def test_flush_then_new_samples_flagged_correctly(lassen4):
    attach_monitor(lassen4)
    lassen4.run_for(20.0)
    lassen4.brokers[0].rpc(0, "power-monitor.clear", {})
    lassen4.run_for(20.0)
    # Old window: partial (history flushed). New window: complete.
    old = lassen4.brokers[0].rpc(
        0, "power-monitor.query", {"t_start": 0.0, "t_end": 18.0}
    )
    new = lassen4.brokers[0].rpc(
        0, "power-monitor.query", {"t_start": 24.0, "t_end": 38.0}
    )
    lassen4.run_for(1.0)
    assert old.value["complete"] is False
    assert new.value["complete"] is True


# ---------------------------------------------------------------------------
# Crash-driven degradation: retry exhaustion, errnum, restart mid-query
# ---------------------------------------------------------------------------

def test_retry_exhaustion_yields_exact_csv_marker_row(lassen4):
    """A crashed node's host appears as the explicit 8-field marker row."""
    mon = attach_monitor(
        lassen4, retry=RetryConfig(timeout_s=0.5, retries=1, backoff=1.0)
    )
    rec = lassen4.submit(Jobspec(app="laghos", nnodes=2))
    lassen4.run_until_complete()
    ranks = lassen4.kvs.get(f"jobs.{rec.jobid}")["ranks"]
    dead = max(ranks)
    assert dead != 0  # rank 0 hosts the root agent; crash a leaf
    FaultInjector(
        lassen4,
        FaultPlan(events=[FaultEvent(t=lassen4.sim.now + 0.1, kind="crash", rank=dead)]),
    )
    lassen4.run_for(0.5)

    data = mon.client.fetch(rec.jobid)
    host = lassen4.brokers[dead].node.hostname
    assert host in data.node_error
    assert data.node_complete[host] is False
    assert data.samples_for(host) == []

    lines = data.to_csv().splitlines()
    marker = f"{rec.jobid},{host},,,,,,partial"
    assert marker in lines
    assert marker.count(",") == 7  # all 8 CSV fields present, values empty
    # The surviving node still contributes ordinary complete rows.
    alive_host = lassen4.brokers[min(ranks)].node.hostname
    assert any(
        line.startswith(f"{rec.jobid},{alive_host},") and line.endswith("complete")
        for line in lines
    )


def test_crashed_rank_degrades_with_etimedout(lassen4):
    """Retry exhaustion against a dead broker propagates errnum 110."""
    attach_monitor(
        lassen4, retry=RetryConfig(timeout_s=0.5, retries=1, backoff=1.0)
    )
    lassen4.run_for(5.0)
    FaultInjector(
        lassen4,
        FaultPlan(events=[FaultEvent(t=lassen4.sim.now + 0.1, kind="crash", rank=2)]),
    )
    lassen4.run_for(0.5)
    before = _degraded_total(lassen4)

    fut = lassen4.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC, {"ranks": [1, 2], "t_start": 0.0, "t_end": 5.0}
    )
    lassen4.run_for(10.0)
    by_rank = {r["rank"]: r for r in fut.value["nodes"]}
    assert by_rank[2]["errnum"] == 110  # POSIX ETIMEDOUT from RPCTimeoutError
    assert by_rank[2]["complete"] is False
    assert by_rank[2]["samples"] == []
    assert "no response from rank 2" in by_rank[2]["error"]
    # The live rank is unaffected by its neighbour's death.
    assert by_rank[1]["complete"] is True
    assert by_rank[1]["samples"]
    assert _degraded_total(lassen4) == before + 1


def test_restart_during_query_recovers_without_error_record(lassen4):
    """A broker restarting inside the retry window answers a later attempt.

    The root agent's first attempt times out against the dead broker;
    the restart (with a fresh node agent reloaded, as the cluster facade
    does) lands before the retry budget is exhausted, so the query
    degrades to *partial data* — not an error record, and not a
    degraded-aggregation count.
    """
    mon = attach_monitor(lassen4)  # default retry: 5 s timeout, 2 retries
    lassen4.run_for(10.0)
    t0 = lassen4.sim.now
    dead = 1
    FaultInjector(
        lassen4,
        FaultPlan(
            events=[FaultEvent(t=t0 + 0.5, kind="crash", rank=dead, duration_s=4.0)]
        ),
        on_restart=lambda broker: mon.reload_agent(broker.rank),
    )
    lassen4.run_for(1.0)  # mid-outage: broker down, restart pending
    assert not lassen4.brokers[dead].up
    before = _degraded_total(lassen4)

    fut = lassen4.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC, {"ranks": [dead], "t_start": 0.0, "t_end": t0}
    )
    lassen4.run_for(30.0)
    rec = fut.value["nodes"][0]
    assert lassen4.brokers[dead].up  # restart happened during the query
    assert not rec.get("error")
    # The reloaded agent's ring buffer is empty: pre-crash history died
    # with the broker, so the pre-outage window comes back partial.
    assert rec["samples"] == []
    assert rec["complete"] is False
    assert _degraded_total(lassen4) == before
