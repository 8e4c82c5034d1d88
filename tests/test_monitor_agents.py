"""Unit tests for the monitor's node agents and root agent."""

import pytest

from repro.flux.instance import FluxInstance
from repro.monitor.module import attach_monitor
from repro.monitor.node_agent import NodeAgentModule
from repro.monitor.root_agent import GET_JOB_POWER_TOPIC


def test_node_agents_sample_on_the_grid(lassen4):
    mon = attach_monitor(lassen4, sample_interval_s=2.0)
    lassen4.run_for(10.0)
    agent = mon.agent_for_rank(0)
    # t=0 plus 5 ticks.
    assert agent.samples_taken == 6
    assert len(agent.buffer) == 6


def test_sampling_interval_configurable(lassen4):
    mon = attach_monitor(lassen4, sample_interval_s=0.5)
    lassen4.run_for(10.0)
    assert mon.agent_for_rank(1).samples_taken == 21


def test_node_agent_is_stateless_about_jobs(lassen4):
    """Samples accumulate with no job running at all."""
    mon = attach_monitor(lassen4)
    lassen4.run_for(20.0)
    assert mon.agent_for_rank(3).samples_taken > 0


def test_query_service_returns_window(lassen4):
    attach_monitor(lassen4)
    lassen4.run_for(20.0)
    fut = lassen4.brokers[0].rpc(2, "power-monitor.query", {"t_start": 4.0, "t_end": 8.0})
    lassen4.run_for(1.0)
    payload = fut.value
    assert payload["hostname"] == "lassen002"
    assert payload["complete"]
    ts = [s["timestamp"] for s in payload["samples"]]
    assert ts == [4.0, 6.0, 8.0]


def test_query_service_validates_args(lassen4):
    from repro.flux.message import FluxRPCError

    attach_monitor(lassen4)
    fut = lassen4.brokers[0].rpc(1, "power-monitor.query", {"t_start": 5.0})
    lassen4.run_for(1.0)
    with pytest.raises(FluxRPCError):
        _ = fut.value


def test_status_service(lassen4):
    attach_monitor(lassen4, buffer_capacity=50)
    lassen4.run_for(10.0)
    fut = lassen4.brokers[0].rpc(1, "power-monitor.status", {})
    lassen4.run_for(1.0)
    st = fut.value
    assert st["buffer_capacity"] == 50
    assert st["buffer_len"] == 6
    assert st["dropped"] == 0
    assert st["sample_interval_s"] == 2.0


def test_overhead_fraction_by_platform(lassen4, tioga2):
    mon_l = attach_monitor(lassen4)
    mon_t = attach_monitor(tioga2)
    assert mon_l.agent_for_rank(0).node_overhead_fraction == pytest.approx(0.0035)
    assert mon_t.agent_for_rank(0).node_overhead_fraction == pytest.approx(0.0004)


def test_root_agent_fanout_collects_all_ranks(lassen4):
    attach_monitor(lassen4)
    lassen4.run_for(10.0)
    fut = lassen4.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC, {"ranks": [0, 1, 2, 3], "t_start": 0.0, "t_end": 10.0}
    )
    lassen4.run_for(1.0)
    nodes = fut.value["nodes"]
    assert sorted(n["hostname"] for n in nodes) == [
        "lassen000",
        "lassen001",
        "lassen002",
        "lassen003",
    ]
    assert all(len(n["samples"]) == 6 for n in nodes)


def test_root_agent_rejects_empty_ranks(lassen4):
    from repro.flux.message import FluxRPCError

    attach_monitor(lassen4)
    fut = lassen4.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC, {"ranks": [], "t_start": 0.0, "t_end": 1.0}
    )
    lassen4.run_for(1.0)
    with pytest.raises(FluxRPCError):
        _ = fut.value


def test_tree_strategy_matches_fanout():
    """Hierarchical aggregation returns the same data as flat fan-out."""

    def collect(strategy):
        inst = FluxInstance(platform="lassen", n_nodes=8, seed=9)
        attach_monitor(inst, strategy=strategy)
        inst.run_for(10.0)
        fut = inst.brokers[0].rpc(
            0,
            GET_JOB_POWER_TOPIC,
            {"ranks": list(range(8)), "t_start": 0.0, "t_end": 10.0},
        )
        inst.run_for(1.0)
        nodes = sorted(fut.value["nodes"], key=lambda n: n["hostname"])
        return [(n["hostname"], len(n["samples"]), n["complete"]) for n in nodes]

    assert collect("fanout") == collect("tree")


def test_detach_unloads_agents(lassen4):
    mon = attach_monitor(lassen4)
    assert NodeAgentModule.name in lassen4.brokers[0].modules
    mon.detach()
    assert NodeAgentModule.name not in lassen4.brokers[0].modules
    # Sampling stopped.
    before = mon.agent_for_rank(0).samples_taken
    lassen4.run_for(10.0)
    assert mon.agent_for_rank(0).samples_taken == before


def test_invalid_strategy_rejected(lassen4):
    with pytest.raises(ValueError):
        attach_monitor(lassen4, strategy="gossip")
