"""The sampler is the monitor's one sampling coordinator.

Its per-sample side effects must be readable at any instant, not only
after an export: each tick charges the ``monitor`` overhead category at
once, and the one deferred write (the per-rank buffer gauges) lands
before a member leaves the sampler.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.flux.instance import FluxInstance
from repro.monitor.module import attach_monitor


def _occupancy(inst) -> dict:
    """``rank label -> value`` of every buffer-occupancy gauge."""
    metrics = inst.telemetry.metrics
    return {
        m.labels["rank"]: m.value
        for m in metrics.series_for("monitor_buffer_occupancy")
    }


def test_monitor_counter_handle_is_current_without_an_export():
    inst = FluxInstance(platform="lassen", n_nodes=3, seed=1)
    agents = attach_monitor(inst, sample_interval_s=2.0).node_agents
    counter = inst.telemetry.metrics.counter(
        "overhead_seconds_total", labels={"category": "monitor"}
    )
    inst.run_for(39.0)
    assert [a.samples_taken for a in agents] == [20] * 3
    expected = 0.0
    for _ in range(20):
        for agent in agents:
            expected += agent._charge_s
    assert expected > 0.0
    # A plain handle read: no export, no flush, no accountant read.
    assert counter.value == expected
    assert inst.telemetry.accountant.seconds("monitor") == expected


def test_catch_up_sample_charges_at_once():
    """An agent enrolled after its group ticked this instant charges its
    catch-up sample when it takes it, after the tick's charges."""
    inst = FluxInstance(platform="lassen", n_nodes=4, seed=3)
    monitor = attach_monitor(inst, sample_interval_s=2.0)
    counter = inst.telemetry.metrics.counter(
        "overhead_seconds_total", labels={"category": "monitor"}
    )
    inst.run_for(6.0)  # grid ticks at 0, 2, 4, 6 have fired
    before = counter.value
    agent = monitor.reload_agent(2)
    inst.run_for(1.0)  # the catch-up sample at 6.0; no grid tick
    assert agent.samples_taken == 1
    assert counter.value == before + agent._charge_s
    assert inst.telemetry.accountant.seconds("monitor") == counter.value


def test_detach_before_a_flush_keeps_the_buffer_gauges():
    inst = FluxInstance(platform="lassen", n_nodes=2, seed=1)
    monitor = attach_monitor(inst, sample_interval_s=2.0)
    inst.run_for(5.0)
    monitor.detach()
    assert sum(a.samples_taken for a in monitor.node_agents) == 6
    assert "monitor_buffer_occupancy" in inst.telemetry.metrics.names()
    assert _occupancy(inst) == {"0": 3, "1": 3}


def test_crashed_rank_keeps_its_last_buffer_gauge():
    inst = FluxInstance(platform="lassen", n_nodes=3, seed=1)
    attach_monitor(inst, sample_interval_s=2.0)
    FaultInjector(
        inst, FaultPlan(events=[FaultEvent(t=5.0, kind="crash", rank=2)])
    )
    inst.run_for(9.0)
    occupancy = _occupancy(inst)
    assert occupancy["2"] == 3.0
    assert occupancy["0"] == occupancy["1"] == 5.0


def test_clear_is_the_last_write_to_a_shared_rank_gauge():
    """Two instances on one engine share the ``rank="0"`` gauges. A
    clear on one of them lands after the other's earlier samples, so
    the gauge reads the cleared ring, as with per-sample writes."""
    from repro.simkernel import Simulator

    sim = Simulator()
    instances = [
        FluxInstance(platform="lassen", n_nodes=2, seed=1, sim=sim,
                     hostname_prefix=prefix)
        for prefix in ("a", "b")
    ]
    for inst in instances:
        attach_monitor(inst, sample_interval_s=2.0)
    first = instances[0]
    first.run_for(5.0)
    fut = first.brokers[0].rpc(0, "power-monitor.clear", {})
    first.run_for(0.5)
    assert fut.value["flushed"] == 3
    assert _occupancy(first)["0"] == 0
    dropped = first.telemetry.metrics.gauge(
        "monitor_buffer_dropped", labels={"rank": "0"}
    )
    assert dropped.value == 3
