"""Literal pins for the node-agent cases that used to leave the columnar ring.

Every node agent samples into a
:class:`~repro.columnar.store.ColumnarRing`. Four kinds of agent once
fell back to an explicit per-tick ring buffer: a hand-built agent whose
node the columnar store had not adopted, an agent on a noisy sensor, an
agent whose per-sample charge differed from its engine's first one (a
Tioga cluster beside a Lassen one), and an agent enrolled at an instant
its sampler group had already ticked. A snapshot restore used to demote
a ring as well. The digests below were recorded from the explicit-buffer
implementation; each run asserts that every agent now holds a ring.
"""

from __future__ import annotations

import hashlib
import json

from repro.columnar.store import ColumnarRing
from repro.faults.plan import FaultEvent, FaultPlan
from repro.federation import ClusterSpec, FederatedSite, SiteConfig
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec
from repro.lifecycle.snapshot import restore_site, snapshot_site, wipe_site_state
from repro.monitor.module import attach_monitor
from repro.monitor.node_agent import QUERY_TOPIC, NodeAgentModule
from repro.monitor.root_agent import GET_JOB_POWER_TOPIC
from repro.simtest.federation.harness import run_federated_scenario
from repro.simtest.federation.scenario import ClusterScenario, FederatedScenario
from repro.simtest.scenario import JobEntry


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()


def _await(inst, fut):
    while not fut.triggered:
        if not inst.sim.step():
            raise RuntimeError("drained before the reply arrived")
    return fut.value


def _assert_all_rings(agents) -> None:
    assert agents and all(isinstance(a.buffer, ColumnarRing) for a in agents)


# ----------------------------------------------------------------------
# Noisy sensors + a same-instant reload (catch-up sample)
# ----------------------------------------------------------------------
def _noisy_run():
    inst = FluxInstance(
        platform="lassen", n_nodes=4, seed=13, sensor_noise_sigma_w=3.0
    )
    monitor = attach_monitor(inst, sample_interval_s=2.0, buffer_capacity=12)
    inst.sim.schedule(7.3, lambda: inst.nodes[1].gpu_domains[0].set_demand(180.0))
    inst.run_for(10.0)  # the t=10 group tick has fired
    monitor.reload_agent(2)  # same instant: one catch-up sample
    inst.run_for(20.0)
    fut = inst.brokers[0].rpc(
        0, GET_JOB_POWER_TOPIC,
        {"ranks": list(range(4)), "t_start": 0.0, "t_end": 30.0},
    )
    return monitor, _await(inst, fut)


def test_noisy_sensors_with_catch_up_sample_are_pinned():
    monitor, payload = _noisy_run()
    _assert_all_rings(monitor.node_agents)
    reloaded = monitor.node_agents[2]
    assert [t for t, _ in reloaded.buffer.snapshot()][:2] == [10.0, 12.0]
    assert reloaded.samples_taken == 11
    assert _digest(payload) == (
        "644a3ed65a2fc2da4c2419773d057b33ef1a3fd30c6b0c7bc2e4d2f6bc86289f"
    )


# ----------------------------------------------------------------------
# A hand-built agent outside attach_monitor (node not adopted up front)
# ----------------------------------------------------------------------
def test_hand_built_agent_is_pinned():
    inst = FluxInstance(platform="tioga", n_nodes=2, seed=4)
    agents = []
    for broker in inst.brokers:
        agent = NodeAgentModule(broker, sample_interval_s=2.0, buffer_capacity=5)
        broker.load_module(agent)
        agents.append(agent)
    inst.sim.schedule(5.0, lambda: inst.nodes[0].gpu_domains[0].set_demand(150.0))
    inst.run_for(15.0)
    _assert_all_rings(agents)
    replies = [
        _await(inst, inst.brokers[0].rpc(
            r, QUERY_TOPIC, {"t_start": 0.0, "t_end": 15.0}))
        for r in range(2)
    ]
    assert [len(r["samples"]) for r in replies] == [5, 5]
    assert _digest(replies) == (
        "37b3525aa6bf5a7f0813e7ac49ef4d5a3afed93cb30b1746006b8ec6db38e023"
    )
    assert inst.telemetry.accountant.seconds("monitor") == 0.012800000000000004


# ----------------------------------------------------------------------
# Two per-sample charge constants on one engine: lassen/tioga/lassen
# ----------------------------------------------------------------------
def _mixed_config() -> SiteConfig:
    return SiteConfig(
        site_budget_w=30_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterSpec(name="east", platform="lassen", n_nodes=3),
            ClusterSpec(name="mid", platform="tioga", n_nodes=2),
            ClusterSpec(name="west", platform="lassen", n_nodes=2),
        ),
    )


def test_mixed_platform_site_monitor_charge_and_digest_are_pinned():
    plan = FaultPlan(events=[
        FaultEvent(t=21.0, kind="crash", rank=1),
        FaultEvent(t=31.0, kind="restart", rank=1),
    ])
    site = FederatedSite(_mixed_config(), seed=5, fault_plans={"mid": plan})
    site.submit("east", Jobspec(app="gemm", nnodes=2))
    site.submit("mid", Jobspec(app="gemm", nnodes=2))
    site.submit_at("west", Jobspec(app="lammps", nnodes=2), 9.0)
    site.run_for(80.0)
    for cluster in site.clusters.values():
        _assert_all_rings(cluster.monitor.node_agents)
    assert site.telemetry.accountant.seconds("monitor") == 1.4965999999999922
    assert site.site_digest() == (
        "348d39800244afe353a59af12e279b578d5673679ac567a1589e1ec37b27248b"
    )


def test_mixed_platform_site_crash_restore_after_outage_is_equivalent():
    scenario = FederatedScenario(
        seed=3,
        site_budget_w=20_000.0,
        rebalance_epoch_s=10.0,
        clusters=(
            ClusterScenario(
                name="east", platform="lassen", n_nodes=3,
                jobs=(JobEntry(app="gemm", nnodes=2, work_scale=4.0),),
                outages=((6.0, 8.0),),
            ),
            ClusterScenario(
                name="mid", platform="tioga", n_nodes=2, static_node_cap_w=None,
                node_peak_w=3200.0,
                jobs=(JobEntry(app="gemm", nnodes=2, work_scale=3.0,
                               submit_t=1.0),),
            ),
            ClusterScenario(
                name="west", platform="lassen", n_nodes=2,
                jobs=(JobEntry(app="nqueens", nnodes=2, work_scale=3.0,
                               submit_t=2.0),),
            ),
        ),
    )
    base = run_federated_scenario(scenario)
    assert base.ok, base.summary()
    assert base.makespan_s is not None and base.makespan_s > 21.0
    restored = []

    def _crash_restore(site, sim):
        def _cycle():
            blob = json.dumps(snapshot_site(site), sort_keys=True)
            wipe_site_state(site)
            restore_site(site, json.loads(blob))
            for cluster in site.clusters.values():
                _assert_all_rings(cluster.monitor.node_agents)
            restored.append(sim.now)

        sim.schedule_at(21.0, _cycle)  # after east's 6 -> 14 outage

    recovered = run_federated_scenario(scenario, setup=_crash_restore)
    assert restored == [21.0]
    assert recovered.ok, recovered.summary()
    assert recovered.digest == base.digest == (
        "ee7292e2c8d34015cdd83f72e57c03465f1e945dbf3e3eae9dc00821a8601248"
    )


def test_two_charge_constants_replay_in_timer_order_with_a_bounded_queue():
    """Lassen and Tioga agents on one engine: the tick charges sum
    exactly as per-agent timers would add them, tick by tick in
    registration order."""
    from repro.simkernel import Simulator

    sim = Simulator()
    agents = []
    for platform in ("lassen", "tioga"):
        inst = FluxInstance(platform=platform, n_nodes=2, seed=1, sim=sim,
                            hostname_prefix=f"{platform}-x")
        agents += attach_monitor(inst, sample_interval_s=2.0).node_agents
    charges = [a._charge_s for a in agents]
    assert charges[0] != charges[-1]
    inst.run_for(2058.0)
    _assert_all_rings(agents)
    expected = 0.0
    for _ in range(agents[0].samples_taken):
        for c in charges:
            expected += c
    assert inst.telemetry.accountant.seconds("monitor") == expected
