"""Unit tests for the node-level manager."""

import pytest

from repro.manager.module import attach_manager
from repro.manager.cluster_manager import ManagerConfig
from repro.manager.node_manager import JOB_DEPARTED_TOPIC, SET_LIMIT_TOPIC


def manager_on(instance, policy="proportional", static_cap=None):
    return attach_manager(
        instance,
        ManagerConfig(
            global_cap_w=9600.0, policy=policy, static_node_cap_w=static_cap
        ),
    )


def test_static_node_cap_installed_at_load(lassen4):
    manager_on(lassen4, policy="static", static_cap=1950.0)
    for node in lassen4.nodes:
        assert node.opal.node_cap_w == 1950.0
        assert node.gpu_domains[0].get_cap("opal") == pytest.approx(253.0, abs=1.0)


def test_set_limit_service_enforces_gpu_caps(lassen4):
    mgr = manager_on(lassen4)
    fut = lassen4.brokers[0].rpc(2, SET_LIMIT_TOPIC, {"limit_w": 1200.0, "jobid": 7})
    lassen4.run_for(1.0)
    assert fut.value["limit_w"] == 1200.0
    nm = mgr.node_managers[2]
    assert nm.node_limit_w == 1200.0
    assert nm.current_jobid == 7
    caps = [g.get_cap("nvml") for g in lassen4.nodes[2].gpu_domains]
    assert all(c is not None for c in caps)
    assert len(set(caps)) == 1  # uniform split


def test_set_limit_validates_payload(lassen4):
    from repro.flux.message import FluxRPCError

    manager_on(lassen4)
    fut = lassen4.brokers[0].rpc(1, SET_LIMIT_TOPIC, {"limit_w": -5.0})
    lassen4.run_for(1.0)
    with pytest.raises(FluxRPCError):
        _ = fut.value


#: Per cap domain on Lassen: (node attribute of its devices, count,
#: cap source of the manager's writes, capping range).
LASSEN_DIALS = {
    "gpu": ("gpu_domains", 4, "nvml", (100.0, 300.0)),
    "socket": ("cpu_domains", 2, "socket-manager", (50.0, 250.0)),
}
DOMAINS = pytest.mark.parametrize("domain", sorted(LASSEN_DIALS))


@DOMAINS
def test_share_respects_cap_range(lassen4, domain):
    mgr = manager_on(lassen4)
    nm = mgr.node_managers[0]
    _attr, count, _source, (lo, hi) = LASSEN_DIALS[domain]
    assert nm.device_count(domain) == count
    assert nm.cap_range(domain) == (lo, hi)
    # Derivation fits the budget: devices + the other-power estimate.
    assert lo <= nm.derive_share(domain, 700.0) <= hi
    # Very low node limit: the per-device budget falls under the floor.
    assert nm.derive_share(domain, 300.0) == lo
    # Very high limit: clamped to the device max.
    assert nm.derive_share(domain, 3000.0) == hi


def test_non_gpu_estimate_refines_with_measurements(lassen4):
    mgr = manager_on(lassen4)
    nm = mgr.node_managers[0]
    initial = nm.other_power_w("gpu")
    for name, watts in (("cpu0", 250.0), ("cpu1", 250.0), ("memory0", 150.0)):
        lassen4.nodes[0].domains[name].set_demand(watts)
    lassen4.run_for(30.0)  # several tracker samples
    refined = nm.other_power_w("gpu")
    assert refined > initial
    # Converges towards actual non-GPU power: 500 cpu + 150 mem + 90 uncore.
    assert refined == pytest.approx(740.0, rel=0.05)


@DOMAINS
def test_other_power_estimate_tracks_measurements(lassen4, domain):
    mgr = manager_on(lassen4)
    nm = mgr.node_managers[0]
    node = lassen4.nodes[0]
    for name in ("cpu0", "cpu1", "gpu0"):
        node.domains[name].set_demand(250.0)
    lassen4.run_for(30.0)
    attr = LASSEN_DIALS[domain][0]
    other = node.total_power_w() - sum(d.actual_w for d in getattr(node, attr))
    assert nm.other_power_w(domain) == pytest.approx(other)


def test_unknown_cap_domain_raises(lassen4):
    mgr = manager_on(lassen4)
    nm = mgr.node_managers[0]
    for dial in (
        lambda: nm.device_count("memory"),
        lambda: nm.cap_range("memory"),
        lambda: nm.other_power_w("memory"),
        lambda: nm.derive_share("memory", 1000.0),
        lambda: nm.set_cap("memory", 0, 100.0),
        lambda: nm.clear_caps("memory"),
    ):
        with pytest.raises(ValueError, match="unknown cap domain"):
            dial()


def test_job_departed_resets_state(lassen4):
    mgr = manager_on(lassen4)
    lassen4.brokers[0].rpc(1, SET_LIMIT_TOPIC, {"limit_w": 1000.0, "jobid": 3})
    lassen4.run_for(1.0)
    lassen4.brokers[0].rpc(1, JOB_DEPARTED_TOPIC, {"jobid": 3})
    lassen4.run_for(1.0)
    nm = mgr.node_managers[1]
    assert nm.current_jobid is None
    assert nm.node_limit_w is None
    assert all(g.get_cap("nvml") is None for g in lassen4.nodes[1].gpu_domains)


def test_new_jobid_resets_policy(lassen4):
    mgr = manager_on(lassen4, policy="fpp")
    lassen4.brokers[0].rpc(0, SET_LIMIT_TOPIC, {"limit_w": 1200.0, "jobid": 1})
    lassen4.run_for(1.0)
    nm = mgr.node_managers[0]
    nm.policy.controllers[0].converged = True
    lassen4.brokers[0].rpc(0, SET_LIMIT_TOPIC, {"limit_w": 1400.0, "jobid": 2})
    lassen4.run_for(1.0)
    assert not nm.policy.controllers[0].converged  # fresh controllers


def test_status_service(lassen4):
    manager_on(lassen4)
    fut = lassen4.brokers[0].rpc(3, "power-manager.status", {})
    lassen4.run_for(1.0)
    st = fut.value
    assert st["rank"] == 3
    assert st["policy"]["policy"] == "proportional"


def test_tioga_cap_failures_counted(tioga2):
    """Capping is refused on Tioga; the manager records the failures."""
    mgr = attach_manager(
        tioga2,
        ManagerConfig(global_cap_w=5000.0, policy="proportional"),
    )
    nm = mgr.node_managers[0]
    nm.set_cap("gpu", 0, 300.0)
    assert nm.cap_request_failures >= 1


def _cap_sets(instance, domain):
    return sum(
        s.value
        for s in instance.telemetry.metrics.series_for(
            f"manager_{domain}_cap_sets_total"
        )
    )


@DOMAINS
def test_set_cap_skips_redundant_requests(lassen4, domain):
    mgr = manager_on(lassen4, policy="static")
    nm = mgr.node_managers[0]
    nm.set_cap(domain, 0, 200.0)
    before = _cap_sets(lassen4, domain)
    nvml_before = lassen4.nodes[0].nvml.requests
    nm.set_cap(domain, 0, 200.0)  # same value: no driver call
    assert _cap_sets(lassen4, domain) == before == 1
    assert lassen4.nodes[0].nvml.requests == nvml_before


@DOMAINS
def test_set_cap_clamps_into_range_and_clear_drops_it(lassen4, domain):
    mgr = manager_on(lassen4, policy="static")
    nm = mgr.node_managers[0]
    attr, _count, source, (lo, _hi) = LASSEN_DIALS[domain]
    devices = getattr(lassen4.nodes[0], attr)
    nm.set_cap(domain, 0, 10.0)  # below min -> clamped
    assert devices[0].get_cap(source) == lo
    assert nm._last_caps[domain][0] == lo
    nm.clear_caps(domain)
    assert devices[0].get_cap(source) is None
    assert nm._last_caps[domain] == [None] * len(devices)


def test_snapshot_carries_no_write_only_tracker_state(lassen4):
    from repro.lifecycle.snapshot import SCHEMA_VERSION, schema_lint

    mgr = manager_on(lassen4)
    for name in ("cpu0", "gpu0"):
        lassen4.nodes[0].domains[name].set_demand(250.0)
    lassen4.run_for(30.0)
    state = mgr.node_managers[0].snapshot_state()
    assert state["recent_non_gpu"] and state["recent_non_cpu"]
    for gone in ("recent", "non_gpu_est_w", "non_cpu_est_w"):
        assert gone not in state
    assert SCHEMA_VERSION >= 2  # the version that dropped them
    assert schema_lint() == []


def test_static_policy_never_touches_dials(lassen4):
    mgr = manager_on(lassen4, policy="static", static_cap=1950.0)
    nm = mgr.node_managers[0]
    nm.policy.on_node_limit(1200.0)
    assert all(g.get_cap("nvml") is None for g in lassen4.nodes[0].gpu_domains)


def test_proportional_policy_clears_caps_when_unconstrained(lassen4):
    mgr = manager_on(lassen4)
    nm = mgr.node_managers[0]
    nm.enforce_limit_via_gpus(1200.0)
    assert lassen4.nodes[0].gpu_domains[0].get_cap("nvml") is not None
    nm.policy.on_node_limit(None)
    assert lassen4.nodes[0].gpu_domains[0].get_cap("nvml") is None
