"""Device caps reach the hardware only through Variorum.

The node manager writes and clears every GPU and CPU-socket cap through
:func:`repro.variorum.cap_device_power_limit` and
:func:`repro.variorum.clear_device_power_limits`; the vendor backend is
the one place that picks the driver. These tests pin that split
statically (no manager or monitor module touches a driver or a domain
cap source) and per platform (each installs its vendor's cap source,
and a clear removes it).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import variorum
from repro.cluster import PowerManagedCluster
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec
from repro.hardware.platforms import make_node
from repro.manager.cluster_manager import ManagerConfig
from repro.manager.module import attach_manager
from repro.variorum.backends import get_backend

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DRIVER_ATTRS = {"nvml", "esmi", "rapl", "opal"}


def _driver_reaches(path: Path):
    """``(line, what)`` for every driver read or domain cap write."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in DRIVER_ATTRS:
            yield node.lineno, f".{node.attr}"
        # PowerDomain.set_cap(source, watts) takes two arguments; the
        # node manager's dial set_cap(domain, index, watts) takes three.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_cap"
            and len(node.args) + len(node.keywords) == 2
        ):
            yield node.lineno, "PowerDomain.set_cap"


@pytest.mark.parametrize("package", ["manager", "monitor"])
def test_no_driver_access_outside_variorum(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files
    hits = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in files
        for line, what in _driver_reaches(path)
    ]
    assert hits == []


#: Per platform: the cap source a manager write installs, per domain.
#: El Capitan-class APU nodes have no separate CPU socket domain.
PLATFORM_SOURCES = {
    "lassen": {"gpu": "nvml", "socket": "socket-manager"},
    "generic": {"gpu": "nvml", "socket": "rapl"},
    "tioga": {"gpu": "esmi", "socket": "esmi"},
    "elcapitan": {"gpu": "esmi"},
}
CASES = [
    (platform, domain, source)
    for platform, sources in PLATFORM_SOURCES.items()
    for domain, source in sources.items()
]


def _enable_amd_capping(nodes) -> None:
    for node in nodes:
        if node.esmi is not None:
            node.esmi.user_capping_enabled = True


@pytest.mark.parametrize("platform,domain,source", CASES)
def test_manager_cap_installs_the_vendor_source_and_clear_removes_it(
    platform, domain, source
):
    # The generic platform is GPU-less unless asked for GPUs.
    extra = {"n_gpus": 2} if platform == "generic" else {}
    inst = FluxInstance(nodes=[make_node(platform, "n0", **extra)])
    _enable_amd_capping(inst.nodes)
    nm = attach_manager(
        inst, ManagerConfig(global_cap_w=None, policy="proportional")
    ).node_managers[0]
    devices = nm._devices(domain)
    assert devices
    lo, hi = nm.cap_range(domain)
    watts = (lo + hi) / 2.0
    for i in range(len(devices)):
        nm.set_cap(domain, i, watts)
    assert nm.cap_request_failures == 0
    assert nm._last_caps[domain] == [watts] * len(devices)
    for dom in devices:
        assert dom.get_cap(source) == watts
        assert dom.effective_cap_w == watts  # no other source installed
    nm.clear_caps(domain)
    assert nm._last_caps[domain] == [None] * len(devices)
    assert [dom.effective_cap_w for dom in devices] == [None] * len(devices)


def test_refused_device_cap_counts_a_failure_and_records_nothing():
    """Tioga's default E-SMI driver refuses user caps."""
    inst = FluxInstance(platform="tioga", n_nodes=1, seed=5)
    nm = attach_manager(
        inst, ManagerConfig(global_cap_w=None, policy="proportional")
    ).node_managers[0]
    nm.set_cap("gpu", 0, 300.0)
    assert nm.cap_request_failures == 1
    assert nm._last_caps["gpu"][0] is None
    assert inst.nodes[0].gpu_domains[0].effective_cap_w is None


@pytest.mark.parametrize("platform", ["lassen", "tioga"])
def test_refused_static_node_cap_counts_a_failure_per_node(platform):
    """400 W is below Lassen's OPAL floor; Tioga refuses every user cap.
    Either way the cluster builds and each node manager counts one
    refused best-effort cap."""
    cluster = PowerManagedCluster(
        platform=platform,
        n_nodes=2,
        seed=1,
        manager_config=ManagerConfig(
            global_cap_w=3000.0, policy="proportional", static_node_cap_w=400.0
        ),
    )
    assert [nm.cap_request_failures for nm in cluster.manager.node_managers] == [1, 1]
    for node in cluster.nodes:
        assert all(dom.effective_cap_w is None for dom in node.domains.values())


def test_ibm_node_cap_without_opal_is_a_variorum_error():
    node = make_node("lassen", "n0")
    node.opal = None
    with pytest.raises(variorum.VariorumError):
        variorum.cap_best_effort_node_power_limit(node, 2000.0)


@pytest.mark.parametrize(
    "platform,extra,expect",
    [
        ("generic", {"n_gpus": 2},
         [("socket", 0), ("socket", 1), ("gpu", 0), ("gpu", 1)]),
        ("tioga", {},
         [("socket", 0)] + [("gpu", i) for i in range(4)]),
    ],
)
def test_best_effort_node_cap_writes_through_the_device_dials(
    platform, extra, expect, monkeypatch
):
    node = make_node(platform, "n0", **extra)
    _enable_amd_capping([node])
    backend = get_backend(node.spec.vendor)
    calls = []
    dial = type(backend).cap_device_power_limit

    def spy(self, node, domain, index, watts):
        calls.append((domain, index))
        return dial(self, node, domain, index, watts)

    monkeypatch.setattr(type(backend), "cap_device_power_limit", spy)
    variorum.cap_best_effort_node_power_limit(node, 1000.0)
    assert calls == expect


@pytest.mark.parametrize("platform", ["tioga", "elcapitan"])
def test_amd_device_caps_do_not_outlive_their_job(platform):
    cluster = PowerManagedCluster(
        platform=platform,
        n_nodes=2,
        seed=1,
        manager_config=ManagerConfig(global_cap_w=3000.0, policy="proportional"),
    )
    _enable_amd_capping(cluster.nodes)
    cluster.submit(Jobspec(app="gemm", nnodes=2, params={"work_scale": 0.2}))
    cluster.run_for(5.0)
    oams = cluster.nodes[1].gpu_domains
    assert all(dom.get_cap("esmi") is not None for dom in oams)  # job capped
    cluster.run_until_complete()
    cluster.run_for(10.0)
    nm = cluster.manager.node_managers[1]
    assert nm._last_caps["gpu"] == [None] * len(oams)
    assert [dom.get_cap("esmi") for dom in oams] == [None] * len(oams)
