"""Unit tests for the Variorum-style vendor-neutral API."""

import pytest

from repro import variorum
from repro.hardware.platforms.generic import make_generic_node
from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.variorum import backends
from repro.variorum.backends import get_backend, register_backend
from repro.variorum.backends.base import Backend


# ---------------------------------------------------------------------------
# Telemetry JSON
# ---------------------------------------------------------------------------

def test_ibm_sample_has_node_socket_mem_gpu_keys():
    node = make_lassen_node("n0")
    s = variorum.get_node_power_json(node, 4.0)
    assert s["hostname"] == "n0"
    assert s["power_node_watts"] == pytest.approx(400.0)
    assert s["power_node_is_estimate"] is False
    for key in (
        "power_cpu_watts_socket_0",
        "power_cpu_watts_socket_1",
        "power_mem_watts_socket_0",
        "power_gpu_watts_gpu_0",
        "power_gpu_watts_gpu_3",
        "power_gpu_watts_socket_0",
        "power_gpu_watts_socket_1",
    ):
        assert key in s, key


def test_ibm_socket_gpu_aggregates_sum_per_gpu_values():
    node = make_lassen_node("n0")
    node.domains["gpu0"].set_demand(300.0)
    s = variorum.get_node_power_json(node, 0.0)
    per_gpu = sum(s[f"power_gpu_watts_gpu_{i}"] for i in range(4))
    per_socket = s["power_gpu_watts_socket_0"] + s["power_gpu_watts_socket_1"]
    assert per_socket == pytest.approx(per_gpu)


def test_amd_sample_exposes_oam_not_memory():
    node = make_tioga_node("t0")
    s = variorum.get_node_power_json(node, 1.0)
    assert s["power_node_is_estimate"] is True
    assert s["gcds_per_oam"] == 2
    assert "power_gpu_watts_oam_0" in s
    assert "power_gpu_watts_oam_3" in s
    assert not any(k.startswith("power_mem_watts") for k in s)


def test_amd_node_power_is_cpu_plus_oams():
    node = make_tioga_node("t0")
    s = variorum.get_node_power_json(node, 1.0)
    parts = s["power_cpu_watts_socket_0"] + sum(
        s[f"power_gpu_watts_oam_{i}"] for i in range(4)
    )
    assert s["power_node_watts"] == pytest.approx(parts)


def test_intel_sample_has_socket_and_mem():
    node = make_generic_node("g0")
    s = variorum.get_node_power_json(node, 0.0)
    assert "power_cpu_watts_socket_0" in s
    assert "power_mem_watts_socket_0" in s
    assert s["power_node_is_estimate"] is True


# ---------------------------------------------------------------------------
# Best-effort node capping
# ---------------------------------------------------------------------------

def test_ibm_node_cap_goes_through_opal():
    node = make_lassen_node("n0")
    res = variorum.cap_best_effort_node_power_limit(node, 1950.0)
    assert res["method"] == "opal_node_cap"
    assert res["derived_gpu_cap_watts"] == pytest.approx(253.0, abs=1.0)
    assert node.opal.node_cap_w == 1950.0


def test_intel_node_cap_splits_across_sockets():
    node = make_generic_node("g0")
    res = variorum.cap_best_effort_node_power_limit(node, 300.0)
    assert res["method"] == "rapl_uniform_split"
    assert res["best_effort"] is True
    caps = node.rapl.caps()
    assert caps["cpu0"] == caps["cpu1"]


def test_amd_node_cap_refused_on_tioga():
    node = make_tioga_node("t0")
    with pytest.raises(variorum.VariorumError):
        variorum.cap_best_effort_node_power_limit(node, 1000.0)


def test_nonpositive_limit_rejected():
    node = make_lassen_node("n0")
    with pytest.raises(variorum.VariorumError):
        variorum.cap_best_effort_node_power_limit(node, 0.0)


# ---------------------------------------------------------------------------
# GPU capping
# ---------------------------------------------------------------------------

def test_gpu_caps_on_ibm():
    node = make_lassen_node("n0")
    caps = variorum.cap_each_gpu_power_limit(node, 200.0)
    assert caps == [200.0] * 4


def test_gpu_caps_out_of_range_raise():
    node = make_lassen_node("n0")
    with pytest.raises(variorum.VariorumError):
        variorum.cap_each_gpu_power_limit(node, 50.0)


def test_gpu_caps_refused_on_tioga():
    node = make_tioga_node("t0")
    with pytest.raises(variorum.VariorumError):
        variorum.cap_each_gpu_power_limit(node, 200.0)


def test_gpu_caps_on_gpuless_node_raise():
    node = make_generic_node("g0", n_gpus=0)
    with pytest.raises(variorum.VariorumError):
        variorum.cap_each_gpu_power_limit(node, 200.0)


# ---------------------------------------------------------------------------
# Backend registry + sizing
# ---------------------------------------------------------------------------

def test_unknown_vendor_rejected():
    with pytest.raises(ValueError):
        get_backend("sparc")


def test_custom_backend_registration(monkeypatch):
    class FakeBackend(Backend):
        vendor = "riscv"

    # setitem records "riscv" as absent and deletes it on undo, so the
    # fake does not outlive this test in the module-global registry.
    monkeypatch.setitem(backends._BACKENDS, "riscv", None)
    register_backend("riscv", FakeBackend())
    assert isinstance(get_backend("riscv"), FakeBackend)


def test_arm_backend_telemetry_only():
    backend = get_backend("arm")
    node = make_generic_node("g0")
    sample = backend.get_node_power_json(node, 0.0)
    assert "power_cpu_watts_socket_0" in sample
    with pytest.raises(variorum.VariorumError):
        backend.cap_best_effort_node_power_limit(node, 500.0)
    with pytest.raises(variorum.VariorumError):
        backend.cap_each_gpu_power_limit(node, 200.0)


def test_sample_bytes_estimate_in_plausible_range():
    """Section III-A sizes 100k samples at ~43.4 MiB (~455 B each)."""
    node = make_lassen_node("n0")
    s = variorum.get_node_power_json(node, 123.456)
    nbytes = variorum.sample_bytes_estimate(s)
    assert 200 <= nbytes <= 700
