"""Unit tests for vendor firmware behaviours."""

import numpy as np
import pytest

from repro.hardware.firmware import CappingError, ibm_derived_gpu_cap
from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.hardware.platforms.generic import make_generic_node


# ---------------------------------------------------------------------------
# IBM derived GPU caps — must fit Table III exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "node_cap,expected",
    [(1200.0, 100.0), (1800.0, 216.0), (1950.0, 253.0), (3050.0, 300.0)],
)
def test_ibm_derivation_matches_table3(node_cap, expected):
    derived = ibm_derived_gpu_cap(node_cap)
    assert derived == pytest.approx(expected, abs=1.0)


def test_ibm_derivation_clamps_to_gpu_floor():
    assert ibm_derived_gpu_cap(500.0) == 100.0


def test_ibm_derivation_clamps_to_gpu_max():
    assert ibm_derived_gpu_cap(3050.0) == 300.0


def test_ibm_derivation_psr_scales_gpu_budget():
    full = ibm_derived_gpu_cap(1950.0, psr=100.0)
    half = ibm_derived_gpu_cap(1950.0, psr=50.0)
    assert half < full


def test_ibm_derivation_rejects_zero_gpus():
    with pytest.raises(ValueError):
        ibm_derived_gpu_cap(1950.0, n_gpus=0)


# ---------------------------------------------------------------------------
# OPAL
# ---------------------------------------------------------------------------

def test_opal_installs_derived_gpu_caps():
    node = make_lassen_node("n0")
    derived = node.opal.set_node_power_cap(1950.0)
    assert derived == pytest.approx(253.0, abs=1.0)
    for gpu in node.gpu_domains:
        assert gpu.get_cap("opal") == pytest.approx(253.0, abs=1.0)


def test_opal_rejects_out_of_range_caps():
    node = make_lassen_node("n0")
    with pytest.raises(CappingError):
        node.opal.set_node_power_cap(400.0)  # below soft min 500
    with pytest.raises(CappingError):
        node.opal.set_node_power_cap(4000.0)  # above max 3050


def test_opal_soft_cap_accepted_between_soft_and_hard_min():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(700.0)  # soft region: accepted
    assert node.opal.node_cap_w == 700.0


def test_opal_cpu_throttle_when_over_cap():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(1000.0)
    for dom in node.cpu_domains:
        dom.set_demand(250.0)
    for dom in node.gpu_domains:
        dom.set_demand(300.0)
    factor = node.opal.cpu_throttle_needed(node.raw_power_w())
    assert 0.0 <= factor < 1.0


def test_opal_no_cpu_throttle_under_cap():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(3050.0)
    assert node.opal.cpu_throttle_needed(node.raw_power_w()) == 1.0


# ---------------------------------------------------------------------------
# NVML
# ---------------------------------------------------------------------------

def test_nvml_sets_caps_within_range():
    node = make_lassen_node("n0")
    caps = [node.nvml.set_power_limit(i, 150.0) for i in range(4)]
    assert caps == [150.0] * 4
    for gpu in node.gpu_domains:
        assert gpu.get_cap("nvml") == 150.0


def test_nvml_rejects_out_of_range():
    node = make_lassen_node("n0")
    with pytest.raises(CappingError):
        node.nvml.set_power_limit(0, 50.0)
    with pytest.raises(CappingError):
        node.nvml.set_power_limit(0, 400.0)


def test_nvml_clear_all():
    node = make_lassen_node("n0")
    for i in range(4):
        node.nvml.set_power_limit(i, 150.0)
    node.nvml.clear_all()
    for gpu in node.gpu_domains:
        assert gpu.get_cap("nvml") is None


def test_nvml_failures_disabled_by_default():
    node = make_lassen_node("n0", rng=np.random.default_rng(0))
    for _ in range(50):
        node.nvml.set_power_limit(0, 150.0)
    assert node.nvml.failures == 0


def test_nvml_intermittent_failures_reproduce_section5():
    """At a configured rate, caps stick or reset to max (Section V)."""
    rng = np.random.default_rng(7)
    node = make_lassen_node("n0", rng=rng, nvml_failure_rate=0.5)
    results = [node.nvml.set_power_limit(0, 120.0) for _ in range(40)]
    assert node.nvml.failures > 0
    # A failed request either kept a previous value or reset to 300.
    assert any(r != 120.0 for r in results)
    assert all(r in (120.0, 300.0) for r in results)


def test_nvml_failures_are_seeded_deterministic():
    def run(seed):
        node = make_lassen_node("n0", rng=np.random.default_rng(seed), nvml_failure_rate=0.3)
        return [node.nvml.set_power_limit(0, 150.0) for _ in range(20)]

    assert run(5) == run(5)
    assert run(5) != run(6)


# ---------------------------------------------------------------------------
# E-SMI (Tioga)
# ---------------------------------------------------------------------------

def test_esmi_refuses_user_capping_on_tioga():
    node = make_tioga_node("t0")
    with pytest.raises(CappingError):
        node.esmi.set_socket_power_cap(0, 200.0)
    with pytest.raises(CappingError):
        node.esmi.set_oam_power_cap(0, 400.0)


def test_esmi_caps_when_enabled():
    node = make_tioga_node("t0")
    node.esmi.user_capping_enabled = True
    assert node.esmi.set_oam_power_cap(0, 400.0) == 400.0


# ---------------------------------------------------------------------------
# RAPL (generic)
# ---------------------------------------------------------------------------

def test_rapl_caps_sockets():
    node = make_generic_node("g0")
    assert node.rapl.set_socket_power_cap(0, 120.0) == 120.0
    assert node.rapl.caps()["cpu0"] == 120.0


def test_rapl_rejects_out_of_range():
    node = make_generic_node("g0")
    with pytest.raises(CappingError):
        node.rapl.set_socket_power_cap(0, 10.0)
