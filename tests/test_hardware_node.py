"""Unit tests for the node model and platform specs."""

import pytest

from repro.hardware.domains import DomainKind
from repro.hardware.platforms import PLATFORM_FACTORIES, make_node
from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.hardware.platforms.generic import make_generic_node


# ---------------------------------------------------------------------------
# Lassen
# ---------------------------------------------------------------------------

def test_lassen_idle_power_is_400w():
    """Section IV-C: 'we assume an idle node power consumption of 400 W'."""
    node = make_lassen_node("n0")
    assert node.idle_power_w() == pytest.approx(400.0)


def test_lassen_has_four_gpus_two_sockets():
    node = make_lassen_node("n0")
    assert node.n_gpus == 4
    assert len(node.cpu_domains) == 2
    assert len(node.memory_domains) == 1


def test_lassen_node_sensor_and_capping_flags():
    node = make_lassen_node("n0")
    assert node.spec.node_power_measurable
    assert node.spec.node_cappable
    assert node.spec.node_max_w == 3050.0


def test_lassen_has_opal_and_nvml():
    node = make_lassen_node("n0")
    assert node.opal is not None
    assert node.nvml is not None
    assert node.esmi is None


# ---------------------------------------------------------------------------
# Tioga
# ---------------------------------------------------------------------------

def test_tioga_has_8_logical_gpus_in_4_oams():
    node = make_tioga_node("t0")
    assert len(node.by_kind(DomainKind.OAM)) == 4
    assert node.n_gpus == 8  # 2 GCDs per OAM


def test_tioga_memory_and_node_not_measurable():
    node = make_tioga_node("t0")
    assert not node.spec.node_power_measurable
    mem = node.memory_domains[0]
    assert not mem.spec.measurable


def test_tioga_oam_max_power_560():
    node = make_tioga_node("t0")
    oam = node.by_kind(DomainKind.OAM)[0]
    assert oam.spec.max_w == 560.0


def test_tioga_has_esmi_only():
    node = make_tioga_node("t0")
    assert node.esmi is not None
    assert node.opal is None
    assert node.nvml is None


# ---------------------------------------------------------------------------
# Generic + factory
# ---------------------------------------------------------------------------

def test_generic_node_with_gpus():
    node = make_generic_node("g0", n_gpus=2)
    assert node.n_gpus == 2
    assert node.nvml is not None


def test_make_node_dispatches_by_platform():
    assert make_node("lassen", "a").spec.platform == "lassen"
    assert make_node("tioga", "b").spec.platform == "tioga"
    assert make_node("generic", "c").spec.platform == "generic"


def test_make_node_rejects_unknown_platform():
    with pytest.raises(ValueError):
        make_node("cray-1", "x")


@pytest.mark.parametrize("platform", sorted(PLATFORM_FACTORIES))
def test_make_node_rejects_unknown_keyword(platform):
    # No factory swallows keywords: a misspelt or deleted option fails
    # on every platform alike.
    with pytest.raises(TypeError):
        make_node(platform, "n0", sensor_noise_sigma_w=1.0)


@pytest.mark.parametrize("platform", sorted(PLATFORM_FACTORIES))
def test_all_platform_specs_are_valid(platform):
    spec = make_node(platform, "n0").spec
    assert spec.domains
    for ds in spec.domains:
        assert ds.max_w >= ds.idle_w >= 0


# ---------------------------------------------------------------------------
# Power aggregation
# ---------------------------------------------------------------------------

def test_total_power_sums_domains():
    node = make_lassen_node("n0")
    node.domains["gpu0"].set_demand(300.0)
    assert node.total_power_w() == pytest.approx(400.0 + 250.0)


def test_total_power_clipped_by_opal_cap():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(1000.0)
    for name, dom in node.domains.items():
        dom.set_demand(dom.spec.max_w)
    assert node.total_power_w() == pytest.approx(1000.0)
    assert node.raw_power_w() > 1000.0


def test_apply_demand_by_name():
    node = make_lassen_node("n0")
    node.domains["cpu0"].set_demand(200.0)
    node.domains["gpu1"].set_demand(250.0)
    assert node.domains["cpu0"].demand_w == 200.0
    assert node.domains["gpu1"].demand_w == 250.0
    assert node.total_power_w() == pytest.approx(400.0 + 160.0 + 200.0)


def test_clear_demand_returns_to_idle():
    node = make_lassen_node("n0")
    node.domains["gpu0"].set_demand(300.0)
    node.domains["cpu0"].set_demand(250.0)
    node.clear_demand()
    assert node.total_power_w() == pytest.approx(400.0)


def test_gpu_throttles_reflect_caps():
    node = make_lassen_node("n0")
    for dom in node.gpu_domains:
        dom.set_demand(300.0)
    node.nvml.set_power_limit(0, 175.0)  # dyn 125 of 250 -> 0.5
    throttles = node.gpu_throttles()
    assert throttles[0] == pytest.approx(0.5)
    assert throttles[1:] == [1.0, 1.0, 1.0]


def test_cpu_throttle_includes_opal_residual():
    node = make_lassen_node("n0")
    node.opal.set_node_power_cap(1000.0)
    for dom in node.cpu_domains:
        dom.set_demand(250.0)
    for dom in node.gpu_domains:
        dom.set_demand(300.0)
    assert node.cpu_throttle() < 1.0
