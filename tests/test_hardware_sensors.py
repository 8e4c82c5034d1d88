"""Unit tests for sensor suites."""

import pytest

from repro.hardware.platforms.lassen import make_lassen_node
from repro.hardware.platforms.tioga import make_tioga_node
from repro.monitor.client import component_powers
from repro.variorum import get_node_power_json


def test_lassen_reading_reports_all_component_domains():
    node = make_lassen_node("n0")
    r = node.sensors.read(10.0)
    names = set(r.domains_w)
    assert {"cpu0", "cpu1", "memory0", "gpu0", "gpu1", "gpu2", "gpu3"} <= names
    assert "uncore0" not in names  # uncore only via node sensor


def test_lassen_node_reading_is_measured_and_includes_uncore():
    node = make_lassen_node("n0")
    r = node.sensors.read(10.0)
    assert r.node_measured
    assert r.node_w == pytest.approx(400.0)  # idle incl. 90 W uncore
    assert sum(r.domains_w.values()) == pytest.approx(310.0)  # without uncore


def test_tioga_node_reading_is_conservative_estimate():
    node = make_tioga_node("t0")
    r = node.sensors.read(10.0)
    assert not r.node_measured
    # cpu 60 + 4 oam x 90 = 420; memory and uncore invisible.
    assert r.node_w == pytest.approx(420.0)
    assert "memory0" not in r.domains_w


def test_tioga_reports_oam_not_per_gpu():
    node = make_tioga_node("t0")
    r = node.sensors.read(0.0)
    oam_keys = [k for k in r.domains_w if k.startswith("oam")]
    assert len(oam_keys) == 4


def test_timestamp_quantised_to_sensor_granularity():
    node = make_lassen_node("n0")  # OCC: 500 microseconds
    r = node.sensors.read(1.00037)
    assert r.timestamp == pytest.approx(1.0)
    r2 = node.sensors.read(1.0006)
    assert r2.timestamp == pytest.approx(1.0005)


def test_total_by_kind_aggregates():
    node = make_lassen_node("n0")
    node.domains["gpu0"].set_demand(300.0)
    totals = component_powers(get_node_power_json(node, 0.0))
    assert totals["gpu_w"] == pytest.approx(300.0 + 3 * 50.0)
    assert totals["cpu_w"] == pytest.approx(80.0)
