"""Unit tests for repro.telemetry.metrics."""

import json

import pytest

from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
)


@pytest.fixture
def reg():
    t = {"now": 0.0}
    return MetricsRegistry(clock=lambda: t["now"])


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------
def test_counter_increments(reg):
    c = reg.counter("requests_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_negative(reg):
    c = reg.counter("requests_total")
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_set_inc_dec(reg):
    g = reg.gauge("occupancy")
    g.set(10.0)
    g.inc(2.0)
    g.inc(-5.0)
    assert g.value == 7.0


# ----------------------------------------------------------------------
# Labeled-series identity
# ----------------------------------------------------------------------
def test_same_labels_return_same_series(reg):
    a = reg.counter("rpc_total", labels={"topic": "x"})
    b = reg.counter("rpc_total", labels={"topic": "x"})
    assert a is b
    a.inc()
    assert b.value == 1.0


def test_label_order_is_irrelevant(reg):
    a = reg.counter("m", labels={"a": "1", "b": "2"})
    b = reg.counter("m", labels={"b": "2", "a": "1"})
    assert a is b


def test_distinct_labels_are_distinct_series(reg):
    a = reg.counter("rpc_total", labels={"topic": "x"})
    b = reg.counter("rpc_total", labels={"topic": "y"})
    assert a is not b
    a.inc()
    assert b.value == 0.0
    assert len(reg.series_for("rpc_total")) == 2


def test_type_conflict_raises(reg):
    reg.counter("m")
    with pytest.raises(ValueError):
        reg.gauge("m")


# ----------------------------------------------------------------------
# Histogram bucketing
# ----------------------------------------------------------------------
def test_histogram_bucketing(reg):
    h = reg.histogram("lat", buckets=(1.0, 2.0, 5.0))
    for v in (0.5, 1.5, 1.5, 3.0, 10.0):
        h.observe(v)
    # Cumulative, Prometheus-style: le=1 -> 1, le=2 -> 3, le=5 -> 4, +Inf -> 5.
    cum = dict(h.cumulative_buckets())
    assert cum[1.0] == 1
    assert cum[2.0] == 3
    assert cum[5.0] == 4
    assert cum[float("inf")] == 5
    assert h.count == 5
    assert h.sum == pytest.approx(16.5)
    assert h.mean == pytest.approx(3.3)


def test_histogram_boundary_is_inclusive(reg):
    h = reg.histogram("lat", buckets=(1.0, 2.0))
    h.observe(1.0)
    cum = dict(h.cumulative_buckets())
    assert cum[1.0] == 1


def test_histogram_quantile_upper_bound(reg):
    h = reg.histogram("lat", buckets=(1.0, 2.0, 5.0))
    for v in (0.5, 0.6, 0.7, 4.0):
        h.observe(v)
    assert h.quantile(0.5) == 1.0   # 3 of 4 in the first bucket
    assert h.quantile(0.99) == 5.0
    assert reg.histogram("empty").quantile(0.5) is None


def test_default_latency_buckets_are_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS_S) == sorted(DEFAULT_LATENCY_BUCKETS_S)


# ----------------------------------------------------------------------
# Snapshot / reset
# ----------------------------------------------------------------------
def test_snapshot_and_reset(reg):
    reg.counter("a_total").inc(3)
    reg.gauge("b", labels={"rank": "1"}).set(7.0)
    reg.histogram("h").observe(0.01)
    snap = reg.snapshot()
    assert set(snap["metrics"]) == {"a_total", "b", "h"}
    assert snap["metrics"]["a_total"]["type"] == "counter"

    reg.reset()
    assert reg.counter("a_total").value == 0.0
    assert reg.histogram("h").count == 0
    # Registrations (names and series) survive a reset.
    assert set(reg.names()) == {"a_total", "b", "h"}


def test_disabled_registry_is_noop(reg):
    reg.enabled = False
    reg.counter("a_total").inc()
    reg.gauge("g").set(5.0)
    reg.histogram("h").observe(1.0)
    assert reg.counter("a_total").value == 0.0
    assert reg.gauge("g").value == 0.0
    assert reg.histogram("h").count == 0


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
def _parse_exposition(text):
    """``{series signature: value}`` of every sample line."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            sig, _, value = line.rpartition(" ")
            out[sig] = float(value)
    return out


def test_prometheus_round_trip(reg):
    reg.counter("rpc_total", labels={"topic": "kvs.get"}).inc(4)
    reg.gauge("share_w").set(1200.0)
    reg.histogram("lat", buckets=(0.001, 0.01)).observe(0.005)
    text = reg.to_prometheus()
    assert "# TYPE rpc_total counter" in text
    assert 'rpc_total{topic="kvs.get"} 4.0' in text
    parsed = _parse_exposition(text)
    assert parsed['rpc_total{topic="kvs.get"}'] == 4.0
    assert parsed["share_w"] == 1200.0
    assert parsed['lat_bucket{le="0.01"}'] == 1.0
    assert parsed["lat_count"] == 1.0


def test_json_round_trip(reg):
    reg.counter("a_total").inc(2)
    doc = json.loads(reg.to_json())
    assert doc == reg.snapshot()
    assert json.loads(reg.to_json(indent=2))["metrics"]["a_total"]


def test_render_is_deterministic(reg):
    reg.counter("b_total", labels={"z": "2"}).inc()
    reg.counter("b_total", labels={"a": "1"}).inc()
    reg.counter("a_total").inc()
    assert reg.render() == reg.render()
    # Sorted by name, then label key.
    out = reg.render()
    assert out.index("a_total") < out.index("b_total")
