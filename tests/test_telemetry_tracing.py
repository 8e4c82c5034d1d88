"""Unit tests for repro.telemetry.tracing and the chrome exporter."""

import json

import pytest

from repro.analysis.chrome_trace import (
    chrome_trace_dict,
    events_from_chrome,
    write_chrome_trace,
)
from repro.telemetry.tracing import TraceEvent, TraceRecorder


@pytest.fixture
def clock():
    return {"now": 0.0}


@pytest.fixture
def rec(clock):
    return TraceRecorder(capacity=4, clock=lambda: clock["now"])


def test_instant_and_span(rec, clock):
    clock["now"] = 1.0
    rec.instant("tick", "manager", rank=3, jobs=2)
    clock["now"] = 2.5
    rec.span("rpc:kvs.get", "flux", start_s=2.0, rank=0, peer=1)
    events = rec.events()
    assert len(events) == 2
    assert events[0].kind == "instant"
    assert events[0].ts_s == 1.0
    assert events[0].attrs == {"jobs": 2}
    assert events[1].kind == "span"
    assert events[1].dur_s == pytest.approx(0.5)  # end defaults to clock()


def test_trace_span_context_manager(rec, clock):
    with rec.trace_span("phase", "monitor", rank=1, n=7):
        clock["now"] = 3.0
    (ev,) = rec.events()
    assert ev.name == "phase"
    assert ev.ts_s == 0.0
    assert ev.dur_s == 3.0
    assert ev.attrs == {"n": 7}


def test_ring_eviction_and_dropped(rec):
    for i in range(7):
        rec.instant(f"e{i}", "flux")
    assert len(rec) == 4
    assert rec.dropped == 3
    assert [e.name for e in rec.events()] == ["e3", "e4", "e5", "e6"]


def test_disabled_recorder_records_nothing(rec):
    rec.enabled = False
    rec.instant("x", "flux")
    with rec.trace_span("y", "flux"):
        pass
    assert len(rec) == 0
    assert rec.dropped == 0


def test_clear(rec):
    rec.instant("x", "flux")
    rec.clear()
    assert len(rec) == 0


def test_clear_is_not_an_eviction(rec):
    for i in range(3):
        rec.instant(f"e{i}", "flux")
    rec.clear()
    rec.instant("e3", "flux")
    assert rec.dropped == 0
    assert rec.total_recorded == 4
    assert "evicted" not in rec.render()
    for i in range(4, 9):
        rec.instant(f"e{i}", "flux")
    assert rec.dropped == 2
    assert [e.name for e in rec.events()] == ["e5", "e6", "e7", "e8"]
    assert rec.render().endswith("(2 older events evicted)")


def test_render_last(rec):
    for i in range(3):
        rec.instant(f"e{i}", "flux")
    out = rec.render(last=2)
    assert "e1" in out and "e2" in out and "e0" not in out


# ----------------------------------------------------------------------
# Chrome Trace Event export
# ----------------------------------------------------------------------
def test_chrome_trace_dict_shape(rec, clock):
    rec.span("rpc:x", "flux", start_s=1.0, end_s=1.002, rank=2, peer=0)
    doc = chrome_trace_dict(rec)
    (ev,) = doc["traceEvents"]
    assert ev["ph"] == "X"
    assert ev["ts"] == pytest.approx(1.0e6)   # microseconds
    assert ev["dur"] == pytest.approx(2000.0)
    assert ev["tid"] == 2
    assert ev["args"]["peer"] == 0


def test_chrome_round_trip_is_lossless(rec, clock):
    rec.instant("tick", "manager", rank=None, jobs=3)
    rec.span("agg", "monitor", start_s=0.1, end_s=0.4, rank=0, nodes=8)
    originals = rec.events()
    rebuilt = events_from_chrome(json.dumps(chrome_trace_dict(rec)))
    assert rebuilt == originals
    assert all(isinstance(e, TraceEvent) for e in rebuilt)


def test_write_chrome_trace(tmp_path, rec):
    rec.instant("a", "flux")
    path = tmp_path / "trace.json"
    n = write_chrome_trace(str(path), rec)
    assert n == 1
    doc = json.loads(path.read_text())
    assert doc["traceEvents"][0]["name"] == "a"
