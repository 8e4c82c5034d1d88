"""Chrome-trace export of the telemetry trace ring.

Converts :class:`~repro.telemetry.tracing.TraceEvent` records into the
Trace Event Format consumed by ``chrome://tracing`` / Perfetto: one
``"X"`` (complete) event per record, with the broker rank as the thread
id so each node gets its own swim lane and the subsystem category as
the color key.

Timestamps in the JSON are microseconds (the format's unit); the exact
simulated seconds are carried in each event's ``args`` so a re-import
(:func:`events_from_chrome`) loses no precision — the round-trip the
telemetry tests pin.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from repro.telemetry.tracing import TraceEvent, TraceRecorder

EventsOrRecorder = Union[TraceRecorder, Iterable[TraceEvent]]


def _events(source: EventsOrRecorder) -> List[TraceEvent]:
    if isinstance(source, TraceRecorder):
        return source.events()
    return list(source)


def chrome_trace_dict(source: EventsOrRecorder) -> Dict[str, Any]:
    """The trace as a Trace-Event-Format dict (``{"traceEvents": [...]}``)."""
    trace_events = []
    for ev in _events(source):
        trace_events.append({
            "name": ev.name,
            "cat": ev.category,
            "ph": "X",
            "ts": ev.ts_s * 1e6,
            "dur": ev.dur_s * 1e6,
            "pid": 0,
            "tid": ev.rank if ev.rank is not None else -1,
            "args": {
                **ev.attrs,
                "_kind": ev.kind,
                "_ts_s": ev.ts_s,
                "_dur_s": ev.dur_s,
            },
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry", "clock": "simulated seconds"},
    }


def write_chrome_trace(path: str, source: EventsOrRecorder) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    d = chrome_trace_dict(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh)
    return len(d["traceEvents"])


def events_from_chrome(doc: Union[str, Dict[str, Any]]) -> List[TraceEvent]:
    """Rebuild :class:`TraceEvent` records from a chrome-trace document.

    Inverse of :func:`chrome_trace_dict` for documents it produced (the
    exact sim-time floats ride in ``args``); tolerant of hand-edited
    documents missing those keys, falling back to the µs fields.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    out: List[TraceEvent] = []
    for raw in doc.get("traceEvents", []):
        args = dict(raw.get("args", {}))
        kind = args.pop("_kind", "span")
        ts_s = args.pop("_ts_s", raw.get("ts", 0.0) / 1e6)
        dur_s = args.pop("_dur_s", raw.get("dur", 0.0) / 1e6)
        tid = raw.get("tid", -1)
        out.append(TraceEvent(
            name=raw.get("name", ""),
            category=raw.get("cat", ""),
            ts_s=ts_s,
            dur_s=dur_s,
            rank=None if tid == -1 else tid,
            kind=kind,
            attrs=args,
        ))
    return out
