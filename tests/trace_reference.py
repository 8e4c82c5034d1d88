"""The explicit reference trace ring the columnar recorder must answer like.

A ``deque(maxlen=capacity)`` of frozen :class:`TraceEvent` records: the
recorder's storage before it became one list per field. ``dropped``
counts wrap evictions only (an event removed by :meth:`clear` was not
evicted). ``tests/test_trace_ring_model.py`` drives it and a
:class:`~repro.telemetry.tracing.TraceRecorder` through the same seeded
operation sequences and compares every read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional

from repro.telemetry.tracing import TraceEvent


class DequeTraceRecorder:
    """A fixed-capacity ring of :class:`TraceEvent` records."""

    def __init__(self, capacity: int, clock: Callable[[], float]) -> None:
        self.capacity = int(capacity)
        self.clock = clock
        self._ring: deque = deque(maxlen=self.capacity)
        self.total_recorded = 0
        self.dropped = 0

    def record(self, event: TraceEvent) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.total_recorded += 1

    def instant(self, name: str, category: str, rank: Optional[int] = None,
                **attrs: Any) -> None:
        self.record(TraceEvent(
            name=name, category=category, ts_s=self.clock(), dur_s=0.0,
            rank=rank, kind="instant", attrs=attrs,
        ))

    def span(self, name: str, category: str, start_s: float,
             end_s: Optional[float] = None, rank: Optional[int] = None,
             **attrs: Any) -> None:
        end = self.clock() if end_s is None else end_s
        self.record(TraceEvent(
            name=name, category=category, ts_s=start_s,
            dur_s=max(0.0, end - start_s), rank=rank, kind="span", attrs=attrs,
        ))

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[TraceEvent]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def render(self, last: Optional[int] = None) -> str:
        events = self.events()
        if last is not None:
            events = events[-last:]
        lines = []
        for ev in events:
            where = f" rank={ev.rank}" if ev.rank is not None else ""
            extra = f" {ev.attrs}" if ev.attrs else ""
            lines.append(
                f"t={ev.ts_s:12.6f}s +{ev.dur_s:.6f}s "
                f"[{ev.category}] {ev.name}{where}{extra}"
            )
        if self.dropped:
            lines.append(f"({self.dropped} older events evicted)")
        return "\n".join(lines)
