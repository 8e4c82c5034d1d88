"""Structured tracing: ring-buffered spans and instants on sim time.

The recorder keeps the most recent ``capacity`` events in a ring —
bounded memory for arbitrarily long runs, mirroring the monitor's own
circular sample buffer. Overflow evicts oldest-first and is counted in
:attr:`TraceRecorder.dropped`, so an export can say how much history it
is missing; :meth:`TraceRecorder.clear` is not an eviction.

Timestamps are **simulated seconds** (the registry clock), so a trace
from a seeded run is itself deterministic. Most handler spans have zero
sim-time duration (callbacks are instantaneous in the discrete-event
model); spans with real extent are the cross-time ones — RPC round
trips, aggregation fan-ins — recorded via :meth:`TraceRecorder.span`
from an explicit start time.

Export to ``chrome://tracing`` JSON lives in
:mod:`repro.analysis.chrome_trace`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded span or instant.

    Attributes
    ----------
    name:
        Event name, dot-separated by convention (``fpp.control_tick``).
    category:
        Subsystem: ``"flux"``, ``"monitor"`` or ``"manager"``.
    ts_s:
        Start time in simulated seconds.
    dur_s:
        Duration in simulated seconds (0.0 for instants).
    rank:
        Broker rank the event happened on, or ``None``.
    kind:
        ``"span"`` or ``"instant"``.
    attrs:
        Free-form JSON-compatible details (jobid, topic, ...).
    """

    name: str
    category: str
    ts_s: float
    dur_s: float = 0.0
    rank: Optional[int] = None
    kind: str = "span"
    attrs: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Fixed-capacity ring of :class:`TraceEvent` records.

    The ring is columnar: one list per field, grown to ``capacity`` and
    then overwritten in place, oldest slot first. A recorded event adds
    no container the garbage collector tracks — names, floats, ranks and
    an ``attrs`` dict of atomic values are all untracked — so a full
    ring costs the collector seven lists however many events pass
    through it. :meth:`events` builds the :class:`TraceEvent` records.
    """

    def __init__(self, capacity: int = 8192,
                 clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self._name: List[str] = []
        self._category: List[str] = []
        self._ts: List[float] = []
        self._dur: List[float] = []
        self._rank: List[Optional[int]] = []
        self._kind: List[str] = []
        self._attrs: List[Dict[str, Any]] = []
        #: Slot the next event overwrites once the ring is full (the
        #: oldest retained event).
        self._head = 0
        self._evicted = 0
        self.total_recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _write(self, name: str, category: str, ts_s: float, dur_s: float,
               rank: Optional[int], kind: str, attrs: Dict[str, Any]) -> None:
        self.total_recorded += 1
        if len(self._name) < self.capacity:
            self._name.append(name)
            self._category.append(category)
            self._ts.append(ts_s)
            self._dur.append(dur_s)
            self._rank.append(rank)
            self._kind.append(kind)
            self._attrs.append(attrs)
            return
        i = self._head
        self._name[i] = name
        self._category[i] = category
        self._ts[i] = ts_s
        self._dur[i] = dur_s
        self._rank[i] = rank
        self._kind[i] = kind
        self._attrs[i] = attrs
        self._head = i + 1 if i + 1 < self.capacity else 0
        self._evicted += 1

    def instant(self, name: str, category: str, rank: Optional[int] = None,
                **attrs: Any) -> None:
        """Record a zero-duration event at the current sim time."""
        if self.enabled:
            self._write(name, category, self.clock(), 0.0, rank, "instant",
                        attrs)

    def span(self, name: str, category: str, start_s: float,
             end_s: Optional[float] = None, rank: Optional[int] = None,
             **attrs: Any) -> None:
        """Record a span from an explicit start time (cross-time work).

        ``end_s`` defaults to the current sim time — the pattern for
        RPC round trips: stamp ``start_s`` at send, call this from the
        response path.
        """
        if not self.enabled:
            return
        end = self.clock() if end_s is None else end_s
        self._write(name, category, start_s, max(0.0, end - start_s), rank,
                    "span", attrs)

    @contextmanager
    def trace_span(self, name: str, category: str,
                   rank: Optional[int] = None, **attrs: Any) -> Iterator[None]:
        """Context manager recording a span around the enclosed code.

        Duration is simulated time elapsed inside the block — zero for
        a plain handler, positive if the block advances the simulator.
        """
        start = self.clock()
        try:
            yield
        finally:
            self.span(name, category, start, rank=rank, **attrs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted because the ring wrapped (not those cleared)."""
        return self._evicted

    def __len__(self) -> int:
        return len(self._name)

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        n = len(self._name)
        head = self._head
        return [
            TraceEvent(self._name[i], self._category[i], self._ts[i],
                       self._dur[i], self._rank[i], self._kind[i],
                       self._attrs[i])
            for i in [*range(head, n), *range(head)]
        ]

    def clear(self) -> None:
        """Drop retained events; ``total_recorded`` and ``dropped`` are
        preserved."""
        for column in (self._name, self._category, self._ts, self._dur,
                       self._rank, self._kind, self._attrs):
            column.clear()
        self._head = 0

    def render(self, last: Optional[int] = None) -> str:
        """Terminal-friendly dump of the newest ``last`` events."""
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
