"""The discrete-event simulator core.

The engine keeps a binary heap of ``(time, priority, seq, event)``
tuples. The sequence number makes the ordering a deterministic total
order: two events scheduled for the same simulated time and priority
fire in the order they were scheduled, regardless of heap internals.
Determinism of the whole reproduction rests on this.

Hot-path design (see docs/performance.md):

* heap entries are plain tuples, so ordering uses C-level tuple
  comparison instead of a generated dataclass ``__lt__`` — the unique
  ``seq`` guarantees comparison never reaches the event object;
* ``pending()`` is an O(1) maintained counter, decremented on
  ``cancel()`` and on pop;
* cancelled entries are swept lazily: when more than half the heap is
  dead weight the heap is compacted in place, so long runs with
  frequently re-scheduled timers stay bounded;
* ``schedule_periodic()`` re-arms one reused event per series instead
  of allocating an event per tick. It still draws one sequence number
  per tick *before* invoking the callback, so the total order is
  exactly the order a re-scheduling one-shot timer would produce.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

# Compact only when the dead fraction exceeds one half and there is
# enough garbage for the O(n) sweep to pay for itself.
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class ScheduledEvent:
    """A callback scheduled on the simulator's event heap.

    Instances are returned by :meth:`Simulator.schedule` and may be
    cancelled. Execution order is ``(time, priority, seq)``; for
    periodic events ``time`` tracks the nominal tick grid.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "_sim", "_on_heap")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self._sim: Optional["Simulator"] = None
        self._on_heap = False

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_heap and self._sim is not None:
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"ScheduledEvent(t={self.time!r}, prio={self.priority}, "
            f"seq={self.seq}, {state})"
        )


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated time in seconds (default 0.0).

    Notes
    -----
    Time is a ``float`` number of seconds. Callbacks run synchronously;
    a callback may schedule further events (including at the current
    time, which run after all currently-pending same-time events of
    equal priority).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of (time, priority, seq, event) tuples; seq is unique so
        # comparisons never reach the event object.
        self._heap: list = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        self._live = 0  # scheduled, not yet fired or cancelled
        self._cancelled = 0  # cancelled entries still on the heap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._processed

    def pending(self) -> int:
        """Number of not-yet-cancelled events still on the heap (O(1))."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite. Lower ``priority``
        values run first among events at the same simulated time.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        time = float(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): in the past"
            )
        seq = next(self._seq)
        ev = ScheduledEvent(time, priority, seq, callback, args)
        ev._sim = self
        ev._on_heap = True
        heapq.heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
        priority: int = 0,
        first_time: Optional[float] = None,
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` every ``period`` seconds, reusing one event.

        The returned event is re-armed from the nominal tick grid
        *before* each callback invocation (drawing a fresh sequence
        number), so the execution order is byte-identical to a one-shot
        timer that re-schedules itself each tick — without the per-tick
        event allocation. ``cancel()`` on the returned event stops the
        series. A tick whose nominal time has already passed fires at
        the current time; the nominal grid itself never shifts.

        ``first_time`` pins the first nominal tick to an absolute time
        (callers that already computed the grid pass it to avoid a
        float round-trip); otherwise the first tick is ``start_delay``
        (default one period) from now.
        """
        period = float(period)
        if period <= 0 or not math.isfinite(period):
            raise SimulationError(f"period must be positive and finite, got {period}")
        if first_time is not None:
            first = float(first_time)
        else:
            first = self._now + (period if start_delay is None else float(start_delay))
        seq = next(self._seq)
        ev = ScheduledEvent(first, priority, seq, callback, args)
        ev._sim = self

        def _tick() -> None:
            # Re-arm before the callback so seq allocation matches the
            # legacy re-scheduling order exactly.
            ev.time += period
            ev.seq = next(self._seq)
            ev._on_heap = True
            when = ev.time if ev.time > self._now else self._now
            heapq.heappush(self._heap, (when, ev.priority, ev.seq, ev))
            self._live += 1
            callback(*args)

        ev.callback = _tick
        ev.args = ()
        ev._on_heap = True
        when = first if first > self._now else self._now
        heapq.heappush(self._heap, (when, priority, seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by ``ScheduledEvent.cancel`` while the event is heaped."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        # In place: run() holds a local reference to the heap list.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event. Returns False if the heap is empty."""
        heap = self._heap
        while heap:
            time, _prio, _seq, ev = heapq.heappop(heap)
            if ev.cancelled:
                self._cancelled -= 1
                continue
            if time < self._now:
                raise SimulationError("event heap corrupted: time went backwards")
            ev._on_heap = False
            self._live -= 1
            self._now = time
            self._processed += 1
            ev.callback(*ev.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the heap drains or ``until`` is reached.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time; the
            clock is advanced to ``until`` itself so periodic processes
            observe a consistent end time.
        max_events:
            Safety valve; raise :class:`SimulationError` rather than
            execute more than this many events (the first ``max_events``
            events do run).

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        count = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                # Peek past cancelled events without executing.
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    self._now = max(self._now, float(until))
                    return self._now
                if max_events is not None and count >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                time, _prio, _seq, ev = heappop(heap)
                if time < self._now:
                    raise SimulationError(
                        "event heap corrupted: time went backwards"
                    )
                ev._on_heap = False
                self._live -= 1
                self._now = time
                self._processed += 1
                ev.callback(*ev.args)
                count += 1
            if until is not None:
                self._now = max(self._now, float(until))
            return self._now
        finally:
            self._running = False
