"""The explicit reference ring the columnar sample rings must answer like.

A fixed-capacity circular buffer of ``(timestamp, sample)`` pairs:
when full, the oldest sample is overwritten. Storage is a pair of
pre-sized Python lists used as a ring (timestamps and samples side by
side) with a head index at the oldest entry. Because timestamps are
appended in nondecreasing order, the ring is a rotated sorted array and
:meth:`CircularBuffer.range` locates the window with an O(log n)
bisection over logical positions.

No node agent holds one: every agent samples into a
:class:`~repro.columnar.store.ColumnarRing`. The tests drive both
through the same operations (``tests/test_ring_model.py``) and compare
whole-machine queries against one ``CircularBuffer`` per node
(``tests/test_columnar_equivalence.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.monitor.buffer import DEFAULT_CAPACITY, DEFAULT_SAMPLE_BYTES


class CircularBuffer:
    """A ring buffer of (timestamp, sample) pairs, oldest-first.

    Timestamps must be appended in nondecreasing order (they come from
    one periodic sampler), which lets range queries bisect.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ts: List[float] = []
        self._samples: List[Dict[str, Any]] = []
        #: Physical index of the oldest entry once the ring has wrapped.
        self._head = 0
        self.total_appended = 0

    def append(self, timestamp: float, sample: Dict[str, Any]) -> None:
        ts = self._ts
        if ts:
            # Inlined newest_timestamp: this runs once per node per
            # sampling tick instance-wide.
            newest = ts[self._head - 1]
            if timestamp < newest:
                raise ValueError(
                    f"timestamps must be nondecreasing ({timestamp} < {newest})"
                )
        if len(ts) < self.capacity:
            ts.append(timestamp)
            self._samples.append(sample)
        else:
            ts[self._head] = timestamp
            self._samples[self._head] = sample
            self._head = (self._head + 1) % self.capacity
        self.total_appended += 1

    def __len__(self) -> int:
        return len(self._ts)

    @property
    def dropped(self) -> int:
        """Samples overwritten because the ring wrapped (or flushed)."""
        return self.total_appended - len(self._ts)

    @property
    def oldest_timestamp(self) -> Optional[float]:
        return self._ts[self._head] if self._ts else None

    @property
    def newest_timestamp(self) -> Optional[float]:
        # With head at the oldest entry, the newest sits just before it
        # (index -1 before the first wrap — Python wraps that for us).
        return self._ts[self._head - 1] if self._ts else None

    def size_bytes(self, per_sample: int = DEFAULT_SAMPLE_BYTES) -> int:
        """Estimated storage footprint at the current fill level."""
        return len(self._ts) * per_sample

    def capacity_bytes(self, per_sample: int = DEFAULT_SAMPLE_BYTES) -> int:
        """Storage footprint when full (the paper's 43.4 MiB)."""
        return self.capacity * per_sample

    def _bisect(self, t: float, right: bool) -> int:
        """Logical index of the first entry with ts >= t (or > t if right)."""
        n = len(self._ts)
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            ts = self._ts[(self._head + mid) % n]
            if ts < t or (right and ts == t):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def range(
        self, t_start: float, t_end: float
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Samples with ``t_start <= t <= t_end``, plus a completeness flag.

        ``complete`` is False when the buffer's retained history begins
        after ``t_start`` — i.e. some of the requested window has been
        flushed out (the paper's partial-data case).
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        n = len(self._ts)
        if n:
            lo = self._bisect(t_start, right=False)
            hi = self._bisect(t_end, right=True)
            samples = [self._samples[(self._head + i) % n] for i in range(lo, hi)]
        else:
            samples = []
        oldest = self.oldest_timestamp
        complete = self.total_appended == 0 or (
            oldest is not None and (oldest <= t_start or self.dropped == 0)
        )
        return samples, complete

    def flush(self) -> int:
        """Drop retained samples (administrative flush); returns count.

        ``total_appended`` is preserved so later range queries still
        know history was lost and report partial data.
        """
        n = len(self._ts)
        self._ts = []
        self._samples = []
        self._head = 0
        return n

    def snapshot(self) -> List[Tuple[float, Dict[str, Any]]]:
        """Copy of current contents (oldest first); for tests/inspection."""
        n = len(self._ts)
        return [
            (self._ts[(self._head + i) % n], self._samples[(self._head + i) % n])
            for i in range(n)
        ]

    # ------------------------------------------------------------------
    # Crash recovery (see repro.lifecycle.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-able ring state; entries oldest-first.

        ``total_appended`` rides along so the restored ring reports the
        same drop count (and therefore the same partial-data flags) as
        the original.
        """
        return {
            "capacity": self.capacity,
            "total_appended": self.total_appended,
            "entries": [[t, sample] for t, sample in self.snapshot()],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rehydrate from :meth:`snapshot_state`; ``{}`` wipes to empty.

        Entries are replayed through :meth:`append` oldest-first, so the
        restored ring is physically un-rotated but logically identical —
        every read path goes through the head index.
        """
        self._ts = []
        self._samples = []
        self._head = 0
        self.total_appended = 0
        for t, sample in state.get("entries") or []:
            self.append(float(t), sample)
        self.total_appended = int(state.get("total_appended", self.total_appended))
