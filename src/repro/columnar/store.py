"""Implicit sample rings: the storage under the monitor's sampling path.

An explicit per-node ring buffer costs O(nodes) Python work *per
sampling tick* — one dict copy, two gauge writes and one accountant
charge per node — so a 10k-node, 600 s window would cost ~3M Python
sample bodies before a single query runs. The columnar layout makes
steady-state sampling O(ticks + power-state changes) instead:

* Each :class:`~repro.monitor.sampler.SampleGroup` owns one
  :class:`TickLog` — a shared, growable timestamp column. A group tick
  appends *one* raw timestamp plus one quantised wire timestamp per
  distinct sensor granularity, regardless of how many nodes share the
  grid.
* Every node agent owns a :class:`ColumnarRing`: no per-tick storage
  at all, just a window ``[start, end)`` into the tick log and a short
  list of *segments* — ``(tick index, power_rev, template)`` runs
  during which the node's finished sample differed only in its
  timestamp (exactly the invariant ``Backend.sample_cached`` already
  relies on). Ring contents are materialised lazily: a query returns a
  :class:`ColumnarSamples` view whose ``len`` is O(1) and whose dicts
  are built on iteration. Segments wholly before the live window are
  dropped, so a ring never holds more than ``len(ring) + 1`` of them.

Who writes the rings, when a node's power state changed and how a
tick charges the overhead accountant is the sampler's business:
:mod:`repro.monitor.sampler` is the one per-engine sampling
coordinator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.monitor.buffer import DEFAULT_SAMPLE_BYTES


def _wire_timestamp(t: float, granularity_s: float) -> float:
    """The finished-sample timestamp for a tick at raw time ``t``.

    Identical arithmetic to the sensor read + ``telemetry_sample`` path
    (``math.floor(t/g)*g`` then ``round(..., 6)``) so a materialised
    columnar sample carries the exact float the scalar path stores.
    """
    q = math.floor(t / granularity_s) * granularity_s if granularity_s > 0 else t
    return round(float(q), 6)


class _Column:
    """A growable 1-D numpy array (amortised doubling)."""

    __slots__ = ("data", "n")

    def __init__(self, dtype: str = "f8", capacity: int = 64) -> None:
        self.data = np.empty(capacity, dtype=dtype)
        self.n = 0

    def append(self, value) -> None:
        data = self.data
        if self.n == len(data):
            grown = np.empty(max(16, 2 * len(data)), dtype=data.dtype)
            grown[: len(data)] = data
            self.data = data = grown
        data[self.n] = value
        self.n += 1

    def view(self) -> np.ndarray:
        return self.data[: self.n]


class TickLog:
    """Shared timestamp column for one sample group.

    ``raw`` holds the engine times the group ticked at (the values the
    scalar ring buffer bisects over); ``wire`` holds, per distinct
    sensor granularity among the members, the quantised timestamp every
    finished sample at that tick carries.
    """

    __slots__ = ("raw", "wire")

    def __init__(self) -> None:
        self.raw = _Column()
        self.wire: Dict[float, _Column] = {}

    @property
    def n(self) -> int:
        return self.raw.n

    def ensure_granularity(self, granularity_s: float) -> None:
        """Add a wire column for ``granularity_s``, backfilling history
        so a later-joining agent can reference earlier ticks."""
        if granularity_s in self.wire:
            return
        col = _Column()
        for t in self.raw.view():
            col.append(_wire_timestamp(float(t), granularity_s))
        self.wire[granularity_s] = col

    def tick(self, now: float) -> None:
        self.raw.append(now)
        for g, col in self.wire.items():
            col.append(_wire_timestamp(now, g))


class ColumnarSamples(Sequence):
    """Lazy window of ring samples: O(1) ``len``, dicts built on read.

    Slicing materialises to a plain list (the downsampling path), so
    downstream list idioms keep working; iteration yields fresh dicts
    whose contents are byte-identical to the scalar samples.
    """

    __slots__ = ("_ring", "_lo", "_hi")

    def __init__(self, ring: "ColumnarRing", lo: int, hi: int) -> None:
        self._ring = ring
        self._lo = lo
        self._hi = max(lo, hi)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        ring = self._ring
        for i in range(self._lo, self._hi):
            yield ring.materialize(i)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._ring.materialize(self._lo + i)
                    for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self._ring.materialize(self._lo + index)

    def __eq__(self, other) -> bool:
        # Sequence equality, so a payload carrying this view compares
        # equal to a list of the same samples (e.g. a reference ring's).
        if not isinstance(other, (list, tuple, ColumnarSamples)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    #: Mutable-looking view with value equality: unhashable, like list.
    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnarSamples(n={len(self)})"


class ColumnarRing:
    """A ring-buffer-compatible *view* over a group's tick log.

    Implements the read and recovery surface of an explicit ring buffer
    (len / dropped / oldest / newest / range / flush / snapshot /
    restore; ``tests/ring_reference.py`` is the reference) without
    storing anything per tick. Its sampler group pushes the segments;
    nothing else writes to it.
    """

    __slots__ = (
        "capacity", "log", "granularity_s", "start", "_flush_lo",
        "_frozen_end", "segments",
    )

    def __init__(
        self, log: TickLog, granularity_s: float, capacity: int, start: int
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.log = log
        self.granularity_s = granularity_s
        #: Log index of this ring's first sample.
        self.start = start
        self._flush_lo = start
        self._frozen_end: Optional[int] = None
        #: ``(log index, power_rev, template dict)`` runs, oldest first.
        self.segments: List[Tuple[int, int, dict]] = []

    # -- window arithmetic ---------------------------------------------
    @property
    def end(self) -> int:
        return self.log.n if self._frozen_end is None else self._frozen_end

    def freeze(self) -> None:
        """Stop tracking the log (agent unregistered)."""
        if self._frozen_end is None:
            self._frozen_end = self.log.n

    @property
    def total_appended(self) -> int:
        return self.end - self.start

    def _live_lo(self) -> int:
        return max(self._flush_lo, self.end - self.capacity)

    def __len__(self) -> int:
        return self.end - self._live_lo()

    @property
    def dropped(self) -> int:
        return self.total_appended - len(self)

    @property
    def oldest_timestamp(self) -> Optional[float]:
        lo = self._live_lo()
        return float(self.log.raw.data[lo]) if lo < self.end else None

    @property
    def newest_timestamp(self) -> Optional[float]:
        end = self.end
        return float(self.log.raw.data[end - 1]) if end > self._live_lo() else None

    def size_bytes(self, per_sample: int = DEFAULT_SAMPLE_BYTES) -> int:
        return len(self) * per_sample

    def capacity_bytes(self, per_sample: int = DEFAULT_SAMPLE_BYTES) -> int:
        return self.capacity * per_sample

    # -- segments -------------------------------------------------------
    def push_segment(self, log_idx: int, rev: int, template: dict) -> None:
        segs = self.segments
        if segs and segs[-1][0] == log_idx:
            segs[-1] = (log_idx, rev, template)
        else:
            segs.append((log_idx, rev, template))
            self._trim()

    def _trim(self) -> None:
        """Drop segments wholly before the live window. The newest one
        always stays: later ticks without a push extend it."""
        segs = self.segments
        lo = self._live_lo()
        k, last = 0, len(segs) - 1
        while k < last and segs[k + 1][0] <= lo:
            k += 1
        if k:
            del segs[:k]

    @property
    def segment_rev(self) -> int:
        """Power revision of the newest segment (-1 before the first)."""
        return self.segments[-1][1] if self.segments else -1

    def _template_for(self, i: int) -> dict:
        segs = self.segments
        lo, hi = 0, len(segs)
        while lo < hi:
            mid = (lo + hi) // 2
            if segs[mid][0] <= i:
                lo = mid + 1
            else:
                hi = mid
        return segs[lo - 1][2]

    def materialize(self, i: int) -> dict:
        """The finished sample for log index ``i`` — same dict contents
        (and key order) as the ``sample_cached`` fast path."""
        sample = dict(self._template_for(i))
        sample["timestamp"] = float(self.log.wire[self.granularity_s].data[i])
        return sample

    def adopt_last_tick(self) -> None:
        """Extend the window one tick backwards (catch-up sample)."""
        idx = self.log.n - 1
        self.start = idx
        self._flush_lo = min(self._flush_lo, idx)

    # -- ring read surface ---------------------------------------------
    def range(self, t_start: float, t_end: float):
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        lo_idx = self._live_lo()
        end = self.end
        if end > lo_idx:
            window = self.log.raw.data[lo_idx:end]
            lo = int(np.searchsorted(window, t_start, side="left"))
            hi = int(np.searchsorted(window, t_end, side="right"))
            samples = ColumnarSamples(self, lo_idx + lo, lo_idx + hi)
        else:
            samples = ColumnarSamples(self, 0, 0)
        oldest = self.oldest_timestamp
        complete = self.total_appended == 0 or (
            oldest is not None and (oldest <= t_start or self.dropped == 0)
        )
        return samples, complete

    def flush(self) -> int:
        n = len(self)
        self._flush_lo = self.end
        self._trim()
        return n

    def snapshot(self) -> List[Tuple[float, dict]]:
        lo = self._live_lo()
        raw = self.log.raw.data
        return [(float(raw[i]), self.materialize(i)) for i in range(lo, self.end)]

    # -- crash recovery (see repro.lifecycle.snapshot) -----------------
    def snapshot_state(self) -> dict:
        return {
            "capacity": self.capacity,
            "total_appended": self.total_appended,
            "entries": [[t, sample] for t, sample in self.snapshot()],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild from :meth:`snapshot_state` in place; ``{}`` empties
        the ring at the log's current end.

        The entries are the log's tail: each must carry the raw
        timestamp of its log index and equal the sample materialised
        there, so an artifact only restores into the run (and at the
        instant) it was taken from; anything else raises
        :class:`ValueError`. Restored segments carry revision -1, so
        the next group rescan re-samples the node.
        """
        end = self.end
        entries = state.get("entries") or []
        n = len(entries)
        total = int(state.get("total_appended", n))
        if n > min(total, self.capacity) or total > end:
            raise ValueError(
                f"snapshot window ({n} entries of {total} appended) does "
                f"not fit this ring ({end} ticks, capacity {self.capacity})"
            )
        lo = end - n
        raw = self.log.raw.data
        wire = self.log.wire[self.granularity_s].data
        segs: List[Tuple[int, int, dict]] = []
        for k, (t, sample) in enumerate(entries):
            i = lo + k
            ts = float(wire[i])
            if float(t) != float(raw[i]) or sample.get("timestamp") != ts:
                raise ValueError(
                    f"snapshot entry at t={t} is not this ring's sample "
                    f"at log index {i} (t={float(raw[i])})"
                )
            if not segs or {**segs[-1][2], "timestamp": ts} != sample:
                segs.append((i, -1, dict(sample)))
        self.start = end - total
        self._flush_lo = lo
        self.segments = segs
