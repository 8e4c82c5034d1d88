"""Host-noise diagnostics recorded beside every run.

These numbers explain a spread; they never become a metric and never
divide one. The probe is a fixed pure-Python loop timed before and
after the measured window: when a run's figures drift, a slower probe
says the host was slower, not the program. The GC monitor counts
collections per generation and their pause time through
``gc.callbacks``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List


def probe_s(rounds: int = 3, n: int = 300_000) -> List[float]:
    """Time a fixed integer loop ``rounds`` times (seconds each)."""
    out = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
        out.append(time.perf_counter() - t0)
    return out


class GcMonitor:
    """Collections and pause seconds per generation while installed."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            gen = info["generation"]
            self.collections[gen] += 1
            self.pause_s[gen] += time.perf_counter() - self._t0

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def to_dict(self) -> Dict[str, List[float]]:
        return {"collections": list(self.collections), "pause_s": list(self.pause_s)}
