"""History-based power policy.

Section III-B: "The node-level-manager can also utilize dynamic power
management policies, such as ones based on past power history, measured
performance counters, or other progress metrics." FPP is the paper's
FFT instance of this family; this module implements the plain
power-history variant: cap each GPU a fixed margin above its recent
peak draw, reclaiming headroom the workload demonstrably does not use.

Compared to FPP it needs no periodicity at all — it works on flat apps
— but it can never push a device *below* its demand (no energy saving
on compute-bound work), only defragment unused allocation.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.manager.policies.base import PowerPolicy

#: Tracking samples of history per GPU (2 s apart: ~30 s of history).
WINDOW = 15
#: Headroom above the observed peak, absorbing demand spikes between
#: control actions.
MARGIN_W = 20.0


class HistoryPolicy(PowerPolicy):
    """Cap each GPU at (recent peak + :data:`MARGIN_W`), within the node
    share, once :data:`WINDOW` samples of history exist."""

    name = "history"

    def __init__(self) -> None:
        super().__init__()
        self._history: List[deque] = []

    def attach(self, manager) -> None:
        super().attach(manager)
        self._history = [
            deque(maxlen=WINDOW)
            for _ in range(manager.device_count("gpu"))
        ]

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        assert self.manager is not None
        if limit_w is None:
            self.manager.clear_caps("gpu")
            return
        # The share is the ceiling until history accumulates.
        self.manager.enforce_limit_via_gpus(limit_w)

    def _share_ceiling(self) -> float:
        assert self.manager is not None
        lo, hi = self.manager.cap_range("gpu")
        if self.manager.node_limit_w is None:
            return hi
        return self.manager.derive_share("gpu", self.manager.node_limit_w)

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        assert self.manager is not None
        ceiling = self._share_ceiling()
        lo, hi = self.manager.cap_range("gpu")
        for i, watts in enumerate(gpu_w):
            self._history[i].append(watts)
            if len(self._history[i]) < WINDOW:
                continue  # not enough history yet
            cap = max(self._history[i]) + MARGIN_W
            cap = min(max(cap, lo), ceiling, hi)
            self.manager.set_cap("gpu", i, cap)

    def reset_job_state(self) -> None:
        assert self.manager is not None
        self._history = [
            deque(maxlen=WINDOW)
            for _ in range(self.manager.device_count("gpu"))
        ]

    def snapshot(self) -> dict:
        return {"history": [list(h) for h in self._history]}

    def restore(self, state) -> None:
        assert self.manager is not None
        self._history = [
            deque(maxlen=WINDOW)
            for _ in range(self.manager.device_count("gpu"))
        ]
        for h, saved in zip(self._history, state.get("history") or []):
            h.extend(float(w) for w in saved)

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "window": WINDOW,
            "margin_w": MARGIN_W,
            "history_fill": [len(h) for h in self._history],
        }
