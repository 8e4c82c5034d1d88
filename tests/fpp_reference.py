"""Eager reference model of the FPP per-GPU controller.

:class:`EagerFPPController` runs every 30 s rolling refresh's FFT at the
moment it fires, the way Algorithm 1 reads. The production
:class:`~repro.manager.policies.fpp.FPPGpuController` evaluates the
same refresh only when something reads ``period_s``; the equivalence
tests feed both the same traces and require identical ``describe()``
and ``snapshot()`` output after every step.
"""

from __future__ import annotations

from typing import List, Optional

from repro.manager.fft import estimate_period
from repro.manager.policies.fpp import FPPGpuController, FPPParams


class EagerFPPController:
    """Per-GPU FPP state with an FFT on every rolling refresh."""

    #: Cap decisions do not depend on when the period was computed.
    next_cap = FPPGpuController.next_cap

    def __init__(self, index: int, params: FPPParams, sample_dt_s: float) -> None:
        self.index = index
        self.params = params
        self.sample_dt_s = float(sample_dt_s)
        self.buffer: List[float] = []
        self.period_s: Optional[float] = None
        self.t_prev: Optional[float] = None
        self.cap_prev: Optional[float] = None
        self.converged = False
        self.last_delta: Optional[float] = None
        self._samples_since_update = 0

    def _estimate(self) -> None:
        period = estimate_period(self.buffer, self.sample_dt_s)
        if period is not None or (
            len(self.buffer) * self.sample_dt_s >= self.params.fft_update_s
        ):
            self.period_s = period

    def store_power(self, watts: float) -> None:
        self.buffer.append(float(watts))
        self._samples_since_update += 1
        if self._samples_since_update * self.sample_dt_s >= self.params.fft_update_s:
            self._samples_since_update = 0
            self._estimate()

    def refresh_period(self) -> None:
        self._estimate()

    def reset_buffer(self) -> None:
        self.buffer.clear()
        self._samples_since_update = 0

    def snapshot(self) -> dict:
        return {
            "buffer": list(self.buffer),
            "period_s": self.period_s,
            "t_prev": self.t_prev,
            "cap_prev": self.cap_prev,
            "converged": self.converged,
            "last_delta": self.last_delta,
            "samples_since_update": self._samples_since_update,
        }

    def restore(self, state) -> None:
        self.buffer = [float(w) for w in state.get("buffer") or []]
        period = state.get("period_s")
        self.period_s = None if period is None else float(period)
        t_prev = state.get("t_prev")
        self.t_prev = None if t_prev is None else float(t_prev)
        cap_prev = state.get("cap_prev")
        self.cap_prev = None if cap_prev is None else float(cap_prev)
        self.converged = bool(state.get("converged", False))
        last_delta = state.get("last_delta")
        self.last_delta = None if last_delta is None else float(last_delta)
        self._samples_since_update = int(state.get("samples_since_update", 0))

    def describe(self) -> dict:
        return {
            "gpu": self.index,
            "period_s": self.period_s,
            "converged": self.converged,
            "last_delta_s": self.last_delta,
        }
