"""FPP: the FFT-based dynamic power policy (Algorithm 1).

Per GPU, FPP keeps a buffer of power samples, estimates the signal's
dominant period every ``fft_update_s`` (30 s), and every
``powercap_time_s`` (90 s) adjusts the GPU cap based on how the period
moved since the previous control interval:

* ``|Δ| <= converge_th`` (2 s) — the application is unaffected by the
  current cap: stop adjusting (persistent converged flag).
* ``Δ < 0`` and ``converge_th < |Δ| < change_th`` (5 s) — the period
  shrank a little: the application is not significantly affected, so
  reduce the cap by ``P_reduce`` (50 W).
* otherwise — the period grew (the cap is hurting progress): give
  power back in steps of ``powercap_levels[min(|Δ|/5, 2)]`` W.

Two points in the published pseudocode are ambiguous and resolved here,
consistent with the paper's narrative (Section IV-D):

1. ``F_converge`` is initialised inside GET-GPU-CAP, which would reset
   it on every call; the text says "power adjustments cease when the
   delta falls below the convergence threshold", so the flag is kept
   *persistent* per GPU.
2. On the very first control interval (``P_cap_prev is None``) the
   pseudocode returns the current cap unchanged — but then no reduction
   could ever occur, since a stable app converges immediately. The text
   says "FPP first *tries to reduce power*", so the first interval
   records the baseline period and applies an initial probe reduction
   of ``P_reduce``.

When the period detector returns ``None`` (flat or noise-dominated
signal — GEMM/LAMMPS/NQueens have "relatively flat power timelines"),
the change is treated as exceeding the change threshold and power is
restored at the maximum step — reproducing "FPP ... sees that the
period doubles and instantly gives back the power".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.manager.fft import estimate_period
from repro.manager.policies.base import PowerPolicy
from repro.telemetry import FPP_FFT_COST_S


@dataclass(frozen=True)
class FPPParams:
    """Algorithm 1 constants (all overridable; defaults are the paper's).

    The defaults assume "a GPU similar to the NVIDIA Volta" (300 W max);
    the ablation bench sweeps ``p_reduce_w``, ``powercap_time_s`` and
    the step levels, which the paper lists as unexplored future work.
    """

    converge_th_s: float = 2.0
    change_th_s: float = 5.0
    p_reduce_w: float = 50.0
    powercap_levels_w: Tuple[float, float, float] = (10.0, 15.0, 25.0)
    powercap_time_s: float = 90.0
    fft_update_s: float = 30.0
    max_gpu_cap_w: float = 300.0
    initial_probe: bool = True


class FPPGpuController:
    """Per-GPU FPP state machine: buffer, period history, cap decisions.

    The 30 s rolling period refresh is evaluated on read: a refresh
    records the buffer prefix length it fired at, and :attr:`period_s`
    runs the FFT over that prefix when something reads it. The buffer
    only grows between resets, so the prefix holds exactly the samples
    an eager refresh would have seen. Control ticks overwrite the value
    with a fresh estimate before deciding, so in a run that never reads
    :meth:`describe` or :meth:`snapshot` no rolling FFT executes.
    """

    def __init__(self, index: int, params: FPPParams, sample_dt_s: float) -> None:
        self.index = index
        self.params = params
        self.sample_dt_s = float(sample_dt_s)
        self.buffer: List[float] = []
        self._period_s: Optional[float] = None
        #: Buffer prefix length of the rolling refresh not yet evaluated.
        self._pending_n: Optional[int] = None
        self.t_prev: Optional[float] = None
        self.cap_prev: Optional[float] = None
        self.converged = False
        self.last_delta: Optional[float] = None
        self._samples_since_update = 0

    # ------------------------------------------------------------------
    # FFT-GET-PERIOD
    # ------------------------------------------------------------------
    @property
    def period_s(self) -> Optional[float]:
        """Latest period estimate (evaluates a pending 30 s refresh)."""
        self._settle()
        return self._period_s

    @period_s.setter
    def period_s(self, value: Optional[float]) -> None:
        self._pending_n = None
        self._period_s = value

    def _long_enough(self, n: int) -> bool:
        return n * self.sample_dt_s >= self.params.fft_update_s

    def _estimate(self, n: int) -> None:
        """Estimate over the first ``n`` samples; keep a ``None`` result
        only once the window is long enough to be trusted."""
        period = estimate_period(self.buffer[:n], self.sample_dt_s)
        if period is not None or self._long_enough(n):
            self._period_s = period

    def _settle(self) -> None:
        n = self._pending_n
        if n is not None:
            self._pending_n = None
            self._estimate(n)

    def _supersede(self, n: int) -> None:
        """A refresh over the first ``n`` samples is due: drop the pending
        one when the new one is certain to overwrite it, else evaluate it."""
        if self._long_enough(n):
            self._pending_n = None
        else:
            self._settle()

    def store_power(self, watts: float) -> None:
        """STOREPOWERDATA + the 30 s rolling period refresh."""
        self.buffer.append(float(watts))
        self._samples_since_update += 1
        if self._samples_since_update * self.sample_dt_s >= self.params.fft_update_s:
            self._samples_since_update = 0
            n = len(self.buffer)
            self._supersede(n)
            self._pending_n = n

    def refresh_period(self) -> None:
        """Re-estimate from the full current buffer (freshest data).

        Called by the policy right before a control decision so the
        decision never acts on an estimate up to 30 s stale.
        """
        n = len(self.buffer)
        self._supersede(n)
        self._estimate(n)

    def reset_buffer(self) -> None:
        """MAIN line 42: reset the FFT buffer each control interval."""
        self._settle()
        self.buffer.clear()
        self._samples_since_update = 0

    # ------------------------------------------------------------------
    # GET-GPU-CAP
    # ------------------------------------------------------------------
    def next_cap(
        self, cap_cur: float, cap_floor: float, cap_ceiling: float
    ) -> float:
        """One control-interval decision; returns the cap to install."""
        p = self.params
        t_cur = self.period_s
        if self.converged:
            return cap_cur
        if self.cap_prev is None:
            # First interval: record baseline, probe downward (see
            # module docstring, disambiguation 2).
            self.t_prev = t_cur
            self.cap_prev = cap_cur
            if p.initial_probe:
                return max(cap_floor, cap_cur - p.p_reduce_w)
            return cap_cur

        if t_cur is None or self.t_prev is None:
            delta = math.inf
            delta_abs = math.inf
        else:
            delta = t_cur - self.t_prev
            delta_abs = abs(delta)
        self.last_delta = None if math.isinf(delta_abs) else delta
        self.t_prev = t_cur
        self.cap_prev = cap_cur

        if delta_abs <= p.converge_th_s:
            self.converged = True
            return cap_cur
        if delta < 0 and p.converge_th_s < delta_abs < p.change_th_s:
            return max(cap_floor, cap_cur - p.p_reduce_w)
        if math.isinf(delta_abs):
            level = p.powercap_levels_w[-1]
        else:
            idx = min(int(delta_abs / p.change_th_s), len(p.powercap_levels_w) - 1)
            level = p.powercap_levels_w[idx]
        return min(cap_ceiling, cap_cur + level)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
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


class FPPPolicy(PowerPolicy):
    """Node-level FPP: one controller per device, 90 s control cadence.

    The node power limit assigned by the job-level manager defines each
    device's *ceiling* (``GPU_Power_Lim``, derived exactly like the
    proportional policy's uniform split); FPP then moves each device's
    cap independently below that ceiling — non-uniform per-device
    distribution is the point of running it per device.

    Algorithm 1 is device-agnostic (Section III-B2): :attr:`domain`
    names the node manager's cap domain the controllers run on. This
    class drives GPUs; :class:`~repro.manager.policies.fpp_socket.
    FPPSocketPolicy` drives CPU sockets through the same code.
    """

    name = "fpp"
    #: Cap domain of the node manager (``"gpu"`` or ``"socket"``).
    domain = "gpu"
    #: Algorithm 1 constants used when the constructor gets none.
    default_params = FPPParams()

    def __init__(self, params: Optional[FPPParams] = None) -> None:
        super().__init__()
        self.params = params or self.default_params
        self.controllers: List[FPPGpuController] = []
        self.caps_w: List[float] = []
        self._timer = None
        self._last_limit_w: Optional[float] = None

    # ------------------------------------------------------------------
    def _fresh_controllers(self) -> int:
        """Attach-fresh controllers, one per device; returns the count."""
        assert self.manager is not None
        n = self.manager.device_count(self.domain)
        self.controllers = [
            FPPGpuController(i, self.params, self.manager.sample_interval_s)
            for i in range(n)
        ]
        return n

    def attach(self, manager) -> None:
        super().attach(manager)
        n = self._fresh_controllers()
        _lo, hi = manager.cap_range(self.domain)
        self.caps_w = [min(self.params.max_gpu_cap_w, hi)] * n
        self._timer = manager.add_timer(
            self.params.powercap_time_s, self._control_tick
        )

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        super().detach()

    # ------------------------------------------------------------------
    def _ceiling(self) -> float:
        """GPU_Power_Lim: derived max cap from the node-level limit."""
        assert self.manager is not None
        _lo, hi = self.manager.cap_range(self.domain)
        limit = self.manager.node_limit_w
        if limit is None:
            derived = hi
        else:
            derived = self.manager.derive_share(self.domain, limit)
        return min(self.params.max_gpu_cap_w, derived, hi)

    def _idle(self) -> bool:
        """No job and no limit on this node: nothing to manage."""
        return self.manager.node_limit_w is None and not self.manager.job_present

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        assert self.manager is not None
        ceiling = self._ceiling()
        lo, _hi = self.manager.cap_range(self.domain)
        previous = self._last_limit_w
        self._last_limit_w = limit_w
        if limit_w != previous:
            increased = (
                previous is not None
                and limit_w is not None
                and limit_w > previous
            ) or (limit_w is None and previous is not None)
            if increased:
                # Headroom appeared (a co-running job departed).
                # Algorithm 1's MAIN derives P_cap_cur from the
                # node-level limit, so restart the per-device state
                # machines at the new ceiling and probe again.
                self.reset_job_state()
                return
            # A share decrease is a hard budget change: clamp caps
            # below (handled by the loop that follows) but keep the
            # controllers' learned state — repeated re-probing on
            # every arrival would thrash busy queues.
        for i in range(len(self.caps_w)):
            # Same limit re-announced: only enforce the (possibly
            # refined) ceiling downward; FPP walks caps up on its own
            # cadence.
            if self.caps_w[i] > ceiling:
                self.caps_w[i] = max(lo, ceiling)
            self.manager.set_cap(self.domain, i, self.caps_w[i])

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        assert self.manager is not None
        if self._idle():
            # Nothing decides on these samples, and the next job's
            # reset_job_state would discard them: the buffers stay empty.
            return
        for ctl, w in zip(self.controllers, self.manager.device_w[self.domain]):
            ctl.store_power(w)
        # The budget ceiling moves as the node manager's other-power
        # estimate refines; a meaningful ceiling decrease must be
        # enforced at once (the share is a hard limit), while increases
        # wait for FPP's own control cadence. The 10 W hysteresis stops
        # phase-induced jitter in the estimate from ratcheting caps
        # down between control ticks.
        if self.manager.node_limit_w is not None:
            ceiling = self._ceiling()
            lo, _hi = self.manager.cap_range(self.domain)
            for i in range(len(self.caps_w)):
                if self.caps_w[i] > ceiling + 10.0:
                    self.caps_w[i] = max(lo, ceiling)
                    self.manager.set_cap(self.domain, i, self.caps_w[i])

    def _control_tick(self, _timer) -> None:
        assert self.manager is not None
        if self._idle():
            return
        tel = self.manager.broker.telemetry
        rank = self.manager.broker.rank
        tel.metrics.counter(
            "fpp_control_ticks_total",
            help="FPP 90 s control-interval evaluations (active nodes)",
        ).inc()
        lo, _hi = self.manager.cap_range(self.domain)
        ceiling = self._ceiling()
        with tel.tracer.trace_span(
            "fpp.control_tick", "manager", rank=rank, gpus=len(self.controllers)
        ):
            for i, ctl in enumerate(self.controllers):
                ctl.refresh_period()
                tel.metrics.counter(
                    "fpp_fft_runs_total",
                    help="FFT period estimations at control ticks",
                ).inc()
                tel.accountant.charge("manager", FPP_FFT_COST_S)
                outcome = "detected" if ctl.period_s is not None else "none"
                tel.metrics.counter(
                    "fpp_periods_total", labels={"outcome": outcome},
                    help="period-detection outcomes (detected vs flat/noisy)",
                ).inc()
                if ctl.period_s is not None:
                    tel.metrics.histogram(
                        "fpp_period_seconds",
                        buckets=(2.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0),
                        help="detected dominant application periods",
                    ).observe(ctl.period_s)
                new_cap = ctl.next_cap(self.caps_w[i], lo, ceiling)
                if new_cap != self.caps_w[i]:
                    direction = "down" if new_cap < self.caps_w[i] else "up"
                    tel.metrics.counter(
                        "fpp_cap_changes_total", labels={"direction": direction},
                        help="FPP per-GPU cap adjustments, by direction",
                    ).inc()
                    self.caps_w[i] = new_cap
                    self.manager.set_cap(self.domain, i, new_cap)
                ctl.reset_buffer()

    def reset_job_state(self) -> None:
        """Fresh controllers when a new job lands on the node."""
        assert self.manager is not None
        n = self._fresh_controllers()
        lo, _hi = self.manager.cap_range(self.domain)
        ceiling = self._ceiling()
        self.caps_w = [max(lo, ceiling)] * n
        for i in range(n):
            self.manager.set_cap(self.domain, i, self.caps_w[i])

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "caps_w": list(self.caps_w),
            "last_limit_w": self._last_limit_w,
            "controllers": [c.snapshot() for c in self.controllers],
        }

    def restore(self, state) -> None:
        assert self.manager is not None
        ctl_states = state.get("controllers")
        if ctl_states is None:
            # Amnesiac wipe: back to attach-fresh state (no cap writes;
            # installed hardware caps are environment, not policy state).
            n = self._fresh_controllers()
            _lo, hi = self.manager.cap_range(self.domain)
            self.caps_w = [min(self.params.max_gpu_cap_w, hi)] * n
            self._last_limit_w = None
            return
        n = self.manager.device_count(self.domain)
        if len(ctl_states) != n:
            raise ValueError(
                f"snapshot has {len(ctl_states)} controllers, node has "
                f"{n} {self.domain} devices"
            )
        for ctl, ctl_state in zip(self.controllers, ctl_states):
            ctl.restore(ctl_state)
        self.caps_w = [float(w) for w in state.get("caps_w") or []]
        last_limit = state.get("last_limit_w")
        self._last_limit_w = None if last_limit is None else float(last_limit)

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "caps_w": list(self.caps_w),
            "controllers": [c.describe() for c in self.controllers],
        }
