"""PI feedback policy: close the loop on measured node power.

The share-enforcement policies are *feed-forward*: they derive device
caps from the node limit and a conservative non-device power estimate,
so a node typically settles somewhat below its limit (stranded power)
or rides measurement error. This policy adds the classical feedback
alternative from the production power-management literature (PowerAPI /
GEOPM-style governors): a proportional-integral controller on the
error between the assigned node limit and *measured* node power,
actuating the total GPU budget.

    error_w  = (node_limit_w - margin_w) - node_w
    budget_w = base_w + kp * error_w + ki * integral(error_w dt)

``base_w`` is the feed-forward operating point (the uniform-share GPU
budget), so the P and I terms only correct the *residual* — with zero
gains the policy degenerates to proportional enforcement.

Anti-windup uses **conditional integration**: the integral stops
accumulating while the controller output is saturated at a budget
bound *and* the error keeps pushing further into saturation; an
absolute clamp on the integral term bounds the stored correction even
across long saturated stretches. The arithmetic is the pure
:func:`pi_step` so the no-escape property (output always inside the
commanded box) is property-tested without a simulator.

Deliberately mis-tuned gains make this controller oscillate hard —
that is what the :class:`~repro.manager.policies.safety.
PolicySafetyWrapper` is for, and the registry only ever exposes the
wrapped form (``"pi"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.manager.policies.base import PowerPolicy


@dataclass(frozen=True)
class PIParams:
    """Controller constants. See docs/policies.md for tuning guidance.

    Attributes
    ----------
    kp:
        Proportional gain, watts of budget per watt of error
        (dimensionless). The default 0.4 recovers about a third of the
        observed error per control interval without overshooting on
        the plant's ~one-sample actuation delay.
    ki:
        Integral gain, 1/s: watts of budget per accumulated watt-second
        of error.
    control_interval_s:
        Control cadence. Must be >= the sampling interval (the error
        signal only refreshes per sample).
    margin_w:
        Setpoint backoff below the node limit, in watts. A small
        margin keeps transient overshoot from tripping node-level
        enforcement.
    integral_clamp_ws:
        Absolute bound on the stored integral, in watt-seconds
        (|ki * integral| <= ki * clamp watts of correction).
    """

    kp: float = 0.4
    ki: float = 0.02
    control_interval_s: float = 6.0
    margin_w: float = 10.0
    integral_clamp_ws: float = 4000.0


def pi_step(
    error_w: float,
    integral_ws: float,
    dt_s: float,
    kp: float,
    ki: float,
    base_w: float,
    out_lo_w: float,
    out_hi_w: float,
    integral_clamp_ws: float,
) -> Tuple[float, float]:
    """One PI update with conditional-integration anti-windup.

    Returns ``(output_w, new_integral_ws)`` with ``output_w`` clamped
    into ``[out_lo_w, out_hi_w]`` and ``|new_integral_ws|`` never
    exceeding ``max(|integral_ws|, integral_clamp_ws)``. Pure — this is
    the function under property test.
    """
    if out_hi_w < out_lo_w:
        raise ValueError(f"output box inverted: [{out_lo_w}, {out_hi_w}]")
    if dt_s < 0.0:
        raise ValueError("dt_s must be >= 0")
    clamp = abs(integral_clamp_ws)
    cand = integral_ws + error_w * dt_s
    cand = min(max(cand, -clamp), clamp)
    unsat = base_w + kp * error_w + ki * cand
    # Conditional integration: freeze the integral while saturated and
    # the error pushes further into the same bound.
    if (unsat > out_hi_w and error_w > 0.0) or (
        unsat < out_lo_w and error_w < 0.0
    ):
        new_integral = integral_ws
    else:
        new_integral = cand
    out = base_w + kp * error_w + ki * new_integral
    return min(max(out, out_lo_w), out_hi_w), new_integral


class PIPolicy(PowerPolicy):
    """Uniform per-GPU caps driven by a PI loop on node power error."""

    name = "pi"

    def __init__(self, params: Optional[PIParams] = None) -> None:
        super().__init__()
        self.params = params or PIParams()
        if self.params.control_interval_s <= 0:
            raise ValueError("control_interval_s must be > 0")
        self.integral_ws = 0.0
        self.last_error_w: Optional[float] = None
        self._last_node_w: Optional[float] = None
        self._timer = None

    # ------------------------------------------------------------------
    def attach(self, manager) -> None:
        super().attach(manager)
        self._timer = manager.add_timer(
            self.params.control_interval_s, self._control_tick
        )

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        super().detach()

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        assert self.manager is not None
        if limit_w is None:
            self.integral_ws = 0.0
            self.manager.clear_caps("gpu")
            return
        # Feed-forward step to the uniform share; the loop corrects the
        # residual from the next control tick on.
        self.manager.enforce_limit_via_gpus(limit_w)

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        self._last_node_w = node_w

    def reset_job_state(self) -> None:
        self.integral_ws = 0.0
        self.last_error_w = None
        self._last_node_w = None

    def snapshot(self) -> dict:
        return {
            "integral_ws": self.integral_ws,
            "last_error_w": self.last_error_w,
            "last_node_w": self._last_node_w,
        }

    def restore(self, state) -> None:
        self.integral_ws = float(state.get("integral_ws", 0.0))
        last_error = state.get("last_error_w")
        self.last_error_w = None if last_error is None else float(last_error)
        last_node = state.get("last_node_w")
        self._last_node_w = None if last_node is None else float(last_node)

    # ------------------------------------------------------------------
    def _control_tick(self, _timer) -> None:
        m = self.manager
        assert m is not None
        limit = m.node_limit_w
        if limit is None or self._last_node_w is None or not m.job_present:
            return
        n = m.device_count("gpu")
        if n == 0:
            return
        lo, hi = m.cap_range("gpu")
        p = self.params
        error_w = (float(limit) - p.margin_w) - self._last_node_w
        base_w = m.derive_share("gpu", limit) * n
        budget_w, self.integral_ws = pi_step(
            error_w,
            self.integral_ws,
            p.control_interval_s,
            p.kp,
            p.ki,
            base_w,
            out_lo_w=lo * n,
            out_hi_w=hi * n,
            integral_clamp_ws=p.integral_clamp_ws,
        )
        self.last_error_w = error_w
        per_gpu = budget_w / n
        for i in range(n):
            m.set_cap("gpu", i, per_gpu)
        m.broker.telemetry.metrics.counter(
            "policy_control_updates_total", labels={"policy": self.name},
            help="dynamic-policy control-loop evaluations, by policy",
        ).inc()

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "kp": self.params.kp,
            "ki": self.params.ki,
            "integral_ws": self.integral_ws,
            "last_error_w": self.last_error_w,
        }
