"""Checkpoint-aware policy: coordinate caps with application phases.

Defensive checkpointing inverts a node's power profile: accelerator
draw collapses while CPU/IO draw bursts (state serialization + file
system writes). A share-enforcement policy wastes the whole GPU budget
during every such window and — worse — lets the node manager's non-GPU
power estimate learn the *checkpoint* CPU burst as the steady-state
reserve, shrinking compute-phase GPU budgets for the rest of the job.

This policy is *state-aware* (Section III-B's "other progress
metrics"): it learns which application landed on the node from the job
manager's existing ``job-state.*`` events (via
:meth:`~repro.manager.policies.base.PowerPolicy.on_job_state`), pulls
the app's :class:`~repro.apps.base.CheckpointProfile` from the apps
registry, and then runs a two-mode controller:

* **compute** — enforce the uniform GPU share, but derived from the
  policy's own *compute-phase* non-GPU estimate (samples taken during
  checkpoint windows are excluded, fixing the estimate-poisoning
  problem above);
* **checkpoint** — detected by the measured GPU-power dip the schedule
  predicts: cap GPUs down to their (collapsed) measured draw plus a
  margin and grant the freed watts to the CPU sockets, accelerating
  the burst; the schedule's ``duration_s`` bounds the window so a
  missed recovery cannot strand the GPUs capped low.

For applications with no checkpoint profile in the registry the policy
degenerates to proportional share enforcement.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.apps.base import CheckpointProfile
from repro.apps.registry import get_profile
from repro.manager.policies.base import PowerPolicy

#: Fraction of the compute-phase GPU peak below which the node is
#: considered inside a checkpoint window; only dips at least this deep
#: trigger the mode switch, so phase modulation alone does not.
DIP_FRACTION = 0.5
#: Headroom (watts) left above measured GPU draw when capping GPUs
#: down inside a window.
MARGIN_W = 15.0
#: Tracking samples of compute-phase history (recent peak).
WINDOW = 8


class CheckpointAwarePolicy(PowerPolicy):
    """Two-mode (compute / checkpoint) cap controller."""

    name = "checkpoint"

    def __init__(self) -> None:
        super().__init__()
        self.schedule: Optional[CheckpointProfile] = None
        self.app: Optional[str] = None
        self.in_checkpoint = False
        self.windows_seen = 0
        self._entered_at: Optional[float] = None
        self._gpu_peak = deque(maxlen=WINDOW)
        self._compute_non_gpu = deque(maxlen=WINDOW)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_job_state(self, state: str, payload: dict) -> None:
        if state not in ("running", "scheduled"):
            return
        app = payload.get("app")
        if not app:
            return
        self.app = app
        try:
            profile = get_profile(app)
        except KeyError:
            self.schedule = None
            return
        ck = profile.checkpoint
        self.schedule = ck if (ck is not None and ck.enabled) else None

    def reset_job_state(self) -> None:
        self.schedule = None
        self.app = None
        self.in_checkpoint = False
        self._entered_at = None
        self._gpu_peak.clear()
        self._compute_non_gpu.clear()

    def snapshot(self) -> dict:
        # The schedule object comes from the apps registry; snapshot the
        # app name plus a scheduled flag and re-resolve on restore so
        # the artifact stays plain JSON.
        return {
            "app": self.app,
            "scheduled": self.schedule is not None,
            "in_checkpoint": self.in_checkpoint,
            "windows_seen": self.windows_seen,
            "entered_at": self._entered_at,
            "gpu_peak": list(self._gpu_peak),
            "compute_non_gpu": list(self._compute_non_gpu),
        }

    def restore(self, state) -> None:
        app = state.get("app")
        self.app = None if app is None else str(app)
        self.schedule = None
        if state.get("scheduled") and self.app:
            try:
                ck = get_profile(self.app).checkpoint
            except KeyError:
                ck = None
            self.schedule = ck if (ck is not None and ck.enabled) else None
        self.in_checkpoint = bool(state.get("in_checkpoint", False))
        self.windows_seen = int(state.get("windows_seen", 0))
        entered = state.get("entered_at")
        self._entered_at = None if entered is None else float(entered)
        self._gpu_peak.clear()
        self._gpu_peak.extend(float(w) for w in state.get("gpu_peak") or [])
        self._compute_non_gpu.clear()
        self._compute_non_gpu.extend(
            float(w) for w in state.get("compute_non_gpu") or []
        )

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        assert self.manager is not None
        if limit_w is None:
            self.manager.clear_caps("gpu")
            self.manager.clear_caps("socket")
            return
        self._enforce_compute_share(limit_w)

    # ------------------------------------------------------------------
    # Compute-phase share (own non-GPU estimate)
    # ------------------------------------------------------------------
    def _compute_share(self, limit_w: float) -> float:
        """Per-GPU cap from the *compute-phase* non-GPU estimate."""
        m = self.manager
        assert m is not None
        lo, hi = m.cap_range("gpu")
        n = m.device_count("gpu")
        if n == 0:
            return 0.0
        if self._compute_non_gpu:
            non_gpu = max(self._compute_non_gpu)
            per_gpu = (float(limit_w) - non_gpu) / n
            return float(min(max(per_gpu, lo), hi))
        return m.derive_share("gpu", float(limit_w))

    def _enforce_compute_share(self, limit_w: float) -> None:
        m = self.manager
        assert m is not None
        per_gpu = self._compute_share(limit_w)
        for i in range(m.device_count("gpu")):
            m.set_cap("gpu", i, per_gpu)

    # ------------------------------------------------------------------
    # Sampling: mode detection + enforcement
    # ------------------------------------------------------------------
    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        m = self.manager
        assert m is not None
        limit = m.node_limit_w
        if limit is None:
            return
        if self.schedule is None:
            # No checkpoint knowledge: plain share enforcement.
            m.enforce_limit_via_gpus(limit)
            return
        gpu_sum = sum(gpu_w)
        if self.in_checkpoint:
            self._sample_in_window(timestamp, limit, gpu_w, gpu_sum)
        else:
            self._sample_in_compute(timestamp, node_w, limit, gpu_w, gpu_sum)

    def _sample_in_compute(
        self,
        timestamp: float,
        node_w: float,
        limit: float,
        gpu_w: List[float],
        gpu_sum: float,
    ) -> None:
        m = self.manager
        assert m is not None
        peak = max(self._gpu_peak) if self._gpu_peak else 0.0
        if (
            len(self._gpu_peak) >= WINDOW // 2 + 1
            and peak > 0.0
            and gpu_sum < DIP_FRACTION * peak
        ):
            # The scheduled dip arrived: enter checkpoint mode.
            self.in_checkpoint = True
            self._entered_at = timestamp
            self.windows_seen += 1
            m.broker.telemetry.metrics.counter(
                "policy_checkpoint_windows_total",
                help="checkpoint windows entered by the checkpoint policy",
            ).inc()
            self._apply_window_caps(limit, gpu_w)
            return
        self._gpu_peak.append(gpu_sum)
        self._compute_non_gpu.append(max(0.0, node_w - gpu_sum))
        self._enforce_compute_share(limit)

    def _sample_in_window(
        self,
        timestamp: float,
        limit: float,
        gpu_w: List[float],
        gpu_sum: float,
    ) -> None:
        assert self.schedule is not None and self._entered_at is not None
        peak = max(self._gpu_peak) if self._gpu_peak else 0.0
        elapsed = timestamp - self._entered_at
        recovered = peak > 0.0 and gpu_sum > DIP_FRACTION * peak
        # The schedule bounds the window: even if the caps we installed
        # prevent the power signal from ever "recovering", exit after
        # the profile's declared duration (plus one-interval slack).
        timed_out = elapsed >= 2.0 * self.schedule.duration_s
        if recovered or timed_out:
            self.in_checkpoint = False
            self._entered_at = None
            self._restore_compute_caps(limit)
            return
        self._apply_window_caps(limit, gpu_w)

    # ------------------------------------------------------------------
    # Cap actions
    # ------------------------------------------------------------------
    def _apply_window_caps(self, limit: float, gpu_w: List[float]) -> None:
        """Inside a window: squeeze GPUs, grant the surplus to sockets."""
        m = self.manager
        assert m is not None
        g_lo, g_hi = m.cap_range("gpu")
        granted = 0.0
        for i, w in enumerate(gpu_w):
            cap = min(max(w + MARGIN_W, g_lo), g_hi)
            m.set_cap("gpu", i, cap)
            granted += cap
        n_sock = m.device_count("socket")
        if n_sock == 0:
            return
        s_lo, s_hi = m.cap_range("socket")
        # CPU-side budget: everything the limit allows once the
        # (squeezed) GPU grant and the uncappable memory draw are paid.
        cpu_budget = float(limit) - granted - m.mem_power_w()
        per_sock = min(max(cpu_budget / n_sock, s_lo), s_hi)
        for i in range(n_sock):
            m.set_cap("socket", i, per_sock)

    def _restore_compute_caps(self, limit: float) -> None:
        m = self.manager
        assert m is not None
        self._enforce_compute_share(limit)
        n_sock = m.device_count("socket")
        if n_sock == 0:
            return
        s_lo, s_hi = m.cap_range("socket")
        # Back to compute mode: sockets return to their uniform share
        # of what the limit leaves after the GPU grant.
        per_gpu = self._compute_share(limit)
        cpu_budget = (
            float(limit) - per_gpu * m.device_count("gpu") - m.mem_power_w()
        )
        per_sock = min(max(cpu_budget / n_sock, s_lo), s_hi)
        for i in range(n_sock):
            m.set_cap("socket", i, per_sock)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "policy": self.name,
            "app": self.app,
            "scheduled": self.schedule is not None,
            "in_checkpoint": self.in_checkpoint,
            "windows_seen": self.windows_seen,
        }
