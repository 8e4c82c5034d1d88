"""NRM-style safety wrapper: guardrails around any dynamic policy.

Argo NRM's ``PowerPolicyManager`` refuses to act on control steps that
are too small to matter (``damper``) and refuses to push an application
more than a configured factor below its fair operating point
(``slowdown``), counting each refusal in ``damperexits`` /
``slowdownexits``. :class:`PolicySafetyWrapper` ports that idea to the
node-policy interface: it hosts an inner :class:`PowerPolicy` and hands
it a *guarded proxy* of the node manager, so every cap the inner
controller tries to write passes through four checks:

1. **budget** — the sum of device caps may not exceed the node limit
   minus the measured non-device power (per-device ceiling
   ``max(lo, (limit − other_w) / n)``), so a runaway controller cannot
   allocate power the node does not have;
2. **slowdown** — no device cap may fall below ``uniform_share /
   slowdown`` (floored at the device minimum), bounding how far below
   its fair share a controller can starve a device;
3. **box** — the cap is clamped into the device capping range
   ``[lo, hi]`` (the hardware would clamp anyway; counting it here
   makes misbehaving controllers visible);
4. **damper** — writes that move the cap by less than
   ``damper × (hi − lo)`` watts are *skipped* entirely, suppressing
   oscillation and driver churn from jittery controllers.

Units: ``damper`` is a fraction of the device capping span (0.1 on a
100–300 W GPU means "ignore moves under 20 W"); ``slowdown`` is a
dimensionless ratio ≥ 1 ("never cap below share/1.1"). Everything else
is watts. Exit counters are exposed in :meth:`describe` and as the
``policy_guard_clamps_total`` / ``policy_damper_exits_total`` /
``policy_slowdown_exits_total`` metrics.

The guard arithmetic lives in the pure :func:`guard_cap` so the safety
property — a guarded write is always inside ``[lo, hi]`` and under the
budget ceiling — is property-tested without a simulator
(``tests/test_property_policy_guards.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.manager.policies.base import PowerPolicy

#: NRM's shipped defaults (nrm/daemon.py): damper 0.1, slowdown 1.1.
DEFAULT_DAMPER = 0.1
DEFAULT_SLOWDOWN = 1.1


@dataclass(frozen=True)
class GuardDecision:
    """Outcome of guarding one cap write.

    ``cap_w`` is the watts to install, or ``None`` when the damper
    suppressed the write. ``clamps`` names the guards that fired, in
    application order (subset of ``budget``/``slowdown``/``low``/
    ``high``/``damper``).
    """

    cap_w: Optional[float]
    clamps: Tuple[str, ...]


def guard_cap(
    proposed_w: float,
    last_w: Optional[float],
    lo_w: float,
    hi_w: float,
    ceiling_w: Optional[float] = None,
    floor_w: Optional[float] = None,
    damper_w: float = 0.0,
) -> GuardDecision:
    """Pure guard arithmetic for a single device-cap write.

    Applies, in order: budget ceiling, slowdown floor, box clamp to
    ``[lo_w, hi_w]``, then the damper (skip if the surviving value
    moves less than ``damper_w`` watts from ``last_w``). The floor is
    applied after the ceiling, so when a misconfiguration makes them
    cross, the floor (progress protection) wins — and the box clamp
    still bounds the result.
    """
    if hi_w < lo_w:
        raise ValueError(f"cap range inverted: [{lo_w}, {hi_w}]")
    clamps = []
    v = float(proposed_w)
    if ceiling_w is not None and v > ceiling_w:
        v = float(ceiling_w)
        clamps.append("budget")
    if floor_w is not None and v < floor_w:
        v = float(floor_w)
        clamps.append("slowdown")
    if v < lo_w:
        v = lo_w
        clamps.append("low")
    elif v > hi_w:
        v = hi_w
        clamps.append("high")
    if last_w is not None and damper_w > 0.0 and abs(v - last_w) < damper_w:
        return GuardDecision(None, ("damper",))
    return GuardDecision(v, tuple(clamps))


class _GuardedManagerProxy:
    """The node manager as seen by a wrapped policy.

    Transparent for reads (``__getattr__`` delegates), interposing on
    the two write paths: ``set_cap`` (every cap domain) and
    ``enforce_limit_via_gpus``.
    """

    def __init__(self, manager, wrapper: "PolicySafetyWrapper") -> None:
        self._manager = manager
        self._wrapper = wrapper

    def __getattr__(self, name):
        return getattr(self._manager, name)

    def set_cap(self, domain: str, index: int, watts: float) -> None:
        self._wrapper._guarded_write(domain, index, watts)

    def enforce_limit_via_gpus(self, node_limit_w: float) -> None:
        # An inner policy asking to enforce *above* the assigned node
        # limit is exactly the runaway this wrapper exists to stop.
        assigned = self._manager.node_limit_w
        if assigned is not None:
            node_limit_w = min(float(node_limit_w), float(assigned))
        per_gpu = self._manager.derive_share("gpu", node_limit_w)
        for i in range(self._manager.device_count("gpu")):
            self._wrapper._guarded_write("gpu", i, per_gpu)


class PolicySafetyWrapper(PowerPolicy):
    """Host an inner policy behind damper/slowdown/budget guardrails.

    Parameters
    ----------
    inner:
        The wrapped policy. It is attached to a guarded proxy, not the
        real manager, so it needs no cooperation — existing policies
        wrap unchanged.
    damper:
        Fraction of the device capping span below which cap *changes*
        are skipped (NRM's ``damper``, default 0.1). 0 disables.
    slowdown:
        Maximum allowed ratio between a device's uniform fair share
        and its cap (NRM's ``slowdown``, default 1.1, i.e. a device
        may be pushed at most ~9 % below its share). 1.0 pins caps at
        the share itself; must be >= 1.
    """

    def __init__(
        self,
        inner: PowerPolicy,
        damper: float = DEFAULT_DAMPER,
        slowdown: float = DEFAULT_SLOWDOWN,
    ) -> None:
        super().__init__()
        if damper < 0.0:
            raise ValueError("damper must be >= 0 (fraction of cap span)")
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        self.inner = inner
        self.name = f"safe-{inner.name}"
        self.damper = float(damper)
        self.slowdown = float(slowdown)
        self.damperexits = 0
        self.slowdownexits = 0
        self.clamps: Dict[str, int] = {}
        self._proxy: Optional[_GuardedManagerProxy] = None
        self._intents: Dict[Tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # Lifecycle: forward everything to the inner policy
    # ------------------------------------------------------------------
    def attach(self, manager) -> None:
        super().attach(manager)
        self._proxy = _GuardedManagerProxy(manager, self)
        self._intents.clear()
        self.inner.attach(self._proxy)

    def detach(self) -> None:
        self.inner.detach()
        self._proxy = None
        super().detach()

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        self.inner.on_node_limit(limit_w)

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        self.inner.on_sample(timestamp, node_w, gpu_w)

    def on_job_state(self, state: str, payload: dict) -> None:
        self.inner.on_job_state(state, payload)

    def reset_job_state(self) -> None:
        self._intents.clear()
        reset = getattr(self.inner, "reset_job_state", None)
        if reset is not None:
            reset()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        # ``_intents`` is the damper's last-actuation memory: dropping
        # it would make the restored wrapper treat its first post-restore
        # write as unprecedented (no damper suppression), and restoring
        # the exit counters keeps describe()/regression accounting from
        # double-counting across the restore boundary.
        return {
            "damperexits": self.damperexits,
            "slowdownexits": self.slowdownexits,
            "clamps": dict(self.clamps),
            "intents": {
                f"{domain}:{index}": watts
                for (domain, index), watts in self._intents.items()
            },
            "inner": self.inner.snapshot(),
        }

    def restore(self, state) -> None:
        self.damperexits = int(state.get("damperexits", 0))
        self.slowdownexits = int(state.get("slowdownexits", 0))
        self.clamps = {
            str(k): int(v) for k, v in (state.get("clamps") or {}).items()
        }
        self._intents.clear()
        for key, watts in (state.get("intents") or {}).items():
            domain, _, index = str(key).partition(":")
            self._intents[(domain, int(index))] = float(watts)
        self.inner.restore(state.get("inner") or {})

    # ------------------------------------------------------------------
    # Guarded write path
    # ------------------------------------------------------------------
    def _guarded_write(self, domain: str, index: int, watts: float) -> None:
        m = self.manager
        assert m is not None
        lo, hi = m.cap_range(domain)
        n = m.device_count(domain)
        limit = m.node_limit_w
        ceiling = floor = None
        if limit is not None:
            floor = max(lo, m.derive_share(domain, limit) / self.slowdown)
            if n > 0:
                ceiling = max(lo, (float(limit) - m.other_power_w(domain)) / n)
        decision = guard_cap(
            watts,
            last_w=self._intents.get((domain, index)),
            lo_w=lo,
            hi_w=hi,
            ceiling_w=ceiling,
            floor_w=floor,
            damper_w=self.damper * (hi - lo),
        )
        tel = m.broker.telemetry
        if decision.cap_w is None:
            self.damperexits += 1
            tel.metrics.counter(
                "policy_damper_exits_total",
                help="cap writes skipped by the safety wrapper's damper",
            ).inc()
            return
        for bound in decision.clamps:
            self.clamps[bound] = self.clamps.get(bound, 0) + 1
            tel.metrics.counter(
                "policy_guard_clamps_total", labels={"bound": bound},
                help="cap writes clamped by the safety wrapper, by bound",
            ).inc()
            if bound == "slowdown":
                self.slowdownexits += 1
                tel.metrics.counter(
                    "policy_slowdown_exits_total",
                    help="cap writes raised to the slowdown floor",
                ).inc()
        self._intents[(domain, index)] = decision.cap_w
        m.set_cap(domain, index, decision.cap_w)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "policy": self.name,
            "damper": self.damper,
            "slowdown": self.slowdown,
            "damperexits": self.damperexits,
            "slowdownexits": self.slowdownexits,
            "clamps": dict(self.clamps),
            "inner": self.inner.describe(),
        }
