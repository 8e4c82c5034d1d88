#!/usr/bin/env python3
"""Writing a custom power policy (user-level customisation).

The paper's framework lets each user pick or write the power policy for
their own Flux instance. This example implements a simple *history-
based* policy — cap each GPU slightly above its recent peak draw,
reclaiming headroom that the workload never uses — deploys it behind
the NRM-style ``PolicySafetyWrapper`` (the recommended way to ship any
dynamic controller; see docs/policies.md), and compares it with
proportional sharing on a mixed workload.

Run: ``python examples/custom_policy.py``
"""

from collections import deque
from typing import Optional

from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.manager.policies import PolicySafetyWrapper
from repro.manager.policies.base import PowerPolicy


class HistoryHeadroomPolicy(PowerPolicy):
    """Cap each GPU at (recent peak + margin), within the node share.

    A deliberately simple dynamic policy: it watches the last N power
    samples per GPU and sets the cap a fixed margin above the observed
    peak — cheap insurance against demand spikes, while not leaving the
    full share allocated to GPUs that never use it.
    """

    name = "history-headroom"

    def __init__(self, window: int = 15, margin_w: float = 20.0) -> None:
        super().__init__()
        self.window = window
        self.margin_w = margin_w
        self._history = []

    def attach(self, manager) -> None:
        super().attach(manager)
        n_gpus = manager.device_count("gpu")
        self._history = [deque(maxlen=self.window) for _ in range(n_gpus)]

    def on_node_limit(self, limit_w: Optional[float]) -> None:
        if limit_w is None:
            self.manager.clear_caps("gpu")
            return
        self.manager.enforce_limit_via_gpus(limit_w)  # share is the ceiling

    def on_sample(self, timestamp: float, node_w: float, gpu_w: list) -> None:
        share_cap = (
            self.manager.derive_share("gpu", self.manager.node_limit_w)
            if self.manager.node_limit_w is not None
            else self.manager.cap_range("gpu")[1]
        )
        lo, hi = self.manager.cap_range("gpu")
        for i, w in enumerate(gpu_w):
            self._history[i].append(w)
            if len(self._history[i]) >= self.window:
                cap = min(max(max(self._history[i]) + self.margin_w, lo), share_cap, hi)
                self.manager.set_cap("gpu", i, cap)


def guarded_history_headroom() -> PolicySafetyWrapper:
    """Factory: the custom policy behind the NRM-style guardrails.

    The wrapper attaches the inner policy to a guarded proxy of the node
    manager, so even a buggy cap computation cannot leave the device box
    or starve a GPU more than ``slowdown``× below its fair share. A
    generous ``slowdown`` suits this policy — squeezing idle GPUs is its
    whole point.
    """
    return PolicySafetyWrapper(HistoryHeadroomPolicy(), damper=0.05, slowdown=3.0)


def run(policy_name: str, policy_factory=None):
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=8,
        seed=3,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=9600.0,
            policy="proportional" if policy_factory is None else "static",
            static_node_cap_w=1950.0,
        ),
    )
    if policy_factory is not None:
        # Replace the node policy everywhere (user-level customisation).
        cluster.manager.detach()
        from repro.manager.module import attach_manager

        cluster.manager = attach_manager(
            cluster.instance,
            ManagerConfig(
                global_cap_w=9600.0, policy="proportional", static_node_cap_w=1950.0
            ),
            policy_factory=policy_factory,
        )
    jobs = [
        cluster.submit(Jobspec(app="gemm", nnodes=4, params={"work_scale": 1.5})),
        cluster.submit(
            Jobspec(app="quicksilver", nnodes=4, params={"work_scale": 20.0})
        ),
    ]
    cluster.run_until_complete(timeout_s=200_000)
    total_e = sum(
        cluster.metrics(j.jobid).avg_node_energy_kj * j.spec.nnodes for j in jobs
    )
    spans = [cluster.metrics(j.jobid).runtime_s for j in jobs]
    return total_e, spans


def main() -> None:
    base_e, base_t = run("proportional")
    custom_e, custom_t = run("safe-history-headroom", guarded_history_headroom)
    print(f"{'policy':<22} {'total energy kJ':>16} {'runtimes s':>20}")
    print(f"{'proportional':<22} {base_e:>16.0f} {str([round(t) for t in base_t]):>20}")
    print(
        f"{'safe-history-headroom':<22} {custom_e:>16.0f} "
        f"{str([round(t) for t in custom_t]):>20}"
    )
    print(f"\nenergy delta: {(custom_e - base_e) / base_e * 100:+.2f}%")


if __name__ == "__main__":
    main()
