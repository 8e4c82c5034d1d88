"""Convenience wiring for the power manager.

``attach_manager(instance, config)`` loads node managers on every
broker and the cluster-level manager on rank 0 — the analogue of
``flux module load flux-power-manager`` with a site policy config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.flux.instance import FluxInstance
from repro.manager.cluster_manager import ClusterLevelManager, ManagerConfig
from repro.manager.node_manager import NodeManagerModule
from repro.manager.policies import POLICY_FACTORIES, FPPParams, FPPPolicy, PowerPolicy


@dataclass
class PowerManager:
    """Handle over a loaded manager deployment."""

    instance: FluxInstance
    config: ManagerConfig
    cluster: ClusterLevelManager
    node_managers: List[NodeManagerModule]
    #: Kept so a broker restart can reload an identical node manager.
    policy_factory: Optional[Callable[[], PowerPolicy]] = None

    def reload_node_manager(self, rank: int) -> NodeManagerModule:
        """Load a fresh node manager on ``rank`` (post-restart recovery).

        The new manager re-installs the configured static node cap but
        knows nothing of pre-crash job limits — those return with the
        cluster manager's next recompute, as on a real node reboot.
        """
        broker = self.instance.brokers[rank]
        if NodeManagerModule.name in broker.modules:
            broker.unload_module(NodeManagerModule.name)
        manager = NodeManagerModule(
            broker,
            policy_factory=self.policy_factory,
            sample_interval_s=self.config.sample_interval_s,
            static_node_cap_w=self.config.static_node_cap_w,
        )
        broker.load_module(manager)
        self.node_managers[rank] = manager
        return manager

    @property
    def share_log(self):
        return self.cluster.share_log

    def detach(self) -> None:
        self.instance.unload_module_everywhere(NodeManagerModule.name)
        self.instance.unload_module_everywhere(ClusterLevelManager.name)


def attach_manager(
    instance: FluxInstance,
    config: ManagerConfig,
    policy_factory: Optional[Callable[[], PowerPolicy]] = None,
    fpp_params: Optional[FPPParams] = None,
) -> PowerManager:
    """Load flux-power-manager across an instance.

    ``policy_factory`` overrides the policy named in the config (used
    for custom user policies — the user-level customisation story);
    ``fpp_params`` customises FPP when that policy is selected.
    """
    if policy_factory is None:
        if config.policy not in POLICY_FACTORIES:
            raise ValueError(
                f"unknown policy {config.policy!r}; "
                f"choices: {sorted(POLICY_FACTORIES)} (or pass policy_factory)"
            )
        if config.policy == "fpp":
            params = fpp_params or FPPParams()
            policy_factory = lambda: FPPPolicy(params)  # noqa: E731
        else:
            policy_factory = POLICY_FACTORIES[config.policy]

    node_managers = instance.load_module_on_all(
        lambda broker: NodeManagerModule(
            broker,
            policy_factory=policy_factory,
            sample_interval_s=config.sample_interval_s,
            static_node_cap_w=config.static_node_cap_w,
        )
    )
    cluster = instance.load_module_on_root(
        lambda broker: ClusterLevelManager(broker, config)
    )
    return PowerManager(
        instance=instance,
        config=config,
        cluster=cluster,  # type: ignore[arg-type]
        node_managers=node_managers,  # type: ignore[arg-type]
        policy_factory=policy_factory,
    )
