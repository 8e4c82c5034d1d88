"""The center-level (site) power manager.

The paper's hierarchy — cluster manager → job manager → node manager —
is explicitly recursive, and this module adds the next tier up: one
**site manager** owning a site-wide power budget, federating several
independent :class:`~repro.cluster.PowerManagedCluster` instances
(possibly on different platforms/backends) that all run in one shared
simulation engine.

:class:`FederatedSite` is the only site engine. Sharing one engine is
what lets the site read every member's live demand, react to a
whole-cluster outage inside the event that caused it, publish the
``federation_*`` metrics on the one telemetry hub, and snapshot the
whole site for crash recovery (:mod:`repro.lifecycle.snapshot`).

Budget flow mirrors the cluster manager one level down:

* every **rebalance epoch** the site reads each live cluster's demand
  (active nodes × node peak — exactly the numerator of the paper's
  ``P_n = P_G/(N_k + N_i)``) and divides the site budget across
  clusters with :func:`~repro.federation.rebalance.split_site_budget`,
  respecting per-cluster min floors and max ceilings. Under-consuming
  clusters carry less weight, so their headroom flows to busy ones.
* the assigned cluster budget is installed by retuning that cluster's
  own manager (``config.global_cap_w`` + recompute) — the cluster tier
  then enforces it through the existing job → node → device chain,
  unchanged.
* **whole-cluster outages** ride the existing ``broker.down``/``up``
  event path: the site subscribes on each cluster's rank-0 broker, and
  when every crashable rank of a cluster is down it declares the
  cluster dead and reclaims its entire share in one recompute (the
  same one-recompute contract the cluster manager gives a single dead
  node). Recovery restores the cluster to the next split.

Everything is deterministic: per-cluster seeds derive from the site
seed via :meth:`~repro.simkernel.rng.RandomStreams.fork`, rebalance
epochs are ordinary simulator events, and the shared telemetry hub
gains ``federation_*`` metrics (see docs/observability.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster import PowerManagedCluster
from repro.faults import FaultPlan
from repro.flux.jobspec import JobRecord, Jobspec
from repro.flux.message import Message
from repro.lifecycle.machine import AVAILABLE, DEGRADED, LifecycleRegistry
from repro.manager.cluster_manager import ManagerConfig
from repro.federation.rebalance import (
    cluster_demand_w,
    site_allocation_total_w,
    split_site_budget,
    validate_floors,
)
from repro.simkernel import RandomStreams, Simulator
from repro.simkernel.canonical import canonical_digest
from repro.telemetry import telemetry_of

#: Simulated seconds of site-manager work charged per live cluster per
#: rebalance (the split is a handful of FLOPs plus one RPC-free config
#: install; far below the cluster tier's own recompute cost).
FEDERATION_REBALANCE_COST_PER_CLUSTER_S = 2e-6


@dataclass(frozen=True)
class ClusterSpec:
    """One federated cluster's deployment configuration.

    ``min_share_w`` is the floor the site may never allocate below
    while the cluster is live; ``max_share_w`` (None = unbounded) caps
    its share. ``static_node_cap_w``/``policy`` are handed to the
    cluster's own :class:`~repro.manager.cluster_manager.ManagerConfig`
    untouched.
    """

    name: str
    platform: str = "lassen"
    n_nodes: int = 8
    fanout: int = 2
    monitor_strategy: str = "fanout"
    policy: str = "proportional"
    static_node_cap_w: Optional[float] = None
    node_peak_w: float = 3050.0
    min_share_w: float = 0.0
    max_share_w: Optional[float] = None


@dataclass(frozen=True)
class SiteConfig:
    """Site deployment: the budget, the epoch, and the member clusters."""

    site_budget_w: float
    clusters: Tuple[ClusterSpec, ...]
    rebalance_epoch_s: float = 10.0

    def validate(self) -> None:
        if not self.clusters:
            raise ValueError("a site needs at least one cluster")
        names = [spec.name for spec in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {sorted(names)}")
        if self.rebalance_epoch_s <= 0:
            raise ValueError("rebalance_epoch_s must be > 0")
        for spec in self.clusters:
            if spec.n_nodes < 1:
                raise ValueError(f"cluster {spec.name!r} needs >= 1 node")
        self.validate_budget(self.site_budget_w)

    def validate_budget(self, site_budget_w: float) -> None:
        """Raise ValueError unless ``site_budget_w`` is a finite budget
        every cluster floor fits under."""
        validate_floors(
            site_budget_w,
            {s.name: s.min_share_w for s in self.clusters},
            {s.name: s.max_share_w for s in self.clusters},
        )


class FederatedSite:
    """N power-managed clusters under one site budget, one engine.

    Parameters
    ----------
    config:
        The :class:`SiteConfig` (validated here).
    seed:
        Site root seed; each cluster gets an independent substream-
        derived seed, so adding a cluster never perturbs its siblings.
    fault_plans:
        Optional cluster-name → :class:`~repro.faults.FaultPlan` map —
        cluster-scoped fault campaigns, injected by each cluster's own
        injector exactly as on a standalone cluster.

    All clusters share one engine, ``self.sim``, and hence one
    telemetry hub.
    """

    def __init__(
        self,
        config: SiteConfig,
        seed: int = 0,
        fault_plans: Optional[Mapping[str, FaultPlan]] = None,
    ) -> None:
        config.validate()
        fault_plans = dict(fault_plans or {})
        unknown = set(fault_plans) - {s.name for s in config.clusters}
        if unknown:
            raise ValueError(f"fault plans for unknown clusters: {sorted(unknown)}")
        self.config = config
        self.seed = int(seed)
        self.site_budget_w = float(config.site_budget_w)
        self.sim = Simulator()
        self.telemetry = telemetry_of(self.sim)

        streams = RandomStreams(seed=self.seed)
        self.specs: Dict[str, ClusterSpec] = {s.name: s for s in config.clusters}
        self.clusters: Dict[str, PowerManagedCluster] = {}
        #: Ranks each cluster's broker.down events report as dead —
        #: maintained purely from the event stream (the same path the
        #: cluster manager reacts on), never by peeking injector state.
        self._event_down_ranks: Dict[str, Set[int]] = {}
        for spec in config.clusters:
            cluster_seed = streams.fork(f"federation/{spec.name}").seed
            self.clusters[spec.name] = PowerManagedCluster(
                platform=spec.platform,
                n_nodes=spec.n_nodes,
                seed=cluster_seed,
                fanout=spec.fanout,
                manager_config=ManagerConfig(
                    global_cap_w=None,  # installed by the first rebalance
                    policy=spec.policy,
                    static_node_cap_w=spec.static_node_cap_w,
                    node_peak_w=spec.node_peak_w,
                ),
                monitor_strategy=spec.monitor_strategy,
                fault_plan=fault_plans.get(spec.name),
                sim=self.sim,
                hostname_prefix=spec.name,
            )
            self._event_down_ranks[spec.name] = set()
            self._watch_cluster(spec.name)

        #: Cluster-grain lifecycle, mirroring the node-grain registry
        #: inside each cluster manager (enroll → available here; a
        #: whole-cluster outage degrades, recovery restores). The one
        #: liveness record: a cluster is down iff it is ``degraded``.
        self.lifecycle = LifecycleRegistry(
            sorted(self.clusters), "cluster", self.telemetry
        )
        for name in self.lifecycle.entities():
            self.lifecycle.ensure(name, AVAILABLE, reason="enroll", t=self.sim.now)

        #: name → last share installed by a rebalance (0.0 while down).
        self.assigned_shares: Dict[str, float] = {}
        #: What the last split must sum to (budget, or the binding
        #: ceilings total) — the site_budget invariant's exactness ref.
        self.expected_total_w: float = 0.0
        self.last_rebalance_t: float = 0.0
        #: (t, reason, {name: share}, live-names) — the Fig-5-style
        #: site timeline every experiment/invariant reads.
        self.budget_log: List[Tuple[float, str, Dict[str, float], Tuple[str, ...]]] = []
        self._expected_jobs: Dict[str, int] = {n: 0 for n in self.clusters}

        self._rebalance("initial")
        self._epoch_event = self.sim.schedule_periodic(
            config.rebalance_epoch_s,
            self._rebalance,
            "epoch",
            start_delay=config.rebalance_epoch_s,
        )

    # ------------------------------------------------------------------
    # Outage tracking (broker.down / broker.up event path)
    # ------------------------------------------------------------------
    def _watch_cluster(self, name: str) -> None:
        broker0 = self.clusters[name].instance.brokers[0]

        def _on_broker_event(msg: Message, _name: str = name) -> None:
            if msg.topic == "broker.down":
                self._event_down_ranks[_name].add(int(msg.payload["rank"]))
            elif msg.topic == "broker.up":
                self._event_down_ranks[_name].discard(int(msg.payload["rank"]))
            else:
                return
            self._update_liveness(_name)

        broker0.subscribe("broker.", _on_broker_event)

    def _update_liveness(self, name: str) -> None:
        n = self.specs[name].n_nodes
        # Rank 0 hosts the root services and cannot crash, so "every
        # crashable rank down" is total management-plane loss.
        down = n >= 2 and len(self._event_down_ranks[name]) >= n - 1
        if down == self.cluster_is_down(name):
            return
        tel = self.telemetry
        kind = "outage" if down else "recovery"
        self.lifecycle.transition(
            name, DEGRADED if down else AVAILABLE, reason=kind, t=self.sim.now
        )
        tel.metrics.counter(
            f"federation_cluster_{'outages' if down else 'recoveries'}_total",
            labels={"cluster": name},
            help=f"whole-cluster {kind} transitions seen by the site manager",
        ).inc()
        tel.tracer.instant(
            f"federation.cluster_{kind}", "federation", cluster=name,
        )
        # Reclaim (or restore) the cluster's share in one recompute.
        self._rebalance(kind)

    def cluster_is_down(self, name: str) -> bool:
        return self.lifecycle.state_of(name) == DEGRADED

    @property
    def down_clusters(self) -> List[str]:
        return self.lifecycle.in_state(DEGRADED)

    @property
    def live_clusters(self) -> List[str]:
        return [n for n in self.lifecycle.entities() if not self.cluster_is_down(n)]

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def cluster_demand(self, name: str) -> float:
        """Live demand (W) of one cluster: active nodes × node peak."""
        cluster = self.clusters[name]
        manager = cluster.manager
        active = (
            manager.cluster.job_level.active_node_count()
            if manager is not None
            else 0
        )
        return cluster_demand_w(active, self.specs[name].node_peak_w)

    def _install_cluster_budget(self, name: str, share_w: float) -> None:
        manager = self.clusters[name].manager
        if manager is None:  # pragma: no cover - specs always load one
            return
        root = manager.cluster
        root.config = replace(root.config, global_cap_w=share_w)
        root._recompute()

    def _rebalance(self, reason: str = "epoch") -> None:
        live = self.live_clusters
        demands = {n: self.cluster_demand(n) for n in live}
        floors = {n: self.specs[n].min_share_w for n in live}
        ceilings = {n: self.specs[n].max_share_w for n in live}
        shares = split_site_budget(self.site_budget_w, demands, floors, ceilings)
        self.assigned_shares = {n: 0.0 for n in sorted(self.clusters)}
        for name in live:
            self.assigned_shares[name] = shares[name]
            self._install_cluster_budget(name, shares[name])
        for name in sorted(self.clusters):
            if self.cluster_is_down(name):
                # A dead cluster spends nothing; zeroing its installed
                # budget keeps any stale bookkeeping harmless.
                self._install_cluster_budget(name, 0.0)
        self.expected_total_w = site_allocation_total_w(
            self.site_budget_w, demands, ceilings
        )
        self.last_rebalance_t = self.sim.now
        self.budget_log.append(
            (self.sim.now, reason, dict(self.assigned_shares), tuple(live))
        )

        tel = self.telemetry
        tel.metrics.counter(
            "federation_rebalances_total",
            labels={"reason": reason},
            help="site-level budget rebalances, by trigger",
        ).inc()
        tel.metrics.gauge(
            "federation_site_budget_w",
            help="current site-wide power budget",
        ).set(self.site_budget_w)
        tel.metrics.gauge(
            "federation_live_clusters",
            help="clusters currently counted live by the site manager",
        ).set(len(live))
        for name in sorted(self.clusters):
            tel.metrics.gauge(
                "federation_cluster_budget_w",
                labels={"cluster": name},
                help="budget currently assigned to each cluster (0 while down)",
            ).set(self.assigned_shares[name])
            tel.metrics.gauge(
                "federation_cluster_demand_w",
                labels={"cluster": name},
                help="live demand (active nodes x node peak) per cluster",
            ).set(demands.get(name, 0.0))
        tel.tracer.instant(
            "federation.rebalance", "federation", reason=reason,
            live=len(live), total_w=sum(shares.values()),
        )
        tel.accountant.charge(
            "federation",
            FEDERATION_REBALANCE_COST_PER_CLUSTER_S * max(1, len(live)),
        )

    # ------------------------------------------------------------------
    # Site budget retuning
    # ------------------------------------------------------------------
    def retune_site_budget(self, new_budget_w: float) -> None:
        """Change the site budget and re-split immediately."""
        self.config.validate_budget(new_budget_w)
        self.site_budget_w = float(new_budget_w)
        self.telemetry.metrics.counter(
            "federation_site_retunes_total",
            help="site-wide budget retunes applied",
        ).inc()
        self._rebalance("retune")

    def schedule_retune(self, when: float, new_budget_w: float) -> None:
        """Retune at simulated time ``when``; the budget is validated
        now, so a bad value fails here rather than mid-run."""
        self.config.validate_budget(new_budget_w)
        self.sim.schedule_at(when, self.retune_site_budget, new_budget_w)

    # ------------------------------------------------------------------
    # Jobs / running
    # ------------------------------------------------------------------
    def cluster(self, name: str) -> PowerManagedCluster:
        return self.clusters[name]

    def submit(self, name: str, spec: Jobspec) -> JobRecord:
        self._expected_jobs[name] += 1
        return self.clusters[name].submit(spec)

    def submit_at(self, name: str, spec: Jobspec, when: float) -> None:
        self._expected_jobs[name] += 1
        self.clusters[name].submit_at(spec, when)

    def all_complete(self) -> bool:
        """Every job submitted *through the site* reached a terminal state.

        Deferred :meth:`submit_at` arrivals count as incomplete until
        they materialise, so running to completion at t=0 with future
        arrivals pending doesn't return early.
        """
        for name, cluster in self.clusters.items():
            jm = cluster.instance.jobmanager
            if len(jm.jobs) < self._expected_jobs[name]:
                return False
            if not jm.all_complete():
                return False
        return True

    def run_for(self, duration_s: float) -> float:
        return self.sim.run(until=self.sim.now + duration_s)

    def run_until_complete(
        self, timeout_s: float = 1e7, max_events: int = 100_000_000
    ) -> float:
        """Run until every job on every cluster reaches a terminal state."""
        deadline = self.sim.now + timeout_s
        count = 0
        while not self.all_complete():
            if not self.sim.step():
                raise RuntimeError("event heap drained with jobs still active")
            count += 1
            if count > max_events:
                raise RuntimeError("run_until_complete exceeded max_events")
            if self.sim.now > deadline:
                raise RuntimeError(
                    f"jobs still active at t={self.sim.now:.0f}s (timeout)"
                )
        return self.sim.now

    def site_digest(self) -> str:
        """Canonical digest of this run's externally visible outcome.

        Covers the end time, the rebalance timeline and, per cluster,
        a SHA-256 of its finished-job metrics plus its fault log. The
        per-cluster hashes keep their historical ``"shards"`` key, so
        pinned digests keep their bytes.
        """
        clusters: Dict[str, str] = {}
        for name, cluster in self.clusters.items():
            jobs = {
                str(jobid): {
                    "runtime_s": m.runtime_s,
                    "avg_node_power_w": m.avg_node_power_w,
                    "avg_node_energy_kj": m.avg_node_energy_kj,
                }
                for jobid, m in sorted(cluster.all_metrics().items())
            }
            clusters[name] = canonical_digest({
                "jobs": jobs,
                "faults": [list(entry) for entry in cluster.faults.injected],
            })
        return canonical_digest({
            "t_end": self.sim.now,
            "rebalances": [
                {"t": t, "reason": reason, "shares": dict(shares),
                 "live": list(live)}
                for t, reason, shares, live in self.budget_log
            ],
            "shards": clusters,
        })

    # ------------------------------------------------------------------
    # Crash recovery (see repro.lifecycle.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-able site bookkeeping (this tier only).

        Member clusters snapshot themselves through
        :func:`repro.lifecycle.snapshot.snapshot_site`, which nests
        their artifacts next to this dict. ``event_down_ranks`` and
        ``lifecycle`` (the liveness record) must ride along: a restore
        that loses them mid-flap re-counts the next ``broker.up``
        against an empty dead set, so the cluster is never declared
        recovered and the next ``split_site_budget`` runs without it. ``expected_jobs`` keeps
        :meth:`all_complete` from returning early after a restore with
        deferred arrivals still pending.
        """
        return {
            "site_budget_w": self.site_budget_w,
            "assigned_shares": dict(self.assigned_shares),
            "expected_total_w": self.expected_total_w,
            "last_rebalance_t": self.last_rebalance_t,
            "budget_log": [
                [t, reason, dict(shares), list(live)]
                for t, reason, shares, live in self.budget_log
            ],
            "expected_jobs": dict(self._expected_jobs),
            "event_down_ranks": {
                name: sorted(ranks)
                for name, ranks in self._event_down_ranks.items()
            },
            "lifecycle": self.lifecycle.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate from :meth:`snapshot_state`; ``{}`` wipes to fresh.

        Silent: no rebalance is triggered — the nested cluster restores
        carry the installed ``global_cap_w`` budgets, and the periodic
        epoch event (untouched by a restore) picks the schedule back up.
        """
        budget = state.get("site_budget_w")
        if budget is not None:
            self.site_budget_w = float(budget)
        self.assigned_shares = {
            str(n): float(w)
            for n, w in (state.get("assigned_shares") or {}).items()
        }
        self.expected_total_w = float(state.get("expected_total_w", 0.0))
        self.last_rebalance_t = float(state.get("last_rebalance_t", 0.0))
        self.budget_log = [
            (
                float(t),
                str(reason),
                {str(n): float(w) for n, w in shares.items()},
                tuple(live),
            )
            for t, reason, shares, live in state.get("budget_log") or []
        ]
        self._expected_jobs = {n: 0 for n in self.clusters}
        for name, count in (state.get("expected_jobs") or {}).items():
            self._expected_jobs[str(name)] = int(count)
        self._event_down_ranks = {n: set() for n in self.clusters}
        for name, ranks in (state.get("event_down_ranks") or {}).items():
            self._event_down_ranks[str(name)] = {int(r) for r in ranks}
        self.lifecycle.restore(state.get("lifecycle"))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "site_budget_w": self.site_budget_w,
            "rebalance_epoch_s": self.config.rebalance_epoch_s,
            "clusters": {
                name: {
                    "platform": self.specs[name].platform,
                    "n_nodes": self.specs[name].n_nodes,
                    "assigned_w": self.assigned_shares.get(name, 0.0),
                    "demand_w": self.cluster_demand(name),
                    "down": self.cluster_is_down(name),
                }
                for name in sorted(self.clusters)
            },
        }
