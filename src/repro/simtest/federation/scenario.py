"""Seeded federated (multi-cluster) scenario model and generator.

A :class:`FederatedScenario` is the site-tier analogue of
:class:`~repro.simtest.scenario.Scenario`: pure, JSON-round-trippable
data describing a whole :class:`~repro.federation.FederatedSite` run —
2–4 clusters of mixed platforms, per-cluster job mixes and fault
campaigns, per-cluster share floors/ceilings, a site budget schedule,
and optional whole-cluster outage windows.

All randomness pulls from ``simtest/federation/*`` substreams rooted at
one integer seed, so federated seeds are stable against changes to the
single-cluster generator (and vice versa). The per-cluster job mix and
rank-fault campaign use the single-cluster draws
(:func:`~repro.simtest.scenario.draw_jobs`,
:func:`~repro.simtest.scenario.draw_fault_events`) on those substreams.

Outages are stored as ``(t, duration_s)`` windows per cluster and
materialised by :meth:`ClusterScenario.fault_plan` into simultaneous
crash events for every crashable rank (1..n-1) — rank 0 hosts the root
services and cannot crash, so "all crashable ranks down" is exactly the
whole-cluster-outage condition the site manager detects. A cluster
draws either outages or rank-level faults, never both, so restart
storms cannot double-crash a rank.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan
from repro.simkernel.rng import RandomStreams
from repro.simtest.scenario import (
    BUDGET_PER_NODE_RANGE_W,
    JobEntry,
    draw_fault_events,
    draw_jobs,
)

#: Fraction of the equal per-cluster budget slice a generated floor may
#: claim — keeps Σ floors well under the site budget by construction.
MAX_FLOOR_FRACTION = 0.5


@dataclass(frozen=True)
class ClusterScenario:
    """One member cluster of a federated scenario."""

    name: str
    platform: str = "lassen"
    n_nodes: int = 4
    fanout: int = 2
    monitor_strategy: str = "fanout"
    policy: str = "proportional"
    static_node_cap_w: Optional[float] = 1950.0
    node_peak_w: float = 3050.0
    min_share_w: float = 0.0
    max_share_w: Optional[float] = None
    jobs: Tuple[JobEntry, ...] = ()
    fault_events: Tuple[FaultEvent, ...] = ()
    #: Whole-cluster outage windows: ``(t, duration_s)``; every
    #: crashable rank crashes at ``t`` and restarts after ``duration_s``.
    outages: Tuple[Tuple[float, float], ...] = ()

    def fault_plan(self) -> Optional[FaultPlan]:
        """Rank faults plus materialised outage windows, or None."""
        events: List[FaultEvent] = list(self.fault_events)
        for t, duration_s in self.outages:
            for rank in range(1, self.n_nodes):
                events.append(
                    FaultEvent(
                        t=float(t), kind="crash", rank=rank,
                        duration_s=float(duration_s),
                    )
                )
        if not events:
            return None
        events.sort(key=lambda ev: (ev.t, ev.rank, ev.kind))
        return FaultPlan(events=events)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "platform": self.platform,
            "n_nodes": self.n_nodes,
            "fanout": self.fanout,
            "monitor_strategy": self.monitor_strategy,
            "policy": self.policy,
            "static_node_cap_w": self.static_node_cap_w,
            "node_peak_w": self.node_peak_w,
            "min_share_w": self.min_share_w,
            "max_share_w": self.max_share_w,
            "jobs": [j.to_dict() for j in self.jobs],
            "fault_events": [asdict(ev) for ev in self.fault_events],
            "outages": [[t, d] for t, d in self.outages],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ClusterScenario":
        return cls(
            name=str(d["name"]),
            platform=str(d["platform"]),
            n_nodes=int(d["n_nodes"]),
            fanout=int(d.get("fanout", 2)),
            monitor_strategy=str(d.get("monitor_strategy", "fanout")),
            policy=str(d.get("policy", "proportional")),
            static_node_cap_w=(
                None
                if d.get("static_node_cap_w") is None
                else float(d["static_node_cap_w"])
            ),
            node_peak_w=float(d.get("node_peak_w", 3050.0)),
            min_share_w=float(d.get("min_share_w", 0.0)),
            max_share_w=(
                None if d.get("max_share_w") is None else float(d["max_share_w"])
            ),
            jobs=tuple(JobEntry.from_dict(j) for j in d.get("jobs", [])),
            fault_events=tuple(
                FaultEvent(
                    t=float(ev["t"]),
                    kind=str(ev["kind"]),
                    rank=int(ev["rank"]),
                    duration_s=float(ev.get("duration_s", 0.0)),
                )
                for ev in d.get("fault_events", [])
            ),
            outages=tuple(
                (float(t), float(dur)) for t, dur in d.get("outages", [])
            ),
        )


@dataclass(frozen=True)
class FederatedScenario:
    """A complete, replayable site-tier simulation-test scenario."""

    seed: int
    site_budget_w: float
    rebalance_epoch_s: float = 10.0
    clusters: Tuple[ClusterScenario, ...] = ()
    #: (t, new_site_budget_w) retuning steps, sorted by t.
    site_budget_schedule: Tuple[Tuple[float, float], ...] = ()
    drain_s: float = 4.0

    def describe(self) -> str:
        parts = ", ".join(
            f"{c.name}={c.platform}x{c.n_nodes}"
            f"{'/out' if c.outages else ''}{'/flt' if c.fault_events else ''}"
            for c in self.clusters
        )
        return (
            f"seed={self.seed} site={self.site_budget_w:.0f}W "
            f"epoch={self.rebalance_epoch_s:g}s [{parts}] "
            f"retunes={len(self.site_budget_schedule)}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "site_budget_w": self.site_budget_w,
            "rebalance_epoch_s": self.rebalance_epoch_s,
            "clusters": [c.to_dict() for c in self.clusters],
            "site_budget_schedule": [[t, w] for t, w in self.site_budget_schedule],
            "drain_s": self.drain_s,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FederatedScenario":
        """Inverse of :meth:`to_dict`. Unknown keys are ignored, so
        reproducers written by older versions (e.g. with the retired
        ``sharded`` flag) still replay."""
        return cls(
            seed=int(d["seed"]),
            site_budget_w=float(d["site_budget_w"]),
            rebalance_epoch_s=float(d.get("rebalance_epoch_s", 10.0)),
            clusters=tuple(
                ClusterScenario.from_dict(c) for c in d.get("clusters", [])
            ),
            site_budget_schedule=tuple(
                (float(t), float(w)) for t, w in d.get("site_budget_schedule", [])
            ),
            drain_s=float(d.get("drain_s", 4.0)),
        )


@dataclass(frozen=True)
class FederatedGeneratorConfig:
    """Bounds for :func:`generate_federated_scenario`.

    Defaults keep a federated run a few times the cost of a
    single-cluster one, so ``repro federate --seeds 100`` stays an
    interactive command.
    """

    min_clusters: int = 2
    max_clusters: int = 4
    min_nodes: int = 3
    max_nodes: int = 8
    min_jobs: int = 1
    max_jobs: int = 3
    max_work_scale: float = 1.5
    max_submit_spread_s: float = 30.0
    platforms: Tuple[str, ...] = ("lassen", "tioga")
    policies: Tuple[str, ...] = ("proportional", "fpp")
    strategies: Tuple[str, ...] = ("fanout", "tree")
    fanouts: Tuple[int, ...] = (2, 3)
    epochs_s: Tuple[float, ...] = (5.0, 10.0, 20.0)
    #: Probability a cluster gets a non-zero share floor / a ceiling.
    p_floor: float = 0.3
    p_ceiling: float = 0.3
    #: Probability a cluster suffers a whole-cluster outage window.
    p_outage: float = 0.35
    #: Probability a cluster (without an outage) gets rank-level faults.
    p_faults: float = 0.4
    max_crashes: int = 2
    max_hangs: int = 1
    #: Probability of a mid-run site budget retune.
    p_site_retune: float = 0.4


def generate_federated_scenario(
    seed: int, cfg: Optional[FederatedGeneratorConfig] = None
) -> FederatedScenario:
    """Draw one federated scenario from ``seed`` (pure).

    Substreams: ``simtest/federation/topology`` (cluster count, shapes),
    ``simtest/federation/jobs``, ``simtest/federation/budget`` (site
    budget, floors, ceilings, retunes), ``simtest/federation/faults``
    and ``simtest/federation/outages`` — each dimension isolated so new
    knobs never perturb the others.
    """
    cfg = cfg or FederatedGeneratorConfig()
    streams = RandomStreams(seed=seed)
    topo = streams.get("simtest/federation/topology")
    jobs_rng = streams.get("simtest/federation/jobs")
    budget_rng = streams.get("simtest/federation/budget")
    faults_rng = streams.get("simtest/federation/faults")
    outages_rng = streams.get("simtest/federation/outages")

    # Topology -----------------------------------------------------------
    n_clusters = int(topo.integers(cfg.min_clusters, cfg.max_clusters + 1))
    shapes = []
    total_nodes = 0
    for i in range(n_clusters):
        n_nodes = int(topo.integers(cfg.min_nodes, cfg.max_nodes + 1))
        platform = cfg.platforms[int(topo.integers(len(cfg.platforms)))]
        fanout = int(cfg.fanouts[int(topo.integers(len(cfg.fanouts)))])
        strategy = cfg.strategies[int(topo.integers(len(cfg.strategies)))]
        policy = cfg.policies[int(topo.integers(len(cfg.policies)))]
        shapes.append((f"c{i}", platform, n_nodes, fanout, strategy, policy))
        total_nodes += n_nodes
    epoch_s = float(cfg.epochs_s[int(topo.integers(len(cfg.epochs_s)))])

    # Site budget + per-cluster floors/ceilings --------------------------
    lo, hi = BUDGET_PER_NODE_RANGE_W
    per_node = lo + float(budget_rng.random()) * (hi - lo)
    site_budget_w = round(per_node * total_nodes, 1)
    slice_w = site_budget_w / n_clusters
    bounds: List[Tuple[float, Optional[float]]] = []
    for _ in range(n_clusters):
        floor = 0.0
        if float(budget_rng.random()) < cfg.p_floor:
            floor = round(
                float(budget_rng.random()) * MAX_FLOOR_FRACTION * slice_w, 1
            )
        ceiling: Optional[float] = None
        if float(budget_rng.random()) < cfg.p_ceiling:
            # Always above the floor and roomy enough not to bind every
            # cluster at once (Σ ceilings can still bind — that's the
            # case site_allocation_total_w covers).
            ceiling = round(floor + slice_w * (0.8 + float(budget_rng.random())), 1)
        bounds.append((floor, ceiling))

    # Site budget schedule: retunes stay above Σ floors by construction.
    total_floor = sum(f for f, _ in bounds)
    site_budget_schedule: Tuple[Tuple[float, float], ...] = ()
    if float(budget_rng.random()) < cfg.p_site_retune:
        steps = []
        for _ in range(int(budget_rng.integers(1, 3))):
            t = round(10.0 + float(budget_rng.random()) * 80.0, 3)
            per_node = lo + float(budget_rng.random()) * (hi - lo)
            new_w = max(round(per_node * total_nodes, 1), round(total_floor + 1.0, 1))
            steps.append((t, new_w))
        site_budget_schedule = tuple(sorted(steps))

    # Per-cluster job mixes and fault campaigns --------------------------
    clusters: List[ClusterScenario] = []
    for i, (name, platform, n_nodes, fanout, strategy, policy) in enumerate(shapes):
        jobs = draw_jobs(jobs_rng, cfg, platform, n_nodes)

        outages: Tuple[Tuple[float, float], ...] = ()
        fault_events: Tuple[FaultEvent, ...] = ()
        if n_nodes >= 2 and float(outages_rng.random()) < cfg.p_outage:
            t = round(10.0 + float(outages_rng.random()) * 60.0, 3)
            duration_s = round(15.0 + float(outages_rng.random()) * 30.0, 3)
            outages = ((t, duration_s),)
        elif n_nodes >= 2 and float(faults_rng.random()) < cfg.p_faults:
            fault_events = draw_fault_events(faults_rng, cfg, n_nodes)

        floor, ceiling = bounds[i]
        clusters.append(
            ClusterScenario(
                name=name,
                platform=platform,
                n_nodes=n_nodes,
                fanout=fanout,
                monitor_strategy=strategy,
                policy=policy,
                static_node_cap_w=1950.0 if platform == "lassen" else None,
                min_share_w=floor,
                max_share_w=ceiling,
                jobs=tuple(jobs),
                fault_events=fault_events,
                outages=outages,
            )
        )

    return FederatedScenario(
        seed=seed,
        site_budget_w=site_budget_w,
        rebalance_epoch_s=epoch_s,
        clusters=tuple(clusters),
        site_budget_schedule=site_budget_schedule,
    )
