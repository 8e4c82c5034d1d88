"""Seeded scenario model and generator.

A :class:`Scenario` is pure, JSON-round-trippable data: everything the
harness needs to build a :class:`~repro.cluster.PowerManagedCluster`,
submit a job mix, walk a budget schedule and inject faults. Scenarios
come from two places:

* :func:`generate_scenario` draws one from ``simkernel.rng`` substreams
  (``simtest/topology``, ``simtest/jobs``, ``simtest/budget``,
  ``simtest/faults``, ``simtest/serving``, ``simtest/tenancy``) rooted
  at a single integer seed — the same seed always yields the same
  scenario, on any platform;
* :func:`Scenario.from_dict` reloads a shrunken reproducer artifact
  (see :mod:`repro.simtest.shrink`).

Generated scenarios deliberately stay inside the framework's supported
envelope (platforms with cappable GPUs, apps that run on the chosen
platform, rank-0 never crashed) — the fuzzer's job is to find bugs in
power management logic, not to rediscover documented input validation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan, LinkFaults
from repro.simkernel.rng import RandomStreams

#: Apps safe on every generated platform. ``sw4lite`` is CUDA-only (it
#: raises on Tioga by design — the paper's Section V porting story) so
#: it is only eligible on lassen.
PORTABLE_APPS: Tuple[str, ...] = (
    "gemm",
    "lammps",
    "laghos",
    "nqueens",
    "quicksilver",
    # Policy-zoo addition: the checkpointing proxy, so generated
    # scenarios exercise the checkpoint-aware policy's window logic.
    "hacc",
)
LASSEN_ONLY_APPS: Tuple[str, ...] = ("sw4lite",)

#: Per-node budget span (W) the generator draws the global cap from.
#: Wide enough to cover "uncapped in practice" down to "heavily
#: constrained" — Table III's static-cap sweep spans a similar range.
BUDGET_PER_NODE_RANGE_W = (900.0, 3200.0)


@dataclass(frozen=True)
class JobEntry:
    """One job of the scenario's arrival mix."""

    app: str
    nnodes: int
    work_scale: float = 1.0
    submit_t: float = 0.0
    #: Submitting user for tenancy scenarios; None — every scenario
    #: without a tenant mix — submits anonymously, exactly as before.
    user: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        # Only present when set: job dicts feed the run digest, so an
        # always-there key would shift every historical digest.
        if self.user is None:
            del d["user"]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobEntry":
        return cls(
            app=str(d["app"]),
            nnodes=int(d["nnodes"]),
            work_scale=float(d.get("work_scale", 1.0)),
            submit_t=float(d.get("submit_t", 0.0)),
            user=(None if d.get("user") is None else str(d["user"])),
        )


@dataclass(frozen=True)
class ServingMix:
    """A seeded client mix injected through the serving API each tick.

    The harness stands up a :class:`~repro.serving.service.PowerService`
    over the scenario's cluster and fires ``requests_per_tick``
    read-only requests from ``clients`` simulated clients at every
    invariant tick — the production query-storm shape riding on top of
    an arbitrary fuzzed scenario. Reads are pure by the serving tier's
    contract, so a scenario's digest must be identical with or without
    its mix (pinned by test).
    """

    clients: int = 8
    requests_per_tick: int = 4
    #: Page size the serving-view checker lists jobs with (small on
    #: purpose: pagination boundaries are where view bugs live).
    page_limit: int = 3

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ServingMix":
        return cls(
            clients=int(d.get("clients", 8)),
            requests_per_tick=int(d.get("requests_per_tick", 4)),
            page_limit=int(d.get("page_limit", 3)),
        )


@dataclass(frozen=True)
class TenantMix:
    """A tenant population riding on a fuzzed scenario.

    The harness builds a :class:`~repro.tenancy.TenantDirectory` from
    ``projects``/``users``, attaches a
    :class:`~repro.tenancy.TenancyConfig` to the cluster, and (when
    ``admission`` is set) an :class:`~repro.tenancy.AdmissionConfig`
    sized from the scenario's ``global_cap_w`` — so the fairshare
    water-fill, the decaying ledger and the admit/queue/reject gate all
    run under the invariant checkers on arbitrary scenarios.
    """

    #: (project name, fairshare weight) pairs, all under one account.
    projects: Tuple[Tuple[str, float], ...] = ()
    #: (user, project) memberships; job entries name these users.
    users: Tuple[Tuple[str, str], ...] = ()
    half_life_s: float = 600.0
    usage_norm_ws: float = 500_000.0
    accounting_interval_s: float = 10.0
    #: Gate submissions through admission control (needs a capped
    #: scenario: the admission budget is the scenario's global cap).
    admission: bool = False
    oversubscription: float = 1.0
    admit_node_w: float = 500.0
    max_queue_depth: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "projects": [[name, w] for name, w in self.projects],
            "users": [[u, p] for u, p in self.users],
            "half_life_s": self.half_life_s,
            "usage_norm_ws": self.usage_norm_ws,
            "accounting_interval_s": self.accounting_interval_s,
            "admission": self.admission,
            "oversubscription": self.oversubscription,
            "admit_node_w": self.admit_node_w,
            "max_queue_depth": self.max_queue_depth,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TenantMix":
        return cls(
            projects=tuple((str(n), float(w)) for n, w in d.get("projects", [])),
            users=tuple((str(u), str(p)) for u, p in d.get("users", [])),
            half_life_s=float(d.get("half_life_s", 600.0)),
            usage_norm_ws=float(d.get("usage_norm_ws", 500_000.0)),
            accounting_interval_s=float(d.get("accounting_interval_s", 10.0)),
            admission=bool(d.get("admission", False)),
            oversubscription=float(d.get("oversubscription", 1.0)),
            admit_node_w=float(d.get("admit_node_w", 500.0)),
            max_queue_depth=(
                None if d.get("max_queue_depth") is None
                else int(d["max_queue_depth"])
            ),
        )


@dataclass(frozen=True)
class Scenario:
    """A complete, replayable simulation-test scenario."""

    seed: int
    platform: str = "lassen"
    n_nodes: int = 8
    fanout: int = 2
    monitor_strategy: str = "fanout"
    policy: str = "proportional"
    #: Cluster budget at t=0; None models an unconstrained system.
    global_cap_w: Optional[float] = None
    static_node_cap_w: Optional[float] = 1950.0
    account_idle_nodes: bool = False
    jobs: Tuple[JobEntry, ...] = ()
    #: (t, new_global_cap_w) retuning steps, sorted by t.
    budget_schedule: Tuple[Tuple[float, float], ...] = ()
    fault_events: Tuple[FaultEvent, ...] = ()
    link_faults: Optional[LinkFaults] = None
    #: Simulated seconds to keep running after the last job completes
    #: (lets telemetry windows close and restarts land).
    drain_s: float = 4.0
    #: Drive a seeded serving-API client mix against the cluster while
    #: it runs (None: no serving tier attached).
    serving: Optional[ServingMix] = None
    #: Tenant population + fairshare/admission knobs (None: the
    #: anonymous-job configuration every pre-tenancy scenario ran).
    tenancy: Optional[TenantMix] = None

    # ------------------------------------------------------------------
    # Derived
    # ------------------------------------------------------------------
    def fault_plan(self) -> Optional[FaultPlan]:
        if not self.fault_events and self.link_faults is None:
            return None
        return FaultPlan(events=list(self.fault_events), link=self.link_faults)

    def describe(self) -> str:
        cap = "uncapped" if self.global_cap_w is None else f"{self.global_cap_w:.0f}W"
        return (
            f"seed={self.seed} {self.platform}x{self.n_nodes} fanout={self.fanout} "
            f"{self.monitor_strategy}/{self.policy} cap={cap} "
            f"jobs={len(self.jobs)} faults={len(self.fault_events)}"
            f"{'+link' if self.link_faults else ''} "
            f"budget_steps={len(self.budget_schedule)}"
            f"{' serving' if self.serving is not None else ''}"
            f"{self._describe_tenancy()}"
        )

    def _describe_tenancy(self) -> str:
        if self.tenancy is None:
            return ""
        suffix = f" tenants={len(self.tenancy.projects)}p/{len(self.tenancy.users)}u"
        if self.tenancy.admission:
            suffix += "+admission"
        return suffix

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "seed": self.seed,
            "platform": self.platform,
            "n_nodes": self.n_nodes,
            "fanout": self.fanout,
            "monitor_strategy": self.monitor_strategy,
            "policy": self.policy,
            "global_cap_w": self.global_cap_w,
            "static_node_cap_w": self.static_node_cap_w,
            "account_idle_nodes": self.account_idle_nodes,
            "jobs": [j.to_dict() for j in self.jobs],
            "budget_schedule": [[t, w] for t, w in self.budget_schedule],
            "fault_events": [asdict(ev) for ev in self.fault_events],
            "link_faults": None,
            "drain_s": self.drain_s,
        }
        if self.link_faults is not None:
            lf = asdict(self.link_faults)
            lf["ranks"] = sorted(self.link_faults.ranks) if self.link_faults.ranks else None
            if lf["t_end"] == float("inf"):
                lf["t_end"] = None  # JSON has no Infinity
            d["link_faults"] = lf
        # Only present when set: scenario dicts feed the run digest, so
        # a new always-there key would shift every historical digest.
        if self.serving is not None:
            d["serving"] = self.serving.to_dict()
        if self.tenancy is not None:
            d["tenancy"] = self.tenancy.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`. Unknown keys are ignored, so
        reproducers written by older versions (e.g. with the retired
        ``columnar`` flag) still replay."""
        link = None
        if d.get("link_faults") is not None:
            lf = dict(d["link_faults"])
            if lf.get("t_end") is None:
                lf["t_end"] = float("inf")
            if lf.get("ranks") is not None:
                lf["ranks"] = set(int(r) for r in lf["ranks"])
            link = LinkFaults(**lf)
        return cls(
            seed=int(d["seed"]),
            platform=str(d["platform"]),
            n_nodes=int(d["n_nodes"]),
            fanout=int(d["fanout"]),
            monitor_strategy=str(d["monitor_strategy"]),
            policy=str(d["policy"]),
            global_cap_w=(
                None if d.get("global_cap_w") is None else float(d["global_cap_w"])
            ),
            static_node_cap_w=(
                None
                if d.get("static_node_cap_w") is None
                else float(d["static_node_cap_w"])
            ),
            account_idle_nodes=bool(d.get("account_idle_nodes", False)),
            jobs=tuple(JobEntry.from_dict(j) for j in d.get("jobs", [])),
            budget_schedule=tuple(
                (float(t), float(w)) for t, w in d.get("budget_schedule", [])
            ),
            fault_events=tuple(
                FaultEvent(
                    t=float(ev["t"]),
                    kind=str(ev["kind"]),
                    rank=int(ev["rank"]),
                    duration_s=float(ev.get("duration_s", 0.0)),
                )
                for ev in d.get("fault_events", [])
            ),
            link_faults=link,
            drain_s=float(d.get("drain_s", 4.0)),
            serving=(
                None if d.get("serving") is None
                else ServingMix.from_dict(d["serving"])
            ),
            tenancy=(
                None if d.get("tenancy") is None
                else TenantMix.from_dict(d["tenancy"])
            ),
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds for :func:`generate_scenario`.

    Defaults keep single runs cheap enough that ``--seeds 100`` is an
    interactive command; raise ``max_nodes`` toward the paper's 792 for
    overnight campaigns (the generator itself has no upper limit).
    """

    min_nodes: int = 4
    max_nodes: int = 24
    min_jobs: int = 1
    max_jobs: int = 5
    max_work_scale: float = 2.0
    max_submit_spread_s: float = 30.0
    platforms: Tuple[str, ...] = ("lassen", "tioga")
    policies: Tuple[str, ...] = (
        "static",
        "proportional",
        "fpp",
        # The safety-wrapped policy zoo — fuzzing them under the
        # invariant checkers is how the wrapper's guarantees stay
        # honest (see docs/policies.md).
        "pi",
        "ecoshift",
        "checkpoint",
    )
    strategies: Tuple[str, ...] = ("fanout", "tree")
    fanouts: Tuple[int, ...] = (2, 3, 4)
    #: Probability the cluster gets a finite power budget at all.
    p_capped: float = 0.8
    #: Probability of a mid-run budget retune (given a capped cluster).
    p_budget_step: float = 0.5
    #: Probability the scenario carries crash/hang faults.
    p_faults: float = 0.5
    #: Probability of a probabilistic link-fault window on top.
    p_link_faults: float = 0.2
    max_crashes: int = 2
    max_hangs: int = 1
    #: Probability the scenario carries a serving-API client mix (the
    #: query-storm campaign mode; see :class:`ServingMix`).
    p_serving: float = 0.2
    #: Probability the scenario carries a tenant mix (fairshare weights
    #: + usage accounting; admission too when the scenario is capped).
    p_tenancy: float = 0.25
    #: Probability a *tenanted, capped* scenario also gates submissions
    #: through admission control.
    p_admission: float = 0.5


def draw_jobs(rng, cfg, platform: str, n_nodes: int) -> List[JobEntry]:
    """One cluster's job mix, sorted by arrival.

    Shared by both generator tiers: ``cfg`` supplies ``min_jobs``,
    ``max_jobs``, ``max_work_scale`` and ``max_submit_spread_s``, and
    every draw comes from the caller's ``rng`` substream.
    """
    apps = list(PORTABLE_APPS)
    if platform == "lassen":
        apps += list(LASSEN_ONLY_APPS)
    n_jobs = int(rng.integers(cfg.min_jobs, cfg.max_jobs + 1))
    jobs: List[JobEntry] = []
    for _ in range(n_jobs):
        app = apps[int(rng.integers(len(apps)))]
        nnodes = int(rng.integers(1, n_nodes + 1))
        work_scale = round(
            0.5 + float(rng.random()) * (cfg.max_work_scale - 0.5), 3
        )
        submit_t = round(float(rng.random()) * cfg.max_submit_spread_s, 3)
        jobs.append(
            JobEntry(app=app, nnodes=nnodes, work_scale=work_scale, submit_t=submit_t)
        )
    jobs.sort(key=lambda j: (j.submit_t, j.app, j.nnodes))
    return jobs


def draw_fault_events(rng, cfg, n_nodes: int) -> Tuple[FaultEvent, ...]:
    """One cluster's crash/hang campaign (``cfg.max_crashes``/``max_hangs``
    bound it); the caller draws the coin that decides whether to call."""
    plan = FaultPlan.generate(
        rng,
        n_ranks=n_nodes,
        n_crashes=int(rng.integers(0, cfg.max_crashes + 1)),
        n_hangs=int(rng.integers(0, cfg.max_hangs + 1)),
        t_window=(10.0, 90.0),
        crash_duration_s=float(rng.choice([0.0, 20.0, 40.0])),
        hang_duration_s=round(4.0 + float(rng.random()) * 12.0, 3),
    )
    return tuple(plan.events)


def generate_scenario(seed: int, cfg: Optional[GeneratorConfig] = None) -> Scenario:
    """Draw one scenario from ``seed`` (pure: same seed → same scenario).

    Every dimension pulls from its own named substream, so e.g. adding
    a new fault knob never perturbs the topologies or job mixes other
    seeds produce — the same stability contract the simulator's own
    RNG layer gives calibrated experiments.
    """
    cfg = cfg or GeneratorConfig()
    streams = RandomStreams(seed=seed)
    topo = streams.get("simtest/topology")
    jobs_rng = streams.get("simtest/jobs")
    budget_rng = streams.get("simtest/budget")
    faults_rng = streams.get("simtest/faults")
    # Own substream: turning the serving campaign mode on or off never
    # perturbs the topology/job/fault draws existing seeds produce.
    serving_rng = streams.get("simtest/serving")
    # And the tenant mix: turning p_tenancy up or down leaves every
    # other dimension of existing seeds untouched.
    tenancy_rng = streams.get("simtest/tenancy")

    # Topology -----------------------------------------------------------
    n_nodes = int(topo.integers(cfg.min_nodes, cfg.max_nodes + 1))
    platform = cfg.platforms[int(topo.integers(len(cfg.platforms)))]
    fanout = int(cfg.fanouts[int(topo.integers(len(cfg.fanouts)))])
    strategy = cfg.strategies[int(topo.integers(len(cfg.strategies)))]
    policy = cfg.policies[int(topo.integers(len(cfg.policies)))]

    jobs = draw_jobs(jobs_rng, cfg, platform, n_nodes)

    # Budget + schedule --------------------------------------------------
    global_cap_w: Optional[float] = None
    budget_schedule: Tuple[Tuple[float, float], ...] = ()
    if float(budget_rng.random()) < cfg.p_capped:
        lo, hi = BUDGET_PER_NODE_RANGE_W
        per_node = lo + float(budget_rng.random()) * (hi - lo)
        global_cap_w = round(per_node * n_nodes, 1)
        if policy != "static" and float(budget_rng.random()) < cfg.p_budget_step:
            steps = []
            for _ in range(int(budget_rng.integers(1, 3))):
                t = round(10.0 + float(budget_rng.random()) * 80.0, 3)
                per_node = lo + float(budget_rng.random()) * (hi - lo)
                steps.append((t, round(per_node * n_nodes, 1)))
            budget_schedule = tuple(sorted(steps))

    # Faults -------------------------------------------------------------
    fault_events: Tuple[FaultEvent, ...] = ()
    link: Optional[LinkFaults] = None
    if n_nodes >= 2 and float(faults_rng.random()) < cfg.p_faults:
        fault_events = draw_fault_events(faults_rng, cfg, n_nodes)
    if float(faults_rng.random()) < cfg.p_link_faults:
        link = LinkFaults(
            drop_prob=round(float(faults_rng.random()) * 0.05, 4),
            delay_prob=round(float(faults_rng.random()) * 0.2, 4),
            delay_s=round(0.05 + float(faults_rng.random()) * 0.5, 4),
            t_start=10.0,
            t_end=80.0,
        )

    serving: Optional[ServingMix] = None
    if float(serving_rng.random()) < cfg.p_serving:
        serving = ServingMix(
            clients=int(serving_rng.integers(4, 33)),
            requests_per_tick=int(serving_rng.integers(2, 9)),
            page_limit=int(serving_rng.integers(2, 6)),
        )

    # Tenant mix ---------------------------------------------------------
    tenancy: Optional[TenantMix] = None
    if float(tenancy_rng.random()) < cfg.p_tenancy:
        n_projects = int(tenancy_rng.integers(2, 5))
        projects = tuple(
            (f"proj{i}", float(tenancy_rng.choice([0.5, 1.0, 2.0, 4.0])))
            for i in range(n_projects)
        )
        users: List[Tuple[str, str]] = []
        for i in range(n_projects):
            for k in range(int(tenancy_rng.integers(1, 3))):
                users.append((f"u{i}_{k}", f"proj{i}"))
        admission = False
        oversubscription, admit_node_w = 1.0, 500.0
        max_queue_depth: Optional[int] = None
        if global_cap_w is not None and \
                float(tenancy_rng.random()) < cfg.p_admission:
            # Reservation sizes chosen so admission actually bites
            # against BUDGET_PER_NODE_RANGE_W draws (500 W rarely,
            # 3050 W often).
            admission = True
            admit_node_w = float(tenancy_rng.choice([500.0, 1500.0, 3050.0]))
            oversubscription = float(tenancy_rng.choice([1.0, 1.25]))
            max_queue_depth = (None, 2, 4)[int(tenancy_rng.integers(3))]
        tenancy = TenantMix(
            projects=projects,
            users=tuple(users),
            half_life_s=float(tenancy_rng.choice([120.0, 600.0])),
            accounting_interval_s=float(tenancy_rng.choice([5.0, 10.0])),
            admission=admission,
            oversubscription=oversubscription,
            admit_node_w=admit_node_w,
            max_queue_depth=max_queue_depth,
        )
        # Every job submits as one of the mix's users (drawn from the
        # tenancy substream, after the sort: the underlying job draws
        # are byte-identical to the tenancy-off generation).
        jobs = [
            replace(j, user=users[int(tenancy_rng.integers(len(users)))][0])
            for j in jobs
        ]

    return Scenario(
        seed=seed,
        platform=platform,
        n_nodes=n_nodes,
        fanout=fanout,
        monitor_strategy=strategy,
        policy=policy,
        global_cap_w=global_cap_w,
        static_node_cap_w=1950.0 if platform == "lassen" else None,
        jobs=tuple(jobs),
        budget_schedule=budget_schedule,
        fault_events=fault_events,
        link_faults=link,
        serving=serving,
        tenancy=tenancy,
    )
