"""Run one scenario under the invariant checkers.

The harness builds a :class:`~repro.cluster.PowerManagedCluster` from a
:class:`~repro.simtest.scenario.Scenario`, schedules its job arrivals
and budget retunes, and interleaves a periodic *check tick* with the
simulation: every :data:`CHECK_INTERVAL_S` simulated seconds each checker
inspects the live cluster. After the last job completes (plus a drain
window) the per-job telemetry is fetched and the end-of-run checkers
get a final look.

The result carries a **digest**: a SHA-256 over a canonical summary of
the run (job timings, energy metrics, injected faults, headline
counters). Re-running the same seed must reproduce the digest byte for
byte — that is the replayability contract ``repro simtest`` verifies
with ``--expect-digest`` and the tests pin.

:func:`run_checked` is the run loop itself (tick, liveness, drain,
telemetry fetch, end-of-run checks); the federated harness drives its
site through the same function.

Check ticks are scheduled as ordinary simulator events, but checkers
are pure observers (no messages, no RNG draws, no model mutation), so
they can only *observe* a divergence, never cause one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import PowerManagedCluster
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.monitor.client import JobPowerData
from repro.simkernel.canonical import canonical_digest
from repro.simtest.invariants import InvariantChecker, Violation, default_checkers
from repro.simtest.scenario import Scenario, TenantMix

#: How often the invariant tick runs (simulated seconds). Matches the
#: monitor's default sampling period so every sampling epoch is seen.
CHECK_INTERVAL_S = 2.0

#: Hard ceilings that turn a hung scenario into a reported violation
#: instead of an unbounded run.
TIMEOUT_S = 500_000.0
MAX_EVENTS = 5_000_000

#: Counters whose totals feed the digest (stable, deterministic ones).
DIGEST_COUNTERS = (
    "monitor_samples_total",
    "monitor_aggregations_total",
    "manager_share_recomputes_total",
    "manager_node_limit_updates_total",
    "faults_injected_total",
    "tbon_messages_dropped_total",
)


class SimtestContext:
    """What checkers see: the cluster plus harness bookkeeping."""

    def __init__(self, cluster: PowerManagedCluster, scenario: Scenario) -> None:
        self.cluster = cluster
        self.scenario = scenario
        self.tick_index = 0
        #: jobid -> fetched telemetry, populated before end-of-run checks.
        self.job_telemetry: Dict[int, JobPowerData] = {}
        #: Serving-tier API over this cluster, attached when the
        #: scenario carries a :class:`~repro.simtest.scenario.ServingMix`;
        #: None otherwise. Checkers must treat it as optional.
        self.service = None
        #: Requests injected by the serving campaign so far.
        self.serving_requests = 0

    @property
    def sim(self):
        return self.cluster.sim


@dataclass
class SimtestResult:
    """Outcome of one scenario run (single-cluster or federated)."""

    scenario: Any
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    makespan_s: Optional[float] = None
    n_ticks: int = 0
    events_processed: int = 0
    #: Site rebalances over the run; filled by federated runs only.
    n_rebalances: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return (
                f"OK   {self.scenario.describe()} "
                f"digest={self.digest[:12]} ticks={self.n_ticks}"
                + (
                    f" rebalances={self.n_rebalances}"
                    if self.n_rebalances is not None else ""
                )
            )
        v = self.violations[0]
        return (
            f"FAIL {self.scenario.describe()} "
            f"[{v.invariant}] t={v.t:.3f}: {v.message}"
            + (f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else "")
        )


CheckGroup = Tuple[Any, List[InvariantChecker]]


def _run_checks(
    groups: Sequence[CheckGroup], result: SimtestResult, at_end: bool = False
) -> bool:
    """Run every ``(context, checkers)`` group; True if any checker found
    something. ``at_end`` adds each checker's end-of-run look."""
    found_any = False
    for ctx, checkers in groups:
        for checker in checkers:
            found = checker.check(ctx)
            if at_end:
                found = found + checker.at_end(ctx)
            if found:
                result.violations.extend(found)
                found_any = True
    return found_any


def _fetch_telemetry(
    label: Optional[str], cluster, into: Dict[int, JobPowerData], now: float
) -> List[Violation]:
    """Fetch every finished job's telemetry into ``into``; a failed
    fetch is a ``telemetry_fetch`` finding. ``label`` names the member
    cluster of a federated run (None for a single-cluster run)."""
    found: List[Violation] = []
    for jobid, run in cluster.instance.app_runs.items():
        if not run.finished:
            continue
        try:
            into[jobid] = cluster.telemetry(jobid)
        except Exception as exc:  # noqa: BLE001 - a failed fetch IS a finding
            where = f"job {jobid}" if label is None else f"{label} job {jobid}"
            scope = {} if label is None else {"cluster": label}
            found.append(
                Violation(
                    invariant="telemetry_fetch", t=now,
                    message=f"telemetry fetch for {where} failed: {exc}",
                    details={**scope, "jobid": jobid, "error": str(exc)},
                )
            )
    return found


def run_checked(
    ctx,
    result: SimtestResult,
    *,
    pending: Callable[[], bool],
    drain: Callable[[], Any],
    tick_groups: Sequence[CheckGroup],
    end_groups: Sequence[CheckGroup],
    fetches: Sequence[Tuple[Optional[str], Any, Dict[int, JobPowerData]]],
    stop_on_first: bool = False,
    before_tick: Optional[Callable[[], None]] = None,
) -> None:
    """The run loop both tiers share.

    Schedules the periodic invariant tick (``before_tick`` then every
    ``tick_groups`` checker), steps the engine while ``pending()``,
    turns a drained heap or an exhausted event/time budget into an
    ``engine``/``liveness`` violation, then drains and cancels the
    tick. A run that ends normally fetches each ``fetches`` cluster's
    finished-job telemetry and gives ``end_groups`` their final look.
    ``stop_on_first`` halts at the first violating tick (no drain, no
    end-of-run checks).
    """
    sim = ctx.sim
    halted = False

    def _tick() -> None:
        nonlocal halted
        if before_tick is not None:
            before_tick()
        if _run_checks(tick_groups, result) and stop_on_first:
            halted = True
        ctx.tick_index += 1
        result.n_ticks += 1

    tick_event = sim.schedule_periodic(
        CHECK_INTERVAL_S, _tick, start_delay=0.0
    )

    deadline = sim.now + TIMEOUT_S
    count = 0
    timed_out = False
    while pending():
        if halted:
            break
        if not sim.step():
            result.violations.append(
                Violation(
                    invariant="engine", t=sim.now,
                    message="event heap drained with jobs still active",
                )
            )
            timed_out = True
            break
        count += 1
        if count > MAX_EVENTS or sim.now > deadline:
            result.violations.append(
                Violation(
                    invariant="liveness", t=sim.now,
                    message=(
                        f"jobs still active after "
                        f"{count} events / t={sim.now:.0f}s"
                    ),
                    details={"events": count},
                )
            )
            timed_out = True
            break
    if not halted and not timed_out:
        drain()
    tick_event.cancel()

    if not halted and not timed_out:
        for label, cluster, into in fetches:
            result.violations.extend(_fetch_telemetry(label, cluster, into, sim.now))
        _run_checks(end_groups, result, at_end=True)


def job_rows(cluster) -> Dict[str, Dict[str, Any]]:
    """Per-job digest rows, keyed by jobid string."""
    return {
        str(jobid): {
            "runtime_s": m.runtime_s,
            "avg_node_power_w": m.avg_node_power_w,
            "avg_node_energy_kj": m.avg_node_energy_kj,
        }
        for jobid, m in sorted(cluster.all_metrics().items())
    }


def counter_totals(metrics, names: Sequence[str]) -> Dict[str, float]:
    """Each named counter summed over all its label sets."""
    return {name: sum(s.value for s in metrics.series_for(name)) for name in names}


def _tenancy_config(mix: TenantMix, global_cap_w: Optional[float]):
    """Build the cluster's :class:`~repro.tenancy.TenancyConfig` from a
    scenario's :class:`~repro.simtest.scenario.TenantMix`."""
    from repro.tenancy import AdmissionConfig, TenancyConfig, TenantDirectory

    directory = TenantDirectory.build(
        projects=list(mix.projects), users=list(mix.users)
    )
    admission = None
    if mix.admission and global_cap_w is not None:
        admission = AdmissionConfig(
            budget_w=global_cap_w,
            admit_node_w=mix.admit_node_w,
            oversubscription=mix.oversubscription,
            max_queue_depth=mix.max_queue_depth,
        )
    return TenancyConfig(
        directory=directory,
        half_life_s=mix.half_life_s,
        usage_norm_ws=mix.usage_norm_ws,
        accounting_interval_s=mix.accounting_interval_s,
        admission=admission,
    )


def run_scenario(
    scenario: Scenario,
    checkers: Optional[List[InvariantChecker]] = None,
    stop_on_first: bool = False,
    setup=None,
) -> SimtestResult:
    """Execute ``scenario`` under the invariant checkers.

    ``stop_on_first`` ends the run at the first violating tick — the
    shrinker uses it to keep reproduction cheap; batch runs keep going
    so one report shows every property the scenario breaks.

    ``setup(cluster, sim)``, when given, runs after the cluster is
    built but before the first event — the crash-recovery fuzz uses it
    to schedule a snapshot → wipe → restore cycle mid-run without the
    harness knowing anything about snapshots.
    """
    if checkers is None:
        checkers = default_checkers()

    manager_config = None
    if scenario.policy:
        manager_config = ManagerConfig(
            global_cap_w=scenario.global_cap_w,
            policy=scenario.policy,
            static_node_cap_w=scenario.static_node_cap_w,
            account_idle_nodes=scenario.account_idle_nodes,
        )
    tenancy_config = None
    if scenario.tenancy is not None:
        tenancy_config = _tenancy_config(scenario.tenancy, scenario.global_cap_w)
    cluster = PowerManagedCluster(
        platform=scenario.platform,
        n_nodes=scenario.n_nodes,
        seed=scenario.seed,
        fanout=scenario.fanout,
        manager_config=manager_config,
        monitor_strategy=scenario.monitor_strategy,
        fault_plan=scenario.fault_plan(),
        tenancy=tenancy_config,
    )
    ctx = SimtestContext(cluster, scenario)
    result = SimtestResult(scenario=scenario)
    sim = cluster.sim
    if setup is not None:
        setup(cluster, sim)

    # Serving campaign ---------------------------------------------------
    # When the scenario carries a ServingMix, stand up the API over the
    # cluster and replay a seeded read-only client mix at every tick.
    # Requests never step the simulator and the injection RNG is its own
    # substream, so the campaign cannot perturb the run — a 5xx from any
    # injected request is itself a violation.
    inject_serving = None
    if scenario.serving is not None:
        from repro.serving.registry import ClusterRegistry
        from repro.serving.service import PowerService
        from repro.simkernel.rng import RandomStreams

        ctx.service = PowerService(
            ClusterRegistry.from_cluster(cluster, name="default")
        )
        inject_rng = RandomStreams(seed=scenario.seed).get(
            "simtest/serving/inject"
        )
        mix = scenario.serving
        read_ops = (
            "cluster_power", "list_jobs", "get_job", "queue", "nodes",
            "health",
        )

        def inject_serving() -> None:
            books = cluster.instance.jobmanager.jobs
            for _ in range(mix.requests_per_tick):
                op = read_ops[int(inject_rng.integers(0, len(read_ops)))]
                method, path = "GET", "/v1/health"
                params: Dict[str, Any] = {}
                if op == "get_job" and not books:
                    op = "list_jobs"
                if op == "cluster_power":
                    path = "/v1/clusters/default/power"
                elif op == "queue":
                    path = "/v1/clusters/default/queue"
                elif op == "nodes":
                    path = "/v1/clusters/default/nodes"
                    params = {"limit": mix.page_limit}
                elif op == "list_jobs":
                    path = "/v1/clusters/default/jobs"
                    params = {"limit": mix.page_limit}
                    if int(inject_rng.integers(0, 2)):
                        params["response_format"] = "detailed"
                elif op == "get_job":
                    jobids = list(books)
                    jobid = jobids[int(inject_rng.integers(0, len(jobids)))]
                    path = f"/v1/clusters/default/jobs/{jobid}"
                resp = ctx.service.handle(method, path, params)
                ctx.serving_requests += 1
                if resp.status >= 500:
                    result.violations.append(
                        Violation(
                            invariant="serving", t=sim.now,
                            message=(
                                f"injected {op} request returned "
                                f"{resp.status}: {resp.body}"
                            ),
                            details={"op": op, "path": path,
                                     "status": resp.status},
                        )
                    )

    # Job arrivals -------------------------------------------------------
    for entry in scenario.jobs:
        spec = Jobspec(
            app=entry.app,
            nnodes=min(entry.nnodes, scenario.n_nodes),
            params={"work_scale": entry.work_scale},
            **({"user": entry.user} if entry.user is not None else {}),
        )
        if entry.submit_t <= 0.0:
            cluster.submit(spec)
        else:
            cluster.submit_at(spec, entry.submit_t)

    # Budget schedule ----------------------------------------------------
    if scenario.budget_schedule and cluster.manager is not None:
        for t, cap in scenario.budget_schedule:
            sim.schedule_at(t, cluster.manager.cluster.set_budget, cap)

    # Invariant tick, run, end-of-run checks ------------------------------
    jm = cluster.instance.jobmanager
    n_expected = len(scenario.jobs)

    # all_complete() is vacuously true before deferred submissions fire,
    # so also wait until every scenario job has actually been submitted.
    # With admission control some submissions are rejected (never reach
    # the job manager) or queued (reach it later), so count decisions at
    # the coordinator instead of records in the books.
    def _pending() -> bool:
        coord = cluster.tenancy
        if coord is not None and coord.admission_enabled:
            return (
                coord.submissions_total < n_expected
                or coord.queue_len > 0
                or not jm.all_complete()
            )
        return len(jm.jobs) < n_expected or not jm.all_complete()

    groups = [(ctx, checkers)]
    run_checked(
        ctx, result,
        pending=_pending,
        drain=lambda: cluster.run_for(scenario.drain_s),
        tick_groups=groups,
        end_groups=groups,
        fetches=[(None, cluster, ctx.job_telemetry)],
        stop_on_first=stop_on_first,
        before_tick=inject_serving,
    )

    # Digest -------------------------------------------------------------
    result.makespan_s = cluster.makespan_s()
    result.events_processed = sim.events_processed
    summary: Dict[str, Any] = {
        "seed": scenario.seed,
        "scenario": scenario.to_dict(),
        "makespan_s": result.makespan_s,
        "t_end": sim.now,
        "jobs": job_rows(cluster),
        "faults": list(cluster.faults.injected),
        "counters": counter_totals(
            cluster.telemetry_hub.metrics, DIGEST_COUNTERS
        ),
        "violations": [v.to_dict() for v in result.violations],
    }
    # Only present for tenanted scenarios: the key's absence keeps every
    # historical (anonymous) digest byte-identical.
    if scenario.tenancy is not None and cluster.tenancy is not None:
        summary["tenancy"] = cluster.tenancy.digest_summary()
    result.digest = canonical_digest(summary)
    return result
