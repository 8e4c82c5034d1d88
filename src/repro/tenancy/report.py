"""The ``repro tenants --report`` demo: fairshare in one screenful.

Builds a deliberately oversubscribed three-project cluster (weights
4:2:1, admission gated), pushes a fixed submission plan through it and
prints the admission log plus the final accounting table — the
multi-tenant analogue of the other CLI demo campaigns. Everything runs
in simulated time from a fixed plan, so the same seed produces
byte-identical output (and CSV export), which the integration tests
pin.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cluster import PowerManagedCluster
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.tenancy.admission import AdmissionConfig
from repro.tenancy.coordinator import TenancyConfig, TenancyCoordinator
from repro.tenancy.model import TenantDirectory

#: (user, app, nnodes, submit_t) — sized to oversubscribe a 16-node
#: cluster behind a 24 kW admission budget, so the log shows all three
#: decision kinds.
DEMO_PLAN: Tuple[Tuple[str, str, int, float], ...] = (
    ("alice", "gemm", 6, 0.0),
    ("bo", "lammps", 6, 0.0),
    ("mei", "quicksilver", 4, 2.0),
    ("amar", "gemm", 4, 4.0),
    ("bo", "nqueens", 2, 6.0),
    ("mei", "gemm", 16, 8.0),
)


def build_demo_cluster(seed: int = 0) -> PowerManagedCluster:
    """The demo deployment: 3 weighted projects, admission gated."""
    directory = TenantDirectory.build(
        projects=[("astro", 4.0), ("bio", 2.0), ("ml", 1.0)],
        users=[
            ("alice", "astro"),
            ("amar", "astro"),
            ("bo", "bio"),
            ("mei", "ml"),
        ],
    )
    return PowerManagedCluster(
        platform="lassen",
        n_nodes=16,
        seed=seed,
        manager_config=ManagerConfig(
            global_cap_w=24000.0,
            policy="proportional",
            static_node_cap_w=1950.0,
        ),
        tenancy=TenancyConfig(
            directory=directory,
            half_life_s=120.0,
            accounting_interval_s=5.0,
            admission=AdmissionConfig(
                budget_w=24000.0,
                admit_node_w=1500.0,
                max_queue_depth=2,
            ),
        ),
    )


def run_demo(
    seed: int = 0,
    csv_path: Optional[str] = None,
    out: Callable[[str], None] = print,
) -> TenancyCoordinator:
    """Run the demo plan to completion and print the report.

    Returns the coordinator so callers (tests, notebooks) can inspect
    the ledger and the decision log directly.
    """
    cluster = build_demo_cluster(seed)
    coord = cluster.tenancy
    assert coord is not None
    for user, app, nnodes, submit_t in DEMO_PLAN:
        spec = Jobspec(app=app, nnodes=nnodes, user=user)
        if submit_t <= 0.0:
            cluster.submit(spec)
        else:
            cluster.submit_at(spec, submit_t)
    jm = cluster.instance.jobmanager
    # run_until_complete would stop before queued specs are released,
    # so step in accounting-interval slices until the gate drains too.
    while not (coord.drained() and jm.all_complete()) \
            and cluster.sim.now < 5000.0:
        cluster.run_for(5.0)
    cluster.run_for(5.0)  # let the last accounting tick land

    out(f"tenants demo: seed={seed} 16-node lassen, 24 kW admission budget")
    out("")
    out("admission log:")
    for rec in coord.decisions:
        suffix = " (released from queue)" if rec.released else ""
        jobid = f" job={rec.jobid}" if rec.jobid is not None else ""
        out(
            f"  t={rec.t:7.3f} {rec.user:>6} {rec.project:>6} "
            f"{rec.nnodes:2d}n -> {rec.decision.action:6}/"
            f"{rec.decision.code}{jobid}{suffix}"
        )
    out("")
    out("accounting (decayed usage, effective weights):")
    header = (
        f"  {'project':>8} {'acct':>8} {'weight':>7} {'eff_w':>7} "
        f"{'usage_kWs':>10} {'admit':>5} {'queue':>5} {'reject':>6}"
    )
    out(header)
    for row in coord.accounting_rows():
        out(
            f"  {row['project']:>8} {row['account']:>8} "
            f"{row['weight']:7.2f} {row['effective_weight']:7.3f} "
            f"{row['usage_ws'] / 1e3:10.2f} {row['admitted_total']:5d} "
            f"{row['queued_total']:5d} {row['rejected_total']:6d}"
        )
    counts = coord.counts
    out("")
    out(
        f"decisions: {counts['admit']} admitted, {counts['queue']} queued, "
        f"{counts['reject']} rejected; makespan="
        f"{cluster.makespan_s() or 0.0:.1f}s"
    )
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(coord.accounting_csv())
        out(f"wrote accounting CSV to {csv_path}")
    return coord
