"""End-to-end tenancy: weighted shares, decay, admission, determinism.

Drives real :class:`~repro.cluster.PowerManagedCluster` instances (not
mocks) through the tenancy coordinator and checks the ISSUE 10
acceptance properties: fairshare weights actually move installed job
power limits, decayed usage feeds back into the weights, the admission
FIFO drains, and the oversubscribed demo is byte-deterministic
(same seed → identical accounting CSV).
"""

from __future__ import annotations

from repro.cluster import PowerManagedCluster
from repro.federation.rebalance import REL_EPS
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.tenancy import (
    UNAFFILIATED,
    AdmissionConfig,
    TenancyConfig,
    TenancyCoordinator,
    TenantDirectory,
)
from repro.tenancy.report import DEMO_PLAN, build_demo_cluster, run_demo


def _capped_cluster(
    seed: int = 0,
    cap_w: float = 8000.0,
    admission: AdmissionConfig | None = None,
    interval_s: float = 5.0,
) -> PowerManagedCluster:
    directory = TenantDirectory.build(
        projects=[("astro", 4.0), ("ml", 1.0)],
        users=[("alice", "astro"), ("mei", "ml")],
    )
    return PowerManagedCluster(
        platform="lassen",
        n_nodes=8,
        seed=seed,
        manager_config=ManagerConfig(
            global_cap_w=cap_w,
            policy="proportional",
            static_node_cap_w=1950.0,
        ),
        tenancy=TenancyConfig(
            directory=directory,
            half_life_s=60.0,
            accounting_interval_s=interval_s,
            admission=admission,
        ),
    )


def test_tenancy_off_by_default():
    """Anonymous deployments carry no coordinator and no weight
    source: the manager's split runs with equal weights."""
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=1,
        manager_config=ManagerConfig(
            global_cap_w=8000.0,
            policy="proportional",
            static_node_cap_w=1950.0,
        ),
    )
    assert cluster.tenancy is None
    assert cluster.manager.cluster.job_weights is None


def _effective_weights(coord):
    return {r["project"]: r["effective_weight"] for r in coord.accounting_rows()}


def test_coordinator_installed_and_wired():
    cluster = _capped_cluster()
    coord = cluster.tenancy
    assert isinstance(coord, TenancyCoordinator)
    root = cluster.manager.cluster
    assert root.job_weights == coord.job_weights
    assert not coord.admission_enabled  # no AdmissionConfig here
    assert _effective_weights(coord)["astro"] == 4.0


def test_weighted_shares_favor_heavy_project():
    """Under contention the astro (weight 4) job's installed limit is
    4× the ml (weight 1) job's — the weighted water-fill, live."""
    cluster = _capped_cluster(cap_w=8000.0, interval_s=1000.0)
    cluster.submit(Jobspec(app="gemm", nnodes=4, user="alice"))
    cluster.submit(Jobspec(app="gemm", nnodes=4, user="mei"))
    cluster.run_for(2.0)  # before the first accounting tick: base weights
    root = cluster.manager.cluster
    books = root.job_level.jobs
    assert len(books) == 2
    coord = cluster.tenancy
    by_project = {
        coord.project_of_job(jobid): state.job_limit_w
        for jobid, state in books.items()
    }
    astro, ml = by_project["astro"], by_project["ml"]
    assert astro is not None and ml is not None
    # W = 1.0·4 + 0.25·4 = 5 ⇒ astro gets 8000·(1/5)·4, ml a quarter.
    assert abs(astro - 6400.0) <= REL_EPS * 6400.0
    assert abs(ml - 1600.0) <= REL_EPS * 6400.0
    total = astro + ml
    assert abs(total - 8000.0) <= REL_EPS * 8000.0


def test_usage_decay_discounts_effective_weight():
    """Running jobs charge their project; the accounting tick folds the
    decayed usage into a strictly lower effective weight."""
    cluster = _capped_cluster(interval_s=5.0)
    coord = cluster.tenancy
    base = _effective_weights(coord)["astro"]
    cluster.submit(Jobspec(app="gemm", nnodes=4, user="alice"))
    cluster.run_for(30.0)
    assert coord.accounting_ticks > 0
    eff = _effective_weights(coord)["astro"]
    assert 0.0 < eff < base
    assert coord.ledger.decayed("astro", cluster.sim.now) > 0.0
    # The idle project is never charged and keeps its base weight.
    assert _effective_weights(coord)["ml"] == 1.0


def test_admission_queue_drains_fifo():
    """Queued submissions release in FIFO order as capacity frees, and
    every admitted job reaches the job manager's books."""
    cluster = build_demo_cluster(seed=0)
    coord = cluster.tenancy
    for user, app, nnodes, submit_t in DEMO_PLAN:
        spec = Jobspec(app=app, nnodes=nnodes, user=user)
        if submit_t <= 0.0:
            cluster.submit(spec)
        else:
            cluster.submit_at(spec, submit_t)
    jm = cluster.instance.jobmanager
    while not (coord.drained() and jm.all_complete()) and cluster.sim.now < 5000.0:
        cluster.run_for(5.0)
    assert coord.drained()
    assert jm.all_complete()
    # All three decision kinds appear in the oversubscribed demo.
    assert coord.counts["admit"] > 0
    assert coord.counts["queue"] > 0
    assert coord.counts["reject"] > 0
    # FIFO: release order matches queue order, keyed by (user, nnodes).
    queued = [
        (r.user, r.nnodes) for r in coord.decisions
        if r.decision.action == "queue"
    ]
    released = [(r.user, r.nnodes) for r in coord.decisions if r.released]
    assert released == queued[: len(released)]
    # Every admitted decision landed a job in the books.
    admitted_ids = {
        r.jobid for r in coord.decisions
        if r.decision.action == "admit" and r.jobid is not None
    }
    assert admitted_ids == set(jm.jobs)


def test_anonymous_submission_accounts_to_unaffiliated():
    # budget_w=None admits everything but still logs every decision.
    cluster = _capped_cluster(admission=AdmissionConfig(budget_w=None))
    cluster.submit(Jobspec(app="gemm", nnodes=2))
    cluster.run_for(10.0)
    coord = cluster.tenancy
    rows = {row["project"]: row for row in coord.accounting_rows()}
    assert rows[UNAFFILIATED]["admitted_total"] == 1
    assert coord.project_of_job(next(iter(cluster.instance.jobmanager.jobs))) \
        == UNAFFILIATED


def test_same_seed_byte_identical_accounting_csv(tmp_path):
    """ISSUE 10 acceptance: replaying the oversubscribed demo with the
    same seed produces a byte-identical accounting CSV and report."""
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sink: list = []
    sink2: list = []
    run_demo(seed=0, csv_path=str(p1), out=sink.append)
    run_demo(seed=0, csv_path=str(p2), out=sink2.append)
    assert p1.read_bytes() == p2.read_bytes()
    assert sink[:-1] == sink2[:-1]  # the last line names the CSV path
    header = p1.read_text().splitlines()[0]
    assert header.startswith("project,")


def test_accounting_csv_matches_rows():
    cluster = _capped_cluster()
    cluster.submit(Jobspec(app="gemm", nnodes=4, user="alice"))
    cluster.run_for(20.0)
    coord = cluster.tenancy
    csv_text = coord.accounting_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + len(coord.accounting_rows())
    digest = coord.digest_summary()
    assert digest["submissions_total"] == coord.submissions_total
