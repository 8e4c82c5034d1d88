"""Stateful property test: the power manager under random job traffic.

Drives a proportionally-shared cluster through random submissions and
time advances, and checks structural invariants after every step: caps
stay within device ranges, node limits within [0, peak], tenant
bookkeeping matches the job manager, and the share history is sane.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.cluster import PowerManagedCluster
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig

N_NODES = 6
BUDGET_W = 7200.0


class PowerManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = PowerManagedCluster(
            platform="lassen",
            n_nodes=N_NODES,
            seed=77,
            trace=False,
            manager_config=ManagerConfig(
                global_cap_w=BUDGET_W,
                policy="proportional",
                static_node_cap_w=1950.0,
            ),
        )

    @rule(
        nnodes=st.integers(1, N_NODES),
        app=st.sampled_from(["laghos", "quicksilver", "gemm"]),
        scale=st.floats(0.2, 1.5),
    )
    def submit(self, nnodes, app, scale):
        if app == "gemm":
            scale = min(scale, 0.4)  # keep runs short
        self.cluster.submit(
            Jobspec(app=app, nnodes=nnodes, params={"work_scale": scale})
        )

    @rule(dt=st.floats(1.0, 30.0))
    def advance(self, dt):
        self.cluster.run_for(dt)

    # ------------------------------------------------------------------
    @invariant()
    def gpu_caps_within_device_range(self):
        for node in self.cluster.nodes:
            for gpu in node.gpu_domains:
                cap = gpu.get_cap("nvml")
                if cap is not None:
                    assert 100.0 <= cap <= 300.0

    @invariant()
    def node_limits_sane(self):
        mgr = self.cluster.manager
        for nm in mgr.node_managers:
            if nm.node_limit_w is not None:
                assert 0.0 <= nm.node_limit_w <= mgr.config.node_peak_w + 1e-6

    @invariant()
    def share_matches_active_population(self):
        mgr = self.cluster.manager
        share = mgr.cluster.per_node_share_w()
        active_nodes = mgr.cluster.job_level.active_node_count()
        if active_nodes == 0:
            assert share is None
        else:
            expected = min(
                mgr.config.node_peak_w, BUDGET_W / active_nodes
            )
            assert share == expected

    @invariant()
    def tenants_match_job_manager(self):
        """Eventually-consistent: every node manager's tenant is either
        unset, or a job the job manager knows about (possibly already
        finished — the departed RPC may still be in flight)."""
        jm = self.cluster.instance.jobmanager
        for nm in self.cluster.manager.node_managers:
            if nm.current_jobid is not None:
                assert nm.current_jobid in jm.jobs

    @invariant()
    def share_log_is_time_ordered(self):
        log = self.cluster.manager.share_log
        times = [t for (t, _, _) in log]
        assert times == sorted(times)


TestPowerManagerStateful = PowerManagerMachine.TestCase
TestPowerManagerStateful.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
