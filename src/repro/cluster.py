"""Top-level facade: a power-managed cluster in one object.

Wraps a :class:`~repro.flux.instance.FluxInstance` with the power
monitor and (optionally) the power manager loaded, plus a cluster power
trace — the configuration every experiment and example starts from.

Example
-------
>>> from repro import PowerManagedCluster, Jobspec, ManagerConfig
>>> cluster = PowerManagedCluster(
...     platform="lassen", n_nodes=8, seed=7,
...     manager_config=ManagerConfig(global_cap_w=9600.0,
...                                  policy="proportional",
...                                  static_node_cap_w=1950.0))
>>> job = cluster.submit(Jobspec(app="gemm", nnodes=6))
>>> cluster.run_until_complete()
>>> cluster.metrics(job.jobid).runtime_s  # doctest: +SKIP
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.energy import JobMetrics, job_metrics
from repro.analysis.traces import ClusterPowerTrace
from repro.faults import FaultInjector, FaultPlan
from repro.flux.broker import Broker
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import JobRecord, Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.manager.module import PowerManager, attach_manager
from repro.monitor.client import JobPowerData
from repro.monitor.module import PowerMonitor, attach_monitor
from repro.telemetry import OverheadReport, Telemetry


class PowerManagedCluster:
    """A simulated cluster with telemetry and power management loaded.

    Parameters
    ----------
    platform:
        ``"lassen"``, ``"tioga"`` or ``"generic"``.
    n_nodes:
        Cluster size.
    seed:
        Root seed for all randomness.
    with_monitor:
        Load flux-power-monitor (node agents + root agent + client).
    manager_config:
        Load flux-power-manager with this config; ``None`` loads no
        manager (telemetry-only deployment).
    monitor_interval_s:
        Telemetry sampling period (paper default 2 s).
    trace:
        Record a cluster-wide power trace (Table III / Fig 5-7 data).
    enable_jitter:
        Run-to-run variability on (Fig 3/4 experiments).
    telemetry_enabled:
        Observability hub on/off (metrics, traces, overhead accounting
        — :mod:`repro.telemetry`). Pure observer: simulated results are
        identical either way.
    fault_plan:
        Fault campaign to inject (:class:`~repro.faults.FaultPlan`);
        ``None`` (or an empty plan) injects nothing and leaves the run
        byte-identical to a faultless build — see docs/failures.md.
    sim:
        An existing :class:`~repro.simkernel.Simulator` to build on —
        several clusters sharing one engine is how a federated site
        (:mod:`repro.federation`) runs; None creates a private engine.
    hostname_prefix:
        Override the platform name in generated hostnames (keeps
        sibling clusters of one platform distinguishable in CSVs).
    """

    def __init__(
        self,
        platform: str = "lassen",
        n_nodes: int = 8,
        seed: int = 0,
        with_monitor: bool = True,
        manager_config: Optional[ManagerConfig] = None,
        fpp_params=None,
        monitor_interval_s: float = 2.0,
        trace: bool = True,
        enable_jitter: bool = False,
        nvml_failure_rate: float = 0.0,
        fanout: int = 2,
        scheduler_factory=None,
        telemetry_enabled: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        monitor_strategy: str = "fanout",
        sim=None,
        hostname_prefix: Optional[str] = None,
        tenancy=None,
    ) -> None:
        self.instance = FluxInstance(
            platform=platform,
            n_nodes=n_nodes,
            seed=seed,
            fanout=fanout,
            sim=sim,
            hostname_prefix=hostname_prefix,
            enable_jitter=enable_jitter,
            nvml_failure_rate=nvml_failure_rate,
            scheduler_factory=scheduler_factory,
            telemetry_enabled=telemetry_enabled,
        )
        self.monitor: Optional[PowerMonitor] = None
        if with_monitor:
            self.monitor = attach_monitor(
                self.instance,
                sample_interval_s=monitor_interval_s,
                strategy=monitor_strategy,
            )
        self.manager: Optional[PowerManager] = None
        if manager_config is not None:
            self.manager = attach_manager(
                self.instance, manager_config, fpp_params=fpp_params
            )
        self.trace: Optional[ClusterPowerTrace] = None
        if trace:
            self.trace = ClusterPowerTrace(self.instance)
        #: Fault injector; a no-op (nothing scheduled, no RNG stream)
        #: unless a non-empty plan was supplied.
        self.faults = FaultInjector(
            self.instance, fault_plan, on_restart=self._on_broker_restart
        )
        #: Tenancy coordinator (fairshare + admission + accounting);
        #: None — the anonymous-job paper configuration — unless a
        #: :class:`~repro.tenancy.coordinator.TenancyConfig` was given.
        self.tenancy = None
        if tenancy is not None:
            from repro.tenancy.coordinator import TenancyCoordinator

            self.tenancy = TenancyCoordinator(self, tenancy)

    def _on_broker_restart(self, broker: Broker) -> None:
        """Reload management modules on a broker that came back up.

        The reborn node agent starts with an empty ring buffer, so
        telemetry windows straddling the outage come back partial; the
        node manager re-installs the static cap and picks up dynamic
        limits at the cluster manager's next recompute.
        """
        if self.monitor is not None:
            self.monitor.reload_agent(broker.rank)
        if self.manager is not None:
            self.manager.reload_node_manager(broker.rank)

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.instance.sim

    @property
    def nodes(self):
        return self.instance.nodes

    def submit(self, spec: Jobspec, depends_on=None) -> Optional[JobRecord]:
        """Submit a job. With a tenancy coordinator attached the spec
        passes admission first and the return value may be None (queued
        or rejected — ``self.tenancy.last_decision`` says which)."""
        if self.tenancy is not None:
            return self.tenancy.submit(spec, depends_on=depends_on)
        return self.instance.submit(spec, depends_on=depends_on)

    def submit_at(self, spec: Jobspec, when: float) -> None:
        if self.tenancy is not None:
            # Route the deferred submission through admission too
            # (instance.submit_at would bypass the coordinator).
            self.sim.schedule_at(when, self.tenancy.submit, spec)
            return
        self.instance.submit_at(spec, when)

    def run_until_complete(self, timeout_s: float = 1e7) -> float:
        return self.instance.run_until_complete(timeout_s=timeout_s)

    def run_for(self, duration_s: float) -> float:
        return self.instance.run_for(duration_s)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self, jobid: int) -> JobMetrics:
        """Exact power/energy metrics for a completed job."""
        return job_metrics(self.instance.app_runs[jobid])

    def all_metrics(self) -> Dict[int, JobMetrics]:
        return {
            jid: job_metrics(run)
            for jid, run in self.instance.app_runs.items()
            if run.finished
        }

    def telemetry(self, jobid: int) -> JobPowerData:
        """Fetch the monitor client's CSV-backed job telemetry."""
        if self.monitor is None:
            raise RuntimeError("monitor not loaded on this cluster")
        return self.monitor.client.fetch(jobid)

    def makespan_s(self) -> Optional[float]:
        return self.instance.jobmanager.makespan_s()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def telemetry_hub(self) -> Telemetry:
        """The observability hub (metrics + traces + overhead accountant).

        Distinct from :meth:`telemetry`, which fetches a *job's* power
        samples through the monitor client, mirroring the production
        tool's naming.
        """
        return self.instance.telemetry

    def overhead_report(self) -> OverheadReport:
        """Paper-style overhead report (Section IV-D) for this run.

        Attributed monitor/manager seconds come from the overhead
        accountant; application node-seconds are derived from the job
        runs so the percentages share the same capacity denominator
        (elapsed time x cluster size) as the paper's.
        """
        acc = self.instance.telemetry.accountant
        app_node_s = 0.0
        for run in self.instance.app_runs.values():
            t_end = run.t_end if run.t_end is not None else self.sim.now
            app_node_s += max(0.0, t_end - run.t_start) * len(run.nodes)
        cats = {c: acc.seconds(c) for c in acc.categories()}
        cats["application"] = cats.get("application", 0.0) + app_node_s
        return OverheadReport(
            platform=self.instance.platform,
            elapsed_s=self.sim.now,
            n_nodes=self.instance.n_nodes,
            category_seconds=cats,
        )
