"""FluxInstance: bootstrap brokers + modules over simulated hardware.

The instance is the analogue of ``flux start`` across an allocation: it
builds one hardware node and one broker per rank, wires them into a
TBON, loads the KVS and job manager on rank 0, and provides submit/run.
Power-management modules (monitor/manager) are loaded on top with
:meth:`FluxInstance.load_module_on_all` / ``load_module_on_root`` —
mirroring ``flux module load`` on a production system.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.apps.registry import get_profile
from repro.apps.run import AppRun
from repro.flux.broker import Broker
from repro.flux.jobmanager import JobManager
from repro.flux.jobspec import JobRecord, Jobspec
from repro.flux.kvs import KVSModule
from repro.flux.module import Module
from repro.flux.overlay import TBON
from repro.flux.scheduler import Scheduler
from repro.hardware.noise import JitterModel
from repro.hardware.node import Node
from repro.hardware.platforms import NVML_PLATFORMS, make_node
from repro.simkernel import RandomStreams, Simulator
from repro.telemetry import Telemetry, telemetry_of


class FluxInstance:
    """A simulated Flux instance over ``n_nodes`` nodes of one platform.

    Parameters
    ----------
    platform:
        ``"lassen"``, ``"tioga"`` or ``"generic"``.
    n_nodes:
        Instance size (brokers = nodes).
    seed:
        Root seed for every stochastic element (TBON latency jitter,
        run-to-run variability, NVML failures).
    fanout:
        TBON arity.
    enable_jitter:
        Turn the run-to-run variability model on (Fig 3/4 experiments);
        off by default so calibration experiments are noise-free.
    nvml_failure_rate:
        Probability of a misbehaving NVML cap request per call (NVML
        platforms only; AMD nodes have no NVML).
    telemetry_enabled:
        When False, the observability hub (:mod:`repro.telemetry`)
        records nothing. Recording is a pure observer either way, so
        simulated results are byte-identical on/off.
    """

    def __init__(
        self,
        platform: str = "lassen",
        n_nodes: int = 8,
        seed: int = 0,
        fanout: int = 2,
        enable_jitter: bool = False,
        nvml_failure_rate: float = 0.0,
        nodes: Optional[List[Node]] = None,
        sim: Optional[Simulator] = None,
        scheduler_factory: Optional[Callable[[int], Scheduler]] = None,
        telemetry_enabled: bool = True,
        hostname_prefix: Optional[str] = None,
    ) -> None:
        """``nodes``/``sim`` may be supplied to bootstrap this instance
        over existing hardware inside a running simulation — the
        user-level (nested) instance case; see
        :mod:`repro.flux.user_instance`. ``hostname_prefix`` overrides
        the platform name in generated hostnames, so several sibling
        instances of one platform (a federated site) stay
        distinguishable in telemetry CSVs; None keeps the historical
        ``<platform><rank>`` naming byte-identical."""
        self.platform = platform
        self.sim = sim if sim is not None else Simulator()
        #: The shared observability hub (nested instances on the same
        #: simulator share it). Disabling is one-way here so a nested
        #: instance's default True never re-enables a disabled parent.
        self.telemetry: Telemetry = telemetry_of(self.sim)
        if not telemetry_enabled:
            self.telemetry.enabled = False
        self.streams = RandomStreams(seed=seed)

        if nodes is not None:
            self.nodes = list(nodes)
            self.n_nodes = len(self.nodes)
        else:
            name_stem = hostname_prefix if hostname_prefix is not None else platform
            self.n_nodes = int(n_nodes)
            nvml = (
                {"nvml_failure_rate": nvml_failure_rate}
                if platform in NVML_PLATFORMS
                else {}
            )
            self.nodes = [
                make_node(
                    platform,
                    f"{name_stem}{i:03d}",
                    rng=self.streams.get(f"node/{i}"),
                    **nvml,
                )
                for i in range(self.n_nodes)
            ]
        self.overlay = TBON(
            self.n_nodes, fanout=fanout, rng=self.streams.get("tbon/latency")
        )
        registry: Dict[int, Broker] = {}
        #: Crashed ranks, shared with every broker so routing sees node
        #: death instantly; mutated only by the fault injector.
        self.down_ranks: Set[int] = set()
        self.brokers: List[Broker] = [
            Broker(
                self.sim,
                rank,
                self.overlay,
                node=self.nodes[rank],
                registry=registry,
                down_ranks=self.down_ranks,
            )
            for rank in range(self.n_nodes)
        ]

        self.kvs = KVSModule(self.brokers[0])
        self.brokers[0].load_module(self.kvs)
        self.scheduler = (
            scheduler_factory(self.n_nodes)
            if scheduler_factory is not None
            else Scheduler(self.n_nodes)
        )
        self.jobmanager = JobManager(
            self.brokers[0], self.scheduler, executor=self._execute, kvs=self.kvs
        )
        self.brokers[0].load_module(self.jobmanager)

        self.jitter_model = JitterModel(
            rng=self.streams.get("jitter") if enable_jitter else None
        )
        self.app_runs: Dict[int, AppRun] = {}
        self._nested_done: Dict[int, Callable[[int], None]] = {}
        self._rank_of_node: Dict[int, int] = {
            id(node): rank for rank, node in enumerate(self.nodes)
        }

    # ------------------------------------------------------------------
    # Module loading
    # ------------------------------------------------------------------
    def load_module_on_all(
        self, factory: Callable[[Broker], Module]
    ) -> List[Module]:
        """Load a module instance on every broker (e.g. node agents)."""
        modules = []
        for broker in self.brokers:
            module = factory(broker)
            broker.load_module(module)
            modules.append(module)
        return modules

    def load_module_on_root(self, factory: Callable[[Broker], Module]) -> Module:
        """Load a module on rank 0 only (e.g. root agents)."""
        module = factory(self.brokers[0])
        self.brokers[0].load_module(module)
        return module

    def unload_module_everywhere(self, name: str) -> None:
        for broker in self.brokers:
            if name in broker.modules:
                broker.unload_module(name)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit(
        self, spec: Jobspec, depends_on: Optional[List[int]] = None
    ) -> JobRecord:
        """Submit a job (optionally dependent on earlier jobids)."""
        return self.jobmanager.submit(spec, depends_on=depends_on)

    def submit_at(self, spec: Jobspec, when: float) -> None:
        """Schedule a submission at a future simulated time."""
        self.sim.schedule_at(when, lambda: self.jobmanager.submit(spec))

    def _execute(self, record: JobRecord, done: Callable[[int], None]) -> None:
        if record.spec.app == "flux-instance":
            # A nested (user-level) Flux instance occupies this
            # allocation; it finishes when the owner closes it (see
            # repro.flux.user_instance.UserInstance.close).
            self._nested_done[record.jobid] = done
            return
        profile = get_profile(record.spec.app)
        nodes = [self.nodes[r] for r in record.ranks]
        work_scale = float(record.spec.params.get("work_scale", 1.0))
        jitter = self.jitter_model.runtime_factor(
            self.platform, record.spec.app, record.spec.nnodes
        )
        fail_at = record.spec.params.get("fail_at_s")
        run = AppRun(
            self.sim,
            record,
            nodes,
            profile,
            work_scale=work_scale,
            jitter_factor=jitter,
            overhead_fn=self._telemetry_overhead,
            on_done=done,
            on_fail=self.jobmanager.job_failed,
            fail_at_progress_s=float(fail_at) if fail_at is not None else None,
        )
        self.app_runs[record.jobid] = run

    def _telemetry_overhead(self, node: Node) -> float:
        """Sum of overhead fractions imposed by modules on this node's broker."""
        rank = self._rank_of_node[id(node)]
        total = 0.0
        for module in self.brokers[rank].modules.values():
            total += float(getattr(module, "node_overhead_fraction", 0.0))
        return total

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> float:
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def run_until_complete(
        self, timeout_s: float = 1e7, max_events: int = 100_000_000
    ) -> float:
        """Run until every submitted job reaches a terminal state.

        Periodic modules (telemetry sampling) keep the event heap
        non-empty forever, so this steps the engine while polling the
        job manager rather than draining the heap.
        """
        deadline = self.sim.now + timeout_s
        count = 0
        while not self.jobmanager.all_complete():
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

    def finish_nested(self, jobid: int) -> None:
        """Complete a ``flux-instance`` pseudo-job (nested instance exit)."""
        done = self._nested_done.pop(jobid, None)
        if done is None:
            raise KeyError(f"job {jobid} is not a running nested instance")
        done(jobid)
