"""The three benchmark workloads, built only from the repro public API.

Each workload turns ``--seed`` into its inputs, builds the system
(:meth:`setup`), runs a timed window of work (:meth:`run`) and checks
the outputs as it goes. An *operation* is the unit the latency metrics
time:

* ``telemetry_10k`` — one ``GET_JOB_POWER`` query, from ``rpc()`` until
  its future triggers;
* ``fpp_site`` — one simulated second of the federated site;
* ``serve_tenants`` — one HTTP request, as its client sees it.

The work of a window is fixed by ``scale`` (``--seconds / 10``, at most
1), never by the clock, so the simulated outcome — event count, digest,
hub counters — depends on the seed and the scale alone.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Seconds of ``--seconds`` the default work sizes are meant to fill.
REFERENCE_SECONDS = 10.0


@dataclass
class Window:
    """What one timed window produced."""

    window_s: float
    #: Simulated node-seconds advanced during the window.
    node_sim_s: float
    #: Host seconds of each timed operation.
    op_s: List[float]
    attempted: int
    failed: int
    events: int
    digest: str
    #: Failure descriptions (at most a few are kept).
    problems: List[str] = field(default_factory=list)
    #: Operation kind per entry of ``op_s`` (serving only).
    op_kinds: List[str] = field(default_factory=list)
    #: ``time.perf_counter()`` at the start of the window.
    t_start: float = 0.0
    #: Simulated outcome: events, digest and hub counters.
    outcome: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# telemetry_10k
# ---------------------------------------------------------------------------


class Telemetry10k:
    """10,000-node El Capitan instance answering per-job power queries."""

    name = "telemetry_10k"
    N_NODES = 10_000
    FANOUT = 32
    JOB_RANKS = 64
    QUERY_WINDOW_S = 30.0
    WARMUP_S = 30.0
    BUFFER_CAPACITY = 64
    #: Samples each node must return: the 1 Hz ticks inside the window.
    EXPECTED_SAMPLES = 30

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.n_queries = max(1, round(1000 * scale))
        rng = np.random.default_rng([seed, 10_000])
        #: First rank of each query's 64-rank job slice.
        self.slices = rng.integers(
            0, self.N_NODES - self.JOB_RANKS + 1, size=self.n_queries
        ).tolist()

    def setup(self):
        from repro.flux.instance import FluxInstance
        from repro.monitor import module as monitor_module

        inst = FluxInstance(
            platform="elcapitan", n_nodes=self.N_NODES, seed=self.seed,
            fanout=self.FANOUT,
        )
        monitor_module.attach_monitor(
            inst, sample_interval_s=1.0,
            buffer_capacity=self.BUFFER_CAPACITY, columnar=True,
        )
        inst.run_for(self.WARMUP_S)
        return inst

    def sim_of(self, inst):
        return inst.sim

    def run(self, inst) -> Window:
        from repro.flux.message import FluxRPCError
        from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

        sim = inst.sim
        broker0 = inst.brokers[0]
        digest = hashlib.sha256()
        lat: List[float] = []
        events0 = sim.events_processed
        sim0 = sim.now
        win = Window(0.0, 0.0, lat, self.n_queries, 0, 0, "")
        clock = time.perf_counter
        t_start = win.t_start = clock()
        for k, lo in enumerate(self.slices):
            # Half a second past tick k+30: the trailing 30 s window then
            # holds exactly 30 samples whatever the RPC latency was.
            inst.run_for(self.WARMUP_S + 0.5 + k - sim.now)
            now = sim.now
            t0 = clock()
            fut = broker0.rpc(0, GET_JOB_POWER_TOPIC, {
                "ranks": list(range(lo, lo + self.JOB_RANKS)),
                "t_start": now - self.QUERY_WINDOW_S,
                "t_end": now,
            })
            while not fut.triggered:
                if not sim.step():
                    break
            lat.append(clock() - t0)
            if not fut.triggered:
                win.fail(f"query {k}: no response")
                continue
            try:
                nodes = fut.value["nodes"]
            except FluxRPCError as exc:
                win.fail(f"query {k}: {exc}")
                continue
            bad = len(nodes) != self.JOB_RANKS
            for node in nodes:
                samples = node["samples"]
                if (node.get("error") or not node["complete"]
                        or len(samples) != self.EXPECTED_SAMPLES):
                    bad = True
                    break
                last = samples[-1]
                digest.update(
                    f"{node['hostname']},{last['timestamp']},"
                    f"{last['power_node_watts']};".encode()
                )
            if bad:
                win.fail(f"query {k}: missing or partial data")
        win.window_s = clock() - t_start
        win.node_sim_s = self.N_NODES * (sim.now - sim0)
        win.events = sim.events_processed - events0
        win.digest = digest.hexdigest()
        return win

    def teardown(self, inst) -> None:
        pass


# ---------------------------------------------------------------------------
# fpp_site
# ---------------------------------------------------------------------------


class FppSite:
    """Two 64-node Lassen clusters under FPP, one federated site budget."""

    name = "fpp_site"
    CLUSTERS = ("lassen-a", "lassen-b")
    NODES_PER_CLUSTER = 64
    SITE_W_PER_NODE = 1200.0
    STATIC_NODE_CAP_W = 1950.0
    WARMUP_S = 90.0
    ARRIVAL_SPAN_S = 600.0
    #: Simulated seconds timed after the last arrival slot.
    TAIL_S = 300.0
    #: Simulated-time guard: the queue drains in well under this.
    HORIZON_S = 20_000.0

    def __init__(self, seed: int, scale: float) -> None:
        from repro.apps.workloads import PAPER_QUEUE_MIX
        from repro.experiments.queue_campaign import QUEUE_WORK_SCALES

        self.seed = seed
        n_jobs = max(1, round(20 * scale))
        rng = np.random.default_rng([seed, 20])
        # The paper's 3/2/3/2 app mix, repeated, with node counts cycling
        # over 1..16: every seed submits the same 20 (app, size) jobs.
        # The seed moves the submission order and each arrival inside
        # its 600 s / n_jobs slot; clusters alternate along the order.
        # Seeds then differ in timing, not in the amount of work.
        apps = [a for a in sorted(PAPER_QUEUE_MIX) for _ in range(PAPER_QUEUE_MIX[a])]
        apps = [apps[i % len(apps)] for i in range(n_jobs)]
        sizes = [1 + (i * 7) % 16 for i in range(n_jobs)]
        order = rng.permutation(n_jobs).tolist()
        slot = self.ARRIVAL_SPAN_S * scale / n_jobs
        #: (cluster, app, nnodes, work_scale, arrival time) per job.
        self.jobs: List[Tuple[str, str, int, float, float]] = []
        for pos, i in enumerate(order):
            self.jobs.append((
                self.CLUSTERS[pos % len(self.CLUSTERS)],
                apps[i],
                sizes[i],
                QUEUE_WORK_SCALES.get(apps[i], 1.0),
                self.WARMUP_S + slot * (pos + float(rng.random())),
            ))
        #: Simulated seconds the window times: the arrivals plus a tail.
        self.window_steps = round((self.ARRIVAL_SPAN_S + self.TAIL_S) * scale)

    def setup(self):
        from repro.federation import ClusterSpec, SiteConfig, create_site
        from repro.flux.jobspec import Jobspec

        n_total = self.NODES_PER_CLUSTER * len(self.CLUSTERS)
        config = SiteConfig(
            site_budget_w=self.SITE_W_PER_NODE * n_total,
            clusters=tuple(
                ClusterSpec(
                    name=name, platform="lassen",
                    n_nodes=self.NODES_PER_CLUSTER, policy="fpp",
                    static_node_cap_w=self.STATIC_NODE_CAP_W,
                )
                for name in self.CLUSTERS
            ),
        )
        site = create_site(config, seed=self.seed)
        for i, (cluster, app, nnodes, work_scale, when) in enumerate(self.jobs):
            site.submit_at(cluster, Jobspec(
                app=app, nnodes=nnodes, params={"work_scale": work_scale},
                name=f"{app}-{i}",
            ), when)
        site.run_for(self.WARMUP_S)
        return site

    def sim_of(self, site):
        return site.sim

    def run(self, site) -> Window:
        sim = site.sim
        steps: List[float] = []
        events0 = sim.events_processed
        sim0 = sim.now
        win = Window(0.0, 0.0, steps, len(self.jobs), 0, 0, "")
        clock = time.perf_counter
        t_start = win.t_start = clock()
        for _ in range(self.window_steps):
            t0 = clock()
            site.run_for(1.0)
            steps.append(clock() - t0)
        win.window_s = clock() - t_start
        n_nodes = self.NODES_PER_CLUSTER * len(self.CLUSTERS)
        win.node_sim_s = n_nodes * (sim.now - sim0)
        win.events = sim.events_processed - events0
        # A fixed simulated span is timed, so seeds whose queue ends
        # later do not add a cheap idle tail; the rest drains untimed
        # and the completion check still covers every job.
        while not site.all_complete() and sim.now < self.HORIZON_S:
            site.run_for(1.0)
        for name, cluster in sorted(site.clusters.items()):
            for record in cluster.instance.jobmanager.jobs.values():
                if record.state.value != "completed":
                    win.fail(f"{name} job {record.jobid} ended {record.state.value}")
        n_jobs = sum(len(c.instance.jobmanager.jobs) for c in site.clusters.values())
        if n_jobs != len(self.jobs):
            win.fail(f"{n_jobs} jobs materialised, expected {len(self.jobs)}",
                     count=len(self.jobs) - n_jobs)
        win.digest = site.site_digest()
        return win

    def teardown(self, site) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_tenants
# ---------------------------------------------------------------------------


def _canonical(obj: Any) -> Any:
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


class ServeTenants:
    """Loopback HTTP server over a tenant-aware 64-node cluster."""

    name = "serve_tenants"
    N_NODES = 64
    CLIENTS = 2
    ADVANCE_EVERY = 50
    ADVANCE_DT_S = 1.0
    WARMUP_JOBS = 4
    WARMUP_REQUESTS = 1000
    PROJECTS = (("astro", 4.0), ("bio", 2.0), ("ml", 1.0))
    USERS = (("alice", "astro"), ("amar", "astro"), ("bo", "bio"), ("mei", "ml"))
    ADMIT_NODE_W = 500.0
    GLOBAL_CAP_W_PER_NODE = 1200.0

    def __init__(self, seed: int, scale: float) -> None:
        from repro.serving.loadgen import ACCOUNTING_OP_MIX, LoadProfile, generate_trace

        self.seed = seed
        self.n_timed = max(self.ADVANCE_EVERY, round(10_000 * scale))
        total = self.WARMUP_REQUESTS + self.n_timed
        profile = LoadProfile(
            clients=self.CLIENTS,
            requests_per_client=(total + self.CLIENTS - 1) // self.CLIENTS,
            warmup_jobs=self.WARMUP_JOBS,
            op_mix=ACCOUNTING_OP_MIX,
            advance_every=self.ADVANCE_EVERY,
            advance_dt_s=self.ADVANCE_DT_S,
        )
        trace = generate_trace(seed, profile, n_nodes=self.N_NODES)[:total]
        users = np.random.default_rng([seed, 64]).integers(
            len(self.USERS), size=total
        ).tolist()
        #: (op, method, path, params, body) per request, warm-up first.
        self.requests: List[Tuple[str, str, str, Optional[dict], Optional[dict]]] = []
        demand_nodes = self.WARMUP_JOBS
        for req, user in zip(trace, users):
            body = req.body
            if req.op == "submit_job":
                body = dict(body, user=self.USERS[user][0])
                demand_nodes += body["nnodes"]
            self.requests.append((req.op, req.method, req.path, req.params, body))
        #: Admission capacity that holds every submission of the run:
        #: each seeded submit is admitted (201), so the job ids the trace
        #: generator assumed are the ids the server hands out.
        self.demand_w = demand_nodes * self.ADMIT_NODE_W

    # -- build ------------------------------------------------------------
    def setup(self):
        from repro.cluster import PowerManagedCluster
        from repro.manager.cluster_manager import ManagerConfig
        from repro.serving import ClusterRegistry, PowerService, ServingServer, SimDriver
        from repro.serving.http import AsyncApiClient
        from repro.tenancy import (
            AdmissionConfig, TenancyConfig, TenantDirectory,
        )

        budget_w = self.GLOBAL_CAP_W_PER_NODE * self.N_NODES
        cluster = PowerManagedCluster(
            platform="lassen", n_nodes=self.N_NODES, seed=self.seed,
            manager_config=ManagerConfig(
                global_cap_w=budget_w, policy="proportional",
                static_node_cap_w=1950.0,
            ),
            tenancy=TenancyConfig(
                directory=TenantDirectory.build(
                    projects=self.PROJECTS, users=self.USERS,
                ),
                accounting_interval_s=5.0,
                admission=AdmissionConfig(
                    budget_w=budget_w, admit_node_w=self.ADMIT_NODE_W,
                    oversubscription=max(1.0, self.demand_w / budget_w),
                ),
            ),
        )
        registry = ClusterRegistry.from_cluster(cluster)
        driver = SimDriver(registry)
        world = _ServeWorld(
            loop=asyncio.new_event_loop(),
            cluster=cluster,
            driver=driver,
            server=ServingServer(PowerService(registry), driver),
        )
        loop = world.loop
        loop.run_until_complete(world.server.start())
        world.conns = [
            AsyncApiClient(world.server.host, world.server.port)
            for _ in range(self.CLIENTS)
        ]
        for i in range(self.WARMUP_JOBS):
            status, body = loop.run_until_complete(world.conns[0].request(
                "POST", "/v1/clusters/default/jobs",
                body={"app": "gemm", "nnodes": 1, "params": {"work_scale": 0.5},
                      "name": f"warmup-{i}", "user": self.USERS[i][0]},
            ))
            if status != 201:
                raise RuntimeError(f"warm-up submit failed: {status} {body}")
        world.driver.advance(4.0)
        warm = loop.run_until_complete(
            self._closed_loop(world, 0, self.WARMUP_REQUESTS)
        )
        if warm.failed:
            raise RuntimeError(f"warm-up requests failed: {warm.problems}")
        return world

    def sim_of(self, world):
        return world.cluster.sim

    # -- the closed loop --------------------------------------------------
    async def _closed_loop(self, world: "_ServeWorld", lo: int, hi: int) -> Window:
        """Send requests ``lo..hi-1`` over the connections, closed loop.

        Each connection sends its next request when its previous reply
        has arrived. Reads between two writes may overlap, in either
        order, because no read changes what another read returns. A
        submit, and the engine advance before every 50th request, start
        only when no request is in flight, and nothing starts while a
        submit is in flight, so every response is a function of the
        seed alone.
        """
        reqs = self.requests
        n = hi - lo
        op_s: List[float] = [0.0] * n
        kinds: List[str] = [op for op, *_ in reqs[lo:hi]]
        replies: List[Tuple[int, dict]] = [(0, {})] * n
        win = Window(0.0, 0.0, op_s, n, 0, 0, "", op_kinds=kinds)
        cond = asyncio.Condition()
        state = {"next": lo, "in_flight": 0, "writing": False}
        clock = time.perf_counter

        async def client(conn) -> None:
            while True:
                async with cond:
                    while True:
                        seq = state["next"]
                        if seq >= hi:
                            return
                        is_write = kinds[seq - lo] == "submit_job"
                        advance_due = seq > 0 and seq % self.ADVANCE_EVERY == 0
                        if state["writing"] or (
                            (is_write or advance_due) and state["in_flight"]
                        ):
                            await cond.wait()
                            continue
                        break
                    if advance_due:
                        world.driver.advance(self.ADVANCE_DT_S)
                    state["next"] = seq + 1
                    state["in_flight"] += 1
                    state["writing"] = is_write
                _op, method, path, params, body = reqs[seq]
                t0 = clock()
                status, resp = await conn.request(method, path, params, body)
                op_s[seq - lo] = clock() - t0
                replies[seq - lo] = (status, resp)
                async with cond:
                    state["in_flight"] -= 1
                    state["writing"] = False
                    cond.notify_all()

        t_start = win.t_start = clock()
        await asyncio.gather(*(client(c) for c in world.conns))
        win.window_s = clock() - t_start
        digest = hashlib.sha256()
        for seq, (status, resp) in enumerate(replies, start=lo):
            expected = 201 if kinds[seq - lo] == "submit_job" else 200
            if status != expected:
                win.fail(f"request {seq} {kinds[seq - lo]}: status {status}")
            digest.update(json.dumps(
                {"seq": seq, "status": status, "body": _canonical(resp)},
                sort_keys=True,
            ).encode())
        win.digest = digest.hexdigest()
        return win

    def run(self, world) -> Window:
        sim = world.cluster.sim
        events0 = sim.events_processed
        sim0 = sim.now
        hi = self.WARMUP_REQUESTS + self.n_timed
        win = world.loop.run_until_complete(
            self._closed_loop(world, self.WARMUP_REQUESTS, hi)
        )
        win.node_sim_s = self.N_NODES * (sim.now - sim0)
        win.events = sim.events_processed - events0
        return win

    def teardown(self, world) -> None:
        loop = world.loop

        async def _close() -> None:
            for conn in world.conns:
                await conn.close()
            await world.server.stop()
            # The server's connection handlers end on the clients' EOF.
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=10.0)

        loop.run_until_complete(_close())
        loop.close()


@dataclass
class _ServeWorld:
    loop: asyncio.AbstractEventLoop
    cluster: Any
    driver: Any
    server: Any
    conns: List[Any] = field(default_factory=list)


WORKLOADS = {w.name: w for w in (Telemetry10k, FppSite, ServeTenants)}
