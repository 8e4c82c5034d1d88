"""Seeded load generation: deterministic query storms with real latency.

The harness separates *what is asked* from *how fast the server answers*:

* **Trace generation** is pure. ``generate_trace(seed, profile)`` draws
  an open-loop arrival process (exponential interarrivals, client
  assignment) and a weighted operation mix from dedicated
  ``serving/*`` RNG substreams, and emits a list of
  :class:`TracedRequest` — same seed, same profile → byte-identical
  trace (``trace_sha256`` pins this). Request payloads are generated
  *valid by construction*: jobids are issued sequentially by the job
  manager and submissions execute in trace order, so the generator
  always knows how many jobs exist and never targets a missing one —
  a clean run has zero errors by design, and any error is a finding.
* **Execution** replays the trace under asyncio with one task per
  simulated client. A turn ladder hands execution to the globally next
  sequence number, so however the event loop schedules the client
  tasks, requests hit the service in exactly trace order and the
  engine advances at fixed request-count intervals — responses are
  deterministic (``response_digest`` pins this) while per-request
  wall-clock latencies remain genuine measurements.

Latency methodology: each latency sample spans only the request's own
service time (the clock starts after the client wins its turn), p50 /
p95 / p99 are nearest-rank percentiles over all samples, and results
are emitted in the existing ``repro-bench/1`` schema so
``repro bench --compare`` can gate serving regressions like any other
benchmark.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.harness import BenchReport, BenchResult
from repro.simkernel.canonical import canonical
from repro.simkernel.rng import RandomStreams
from repro.serving.driver import SimDriver
from repro.serving.service import PowerService

#: Default operation mix: read-heavy with a thin write stream, the
#: shape of a production monitoring dashboard plus occasional submits.
#: Weights must sum to 1.
DEFAULT_OP_MIX: Tuple[Tuple[str, float], ...] = (
    ("cluster_power", 0.22),
    ("list_jobs", 0.20),
    ("get_job", 0.18),
    ("nodes", 0.10),
    ("queue", 0.10),
    ("job_output", 0.08),
    ("health", 0.04),
    ("batch_power", 0.03),
    ("submit_job", 0.05),
)

#: Op mix for tenancy-aware campaigns: the default dashboard shape with
#: a heavy ``/v1/accounting`` read stream carved out of the other reads.
#: DEFAULT_OP_MIX stays untouched — golden serving traces pin it.
ACCOUNTING_OP_MIX: Tuple[Tuple[str, float], ...] = (
    ("cluster_power", 0.18),
    ("list_jobs", 0.16),
    ("get_job", 0.14),
    ("accounting", 0.20),
    ("nodes", 0.08),
    ("queue", 0.08),
    ("job_output", 0.06),
    ("health", 0.04),
    ("batch_power", 0.02),
    ("submit_job", 0.04),
)

#: Open-loop arrival rate (requests per *virtual* second; shapes the
#: client interleaving, not the wall clock).
ARRIVAL_RATE_PER_S = 200.0
#: Probability a read asks for ``detailed`` instead of ``concise``.
DETAILED_FRACTION = 0.3

#: Apps the generator submits (portable on every platform).
SUBMIT_APPS: Tuple[str, ...] = ("gemm", "quicksilver", "lammps")


@dataclass(frozen=True)
class LoadProfile:
    """Knobs of one load campaign (see docs/serving.md)."""

    clients: int = 100
    requests_per_client: int = 4
    #: Jobs submitted (and partially run) before the storm, so read ops
    #: have something to read from request one.
    warmup_jobs: int = 4
    op_mix: Tuple[Tuple[str, float], ...] = DEFAULT_OP_MIX
    #: Advance the engine ``advance_dt_s`` simulated seconds after every
    #: N executed requests (0 freezes time for the whole storm).
    advance_every: int = 50
    advance_dt_s: float = 1.0
    cluster: str = "default"

    @property
    def total_requests(self) -> int:
        return self.clients * self.requests_per_client


@dataclass(frozen=True)
class TracedRequest:
    """One request of a generated trace (pure data, JSONL-stable)."""

    seq: int
    client: int
    t_arrival: float
    op: str
    method: str
    path: str
    params: Optional[Dict[str, Any]] = None
    body: Optional[Dict[str, Any]] = None

    def to_line(self) -> str:
        return json.dumps({
            "seq": self.seq,
            "client": self.client,
            "t_arrival": self.t_arrival,
            "op": self.op,
            "method": self.method,
            "path": self.path,
            "params": self.params,
            "body": self.body,
        }, sort_keys=True)


def trace_lines(trace: List[TracedRequest]) -> List[str]:
    return [req.to_line() for req in trace]


def trace_sha256(trace: List[TracedRequest]) -> str:
    blob = ("\n".join(trace_lines(trace)) + "\n").encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Trace generation (pure)
# ---------------------------------------------------------------------------


def generate_trace(seed: int, profile: LoadProfile,
                   n_nodes: int = 16) -> List[TracedRequest]:
    """Draw the full request trace for ``seed`` (same seed → same bytes).

    Three substreams keep the dimensions independent — reweighting the
    op mix never perturbs which client a request lands on:

    * ``serving/arrivals`` — interarrival gaps + client assignment;
    * ``serving/ops``      — operation choice;
    * ``serving/payload``  — parameters of the chosen operation.
    """
    if profile.clients < 1 or profile.requests_per_client < 1:
        raise ValueError("profile needs >= 1 client and >= 1 request each")
    total_weight = sum(w for _, w in profile.op_mix)
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError(f"op_mix weights must sum to 1, got {total_weight}")

    streams = RandomStreams(seed=seed)
    arrivals = streams.get("serving/arrivals")
    ops_rng = streams.get("serving/ops")
    payload = streams.get("serving/payload")

    cluster = profile.cluster
    known_jobs = profile.warmup_jobs
    trace: List[TracedRequest] = []
    t = 0.0
    for seq in range(profile.total_requests):
        t += float(arrivals.exponential(1.0 / ARRIVAL_RATE_PER_S))
        client = int(arrivals.integers(profile.clients))
        draw = float(ops_rng.random())
        op = profile.op_mix[-1][0]
        acc = 0.0
        for name, weight in profile.op_mix:
            acc += weight
            if draw < acc:
                op = name
                break
        if op in ("get_job", "job_output") and known_jobs == 0:
            op = "list_jobs"

        fmt = "detailed" if float(payload.random()) < DETAILED_FRACTION \
            else "concise"
        method, path = "GET", ""
        params: Optional[Dict[str, Any]] = None
        body: Optional[Dict[str, Any]] = None
        if op == "cluster_power":
            path = f"/v1/clusters/{cluster}/power"
        elif op == "list_jobs":
            params = {
                "response_format": fmt,
                "limit": int(payload.choice([2, 5, 10, 50])),
                "offset": 0,
            }
            path = f"/v1/clusters/{cluster}/jobs"
        elif op == "get_job":
            jobid = 1 + int(payload.integers(known_jobs))
            params = {"response_format": fmt}
            path = f"/v1/clusters/{cluster}/jobs/{jobid}"
        elif op == "nodes":
            params = {
                "response_format": fmt,
                "limit": int(payload.choice([4, 8, 16])),
                "offset": 0,
            }
            path = f"/v1/clusters/{cluster}/nodes"
        elif op == "queue":
            path = f"/v1/clusters/{cluster}/queue"
        elif op == "job_output":
            jobid = 1 + int(payload.integers(known_jobs))
            path = f"/v1/clusters/{cluster}/jobs/{jobid}/output"
        elif op == "health":
            path = "/v1/health"
        elif op == "batch_power":
            method = "POST"
            path = "/v1/batch"
            body = {"ops": [
                {"method": "GET", "path": f"/v1/clusters/{cluster}/power"},
                {"method": "GET", "path": f"/v1/clusters/{cluster}/queue"},
                {"method": "GET", "path": "/v1/health"},
            ]}
        elif op == "submit_job":
            method = "POST"
            path = f"/v1/clusters/{cluster}/jobs"
            body = {
                "app": str(payload.choice(list(SUBMIT_APPS))),
                "nnodes": 1 + int(payload.integers(min(4, n_nodes))),
                "params": {"work_scale": round(0.5 + float(payload.random()) * 0.5, 3)},
                "name": f"load-{seq}",
            }
            known_jobs += 1
        elif op == "accounting":
            params = {
                "response_format": fmt,
                "limit": int(payload.choice([2, 5, 10])),
                "offset": 0,
            }
            path = "/v1/accounting"
        else:
            raise ValueError(f"unknown op in mix: {op!r}")
        trace.append(TracedRequest(
            seq=seq, client=client, t_arrival=round(t, 6), op=op,
            method=method, path=path, params=params, body=body,
        ))
    return trace


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class LoadtestResult:
    """Outcome of one executed trace."""

    n_requests: int
    errors: int
    status_counts: Dict[str, int]
    op_counts: Dict[str, int]
    #: Sorted wall-clock per-request latencies (seconds).
    latencies_s: List[float]
    wall_s: float
    trace_sha256: str
    response_digest: str
    mode: str
    clients: int
    seed: int

    def percentile_ms(self, p: float) -> float:
        """Nearest-rank percentile over the latency samples, in ms."""
        if not self.latencies_s:
            return 0.0
        rank = min(len(self.latencies_s),
                   max(1, math.ceil(p / 100.0 * len(self.latencies_s))))
        return self.latencies_s[rank - 1] * 1e3

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p95_ms(self) -> float:
        return self.percentile_ms(95)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    @property
    def requests_per_s(self) -> float:
        return self.n_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.n_requests if self.n_requests else 0.0

    def to_report(self, name: str = "serving", quick: bool = False) -> BenchReport:
        """Wrap the campaign in the ``repro-bench/1`` schema."""
        params = {"clients": self.clients, "seed": self.seed, "mode": self.mode,
                  "requests": self.n_requests}
        report = BenchReport(
            name=name, quick=quick, created_unix=int(time.time()), repeats=1
        )
        report.results = [
            BenchResult("loadtest", "requests_per_s", self.requests_per_s,
                        self.wall_s, dict(params)),
            BenchResult("loadtest", "latency_p50_ms", self.p50_ms,
                        self.wall_s, dict(params)),
            BenchResult("loadtest", "latency_p95_ms", self.p95_ms,
                        self.wall_s, dict(params)),
            BenchResult("loadtest", "latency_p99_ms", self.p99_ms,
                        self.wall_s, dict(params)),
            BenchResult("loadtest", "errors", float(self.errors),
                        self.wall_s, dict(params)),
        ]
        return report

    def summary(self) -> str:
        return (
            f"{self.n_requests} requests / {self.clients} clients "
            f"({self.mode}): {self.requests_per_s:.0f} req/s, "
            f"p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms, errors={self.errors} "
            f"({self.error_rate * 100:.2f}%)"
        )


def _response_digest(responses: List[Tuple[int, Dict[str, Any]]]) -> str:
    digest = hashlib.sha256()
    for seq, (status, body) in enumerate(responses):
        line = json.dumps(
            {"seq": seq, "status": status, "body": canonical(body)},
            sort_keys=True,
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


async def _execute_ordered(
    trace: List[TracedRequest],
    execute: Callable,
    after_request: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Tuple[int, Dict[str, Any]]], List[float]]:
    """Replay the trace: one task per client, a turn ladder for order.

    Every client's requests carry globally increasing sequence numbers,
    so the holder of the next turn is always a task whose earlier
    requests have completed — the ladder cannot deadlock, and requests
    execute in exactly trace order regardless of event-loop scheduling.
    """
    n = len(trace)
    turns = [asyncio.Event() for _ in range(n + 1)]
    turns[0].set()
    responses: List[Optional[Tuple[int, Dict[str, Any]]]] = [None] * n
    latencies: List[float] = [0.0] * n

    by_client: Dict[int, List[TracedRequest]] = {}
    for req in trace:
        by_client.setdefault(req.client, []).append(req)

    async def _client(requests: List[TracedRequest]) -> None:
        for req in requests:
            await turns[req.seq].wait()
            t0 = time.perf_counter()
            responses[req.seq] = await execute(req)
            latencies[req.seq] = time.perf_counter() - t0
            if after_request is not None:
                after_request(req.seq)
            turns[req.seq + 1].set()

    await asyncio.gather(*(_client(reqs) for reqs in by_client.values()))
    return [r for r in responses if r is not None], latencies


def run_loadtest(
    seed: int,
    profile: LoadProfile,
    service: PowerService,
    driver: SimDriver,
    trace: Optional[List[TracedRequest]] = None,
) -> LoadtestResult:
    """Generate (unless given) and execute a trace in-process.

    Warmup jobs are submitted and given a few simulated seconds before
    the storm so list/get/output reads land on real state; then the
    trace replays under the turn ladder with the engine advancing every
    ``profile.advance_every`` requests. Everything a response can
    contain is a function of (seed, profile, cluster construction), so
    ``response_digest`` is stable across runs.
    """
    backend = service.registry.resolve(profile.cluster)
    if trace is None:
        trace = generate_trace(seed, profile, n_nodes=backend.n_nodes)

    for i in range(profile.warmup_jobs):
        response = service.handle(
            "POST", f"/v1/clusters/{profile.cluster}/jobs",
            body={"app": "gemm", "nnodes": 1,
                  "params": {"work_scale": 0.5}, "name": f"warmup-{i}"},
        )
        if response.status != 201:
            raise RuntimeError(f"warmup submit failed: {response.body}")
    if profile.warmup_jobs:
        driver.advance(4.0)

    async def _execute(req: TracedRequest) -> Tuple[int, Dict[str, Any]]:
        response = service.handle(req.method, req.path, req.params, req.body)
        return response.status, response.body

    def _after(seq: int) -> None:
        if profile.advance_every and (seq + 1) % profile.advance_every == 0:
            driver.advance(profile.advance_dt_s)

    t0 = time.perf_counter()
    responses, latencies = asyncio.run(_execute_ordered(trace, _execute, _after))
    wall_s = time.perf_counter() - t0
    return _collect(trace, responses, latencies, wall_s, "inproc", profile, seed)


async def arun_loadtest_http(
    seed: int,
    profile: LoadProfile,
    host: str,
    port: int,
    trace: Optional[List[TracedRequest]] = None,
    n_nodes: int = 16,
    warmup: bool = True,
) -> LoadtestResult:
    """Execute a trace against a live HTTP endpoint (one socket/client).

    The server's dispatcher serializes requests; the turn ladder here
    additionally fixes *which order they arrive in*, so an idle-engine
    server (no advance loop) yields the same responses as in-process
    execution with ``advance_every=0``. Awaitable so a caller can run
    the server and the storm on one event loop.
    """
    from repro.serving.http import AsyncApiClient

    if trace is None:
        trace = generate_trace(seed, profile, n_nodes=n_nodes)

    if warmup:
        warm = AsyncApiClient(host, port)
        for i in range(profile.warmup_jobs):
            status, body = await warm.request(
                "POST", f"/v1/clusters/{profile.cluster}/jobs",
                body={"app": "gemm", "nnodes": 1,
                      "params": {"work_scale": 0.5}, "name": f"warmup-{i}"},
            )
            if status != 201:
                raise RuntimeError(f"warmup submit failed: {body}")
        await warm.close()
    clients: Dict[int, AsyncApiClient] = {}

    async def _execute(req: TracedRequest) -> Tuple[int, Dict[str, Any]]:
        conn = clients.get(req.client)
        if conn is None:
            conn = clients[req.client] = AsyncApiClient(host, port)
        return await conn.request(req.method, req.path, req.params, req.body)

    t0 = time.perf_counter()
    responses, latencies = await _execute_ordered(trace, _execute)
    wall_s = time.perf_counter() - t0
    for conn in clients.values():
        await conn.close()
    return _collect(trace, responses, latencies, wall_s, "http", profile, seed)


def run_loadtest_http(
    seed: int,
    profile: LoadProfile,
    host: str,
    port: int,
    trace: Optional[List[TracedRequest]] = None,
    n_nodes: int = 16,
    warmup: bool = True,
) -> LoadtestResult:
    """Sync wrapper over :func:`arun_loadtest_http` (own event loop)."""
    return asyncio.run(arun_loadtest_http(
        seed, profile, host, port, trace=trace, n_nodes=n_nodes, warmup=warmup,
    ))


def _collect(
    trace: List[TracedRequest],
    responses: List[Tuple[int, Dict[str, Any]]],
    latencies: List[float],
    wall_s: float,
    mode: str,
    profile: LoadProfile,
    seed: int,
) -> LoadtestResult:
    status_counts: Dict[str, int] = {}
    op_counts: Dict[str, int] = {}
    errors = 0
    for req, (status, _body) in zip(trace, responses):
        status_counts[str(status)] = status_counts.get(str(status), 0) + 1
        op_counts[req.op] = op_counts.get(req.op, 0) + 1
        if status >= 400:
            errors += 1
    return LoadtestResult(
        n_requests=len(trace),
        errors=errors,
        status_counts=dict(sorted(status_counts.items())),
        op_counts=dict(sorted(op_counts.items())),
        latencies_s=sorted(latencies),
        wall_s=wall_s,
        trace_sha256=trace_sha256(trace),
        response_digest=_response_digest(responses),
        mode=mode,
        clients=profile.clients,
        seed=seed,
    )
