"""The power-management API: a synchronous, transport-free core.

:class:`PowerService` is the whole API surface in one object with one
entry point — ``handle(method, path, params, body)`` → an
:class:`ApiResponse`. It is deliberately synchronous and
transport-free: the asyncio HTTP shell (:mod:`repro.serving.http`),
the in-process client (:mod:`repro.serving.client`), the load
generator and the simtest injector all call the *same* ``handle``, so
every test of the core covers every transport.

Contract: ``handle`` never raises and never steps the simulator.
Errors come back as structured JSON
(``{"error": {"code", "message"}}``) with a 4xx status — a malformed
request is a client outcome, not a server traceback — and an
unexpected exception is converted to a 500 envelope and counted on
``serving_errors_total``. Reads are served from cached
:class:`~repro.serving.snapshot.PowerSnapshot` columns and the job
manager's own books; writes (submit/cancel) mutate model state through
the same public calls a driver script would use, which schedule
simulator work but never run it — advancing time is the exclusive job
of the :class:`~repro.serving.driver.SimDriver`.

Endpoint catalog, response formats and pagination semantics are
documented in docs/serving.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.registry import list_apps
from repro.flux.jobspec import JobRecord, Jobspec, JobState
from repro.serving.registry import ClusterBackend, ClusterRegistry
from repro.serving.snapshot import SnapshotCache
from repro.telemetry import telemetry_of

#: Pagination bounds: the default keeps a list call one small JSON page;
#: the ceiling keeps a single response bounded no matter what a client
#: asks for.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Batch ceiling (ops per POST /v1/batch).
MAX_BATCH_OPS = 256

#: ``concise`` is a strict subset of ``detailed`` — the property tests
#: pin this projection relation, so extend DETAILED first.
CONCISE_JOB_FIELDS = ("jobid", "state", "app", "nnodes")
DETAILED_JOB_FIELDS = CONCISE_JOB_FIELDS + (
    "name",
    "user",
    "launcher",
    "ranks",
    "t_submit",
    "t_start",
    "t_end",
    "runtime_s",
    "job_limit_w",
    "node_limit_w",
)

#: Accounting views (``/v1/accounting``): same concise ⊂ detailed
#: projection contract as job views.
CONCISE_ACCOUNTING_FIELDS = (
    "cluster",
    "project",
    "weight",
    "effective_weight",
    "active_jobs",
)
DETAILED_ACCOUNTING_FIELDS = CONCISE_ACCOUNTING_FIELDS + (
    "account",
    "usage_ws",
    "lifetime_ws",
    "granted_w",
    "admitted_total",
    "queued_total",
    "rejected_total",
)

_VALID_STATES = {s.value for s in JobState}


class ApiError(Exception):
    """A structured client/server error the core raises internally."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message

    def body(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message}}


@dataclass
class ApiResponse:
    """What every request returns: a status plus a JSON-able body."""

    status: int
    body: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


# ---------------------------------------------------------------------------
# Parameter parsing (query values arrive as strings over HTTP)
# ---------------------------------------------------------------------------


def _int_param(params: Dict[str, Any], key: str, default: int,
               lo: int, hi: Optional[int] = None) -> int:
    raw = params.get(key, default)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ApiError(400, "bad_request", f"{key} must be an integer, got {raw!r}")
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ApiError(400, "bad_request", f"{key} must be {span}, got {value}")
    return value


def _format_param(params: Dict[str, Any]) -> bool:
    """True for ``detailed``; concise is the cheap default for lists."""
    fmt = params.get("response_format", "concise")
    if fmt not in ("concise", "detailed"):
        raise ApiError(
            400, "bad_request",
            f"response_format must be 'concise' or 'detailed', got {fmt!r}",
        )
    return fmt == "detailed"


def _job_view(backend: ClusterBackend, record: JobRecord,
              detailed: bool) -> Dict[str, Any]:
    view: Dict[str, Any] = {
        "jobid": record.jobid,
        "state": record.state.value,
        "app": record.spec.app,
        "nnodes": record.spec.nnodes,
    }
    if not detailed:
        return view
    view.update(
        name=record.spec.label,
        user=record.spec.user,
        launcher=record.spec.launcher,
        ranks=list(record.ranks),
        t_submit=record.t_submit,
        t_start=record.t_start,
        t_end=record.t_end,
        runtime_s=record.runtime_s,
        job_limit_w=None,
        node_limit_w=None,
    )
    state = backend.job_power_state(record.jobid)
    if state is not None:
        view["job_limit_w"] = state.job_limit_w
        view["node_limit_w"] = state.node_limit_w
    # Tenant clusters expose the resolved project; anonymous clusters
    # keep the exact historical field set (golden serving digests).
    tenancy = backend.tenancy
    if tenancy is not None:
        view["project"] = tenancy.project_of_job(record.jobid)
    return view


class PowerService:
    """The API core: routes requests over a :class:`ClusterRegistry`."""

    def __init__(self, registry: ClusterRegistry) -> None:
        self.registry = registry
        telemetry = telemetry_of(registry.sim)
        self._metrics = telemetry.metrics
        self._snapshots = SnapshotCache(metrics=self._metrics)
        #: Wall-clock request latency buckets: an in-process dict-routed
        #: call sits around 10 µs; a busy asyncio dispatch a few ms.
        self._latency_buckets = (
            1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
            1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1.0,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str,
               params: Optional[Dict[str, Any]] = None,
               body: Optional[Dict[str, Any]] = None) -> ApiResponse:
        """Serve one request. Never raises; never steps the simulator."""
        t0 = time.perf_counter()
        op = "unknown"
        try:
            op, response = self._route(
                str(method).upper(), str(path), dict(params or {}), body
            )
        except ApiError as exc:
            response = ApiResponse(exc.status, exc.body())
            self._metrics.counter(
                "serving_errors_total", {"code": exc.code},
                help="API errors by structured error code.",
            ).inc()
        except Exception as exc:  # noqa: BLE001 - the no-traceback contract
            response = ApiResponse(
                500,
                {"error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}},
            )
            self._metrics.counter(
                "serving_errors_total", {"code": "internal"},
                help="API errors by structured error code.",
            ).inc()
        self._metrics.counter(
            "serving_requests_total",
            {"op": op, "status": str(response.status)},
            help="API requests by operation and HTTP status.",
        ).inc()
        self._metrics.histogram(
            "serving_request_latency_s", {"op": op},
            help="Wall-clock request service latency (observability only; "
                 "never part of a run digest).",
            buckets=self._latency_buckets,
        ).observe(time.perf_counter() - t0)
        return response

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, params: Dict[str, Any],
               body: Optional[Dict[str, Any]]) -> Tuple[str, ApiResponse]:
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise ApiError(404, "not_found", f"no such path: {path}")
        parts = parts[1:]

        if parts == ["health"] and method == "GET":
            return "health", self._health()
        if parts == ["clusters"] and method == "GET":
            return "clusters", self._clusters()
        if parts == ["batch"] and method == "POST":
            return "batch", self._batch(body)
        if parts == ["site", "power"] and method == "GET":
            return "site_power", self._site_power()
        if parts == ["accounting"] and method == "GET":
            return "accounting", self._accounting(params)
        if len(parts) == 2 and parts[0] == "accounting" and method == "GET":
            return "accounting_project", self._accounting_project(
                parts[1], params
            )

        if len(parts) >= 2 and parts[0] == "clusters":
            backend = self._backend(parts[1])
            rest = parts[2:]
            if not rest:
                if method == "GET":
                    return "cluster_info", self._cluster_info(backend)
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on cluster")
            if rest == ["power"] and method == "GET":
                return "cluster_power", self._cluster_power(backend)
            if rest == ["nodes"] and method == "GET":
                return "nodes", self._nodes(backend, params)
            if rest == ["queue"] and method == "GET":
                return "queue", self._queue(backend)
            if rest == ["jobs"]:
                if method == "GET":
                    return "list_jobs", self._list_jobs(backend, params)
                if method == "POST":
                    return "submit_job", self._submit_job(backend, body)
                raise ApiError(405, "method_not_allowed",
                               f"{method} not allowed on jobs")
            if rest and rest[0] == "jobs" and len(rest) in (2, 3):
                jobid = self._jobid(rest[1])
                if len(rest) == 2:
                    if method == "GET":
                        return "get_job", self._get_job(backend, jobid, params)
                    if method == "DELETE":
                        return "cancel_job", self._cancel_job(backend, jobid)
                    raise ApiError(405, "method_not_allowed",
                                   f"{method} not allowed on a job")
                if rest[2] == "output" and method == "GET":
                    return "job_output", self._job_output(backend, jobid)
        raise ApiError(404, "not_found", f"no such path: {path}")

    def _backend(self, name: str) -> ClusterBackend:
        try:
            return self.registry.resolve(name)
        except KeyError:
            raise ApiError(404, "unknown_cluster", f"unknown cluster: {name!r}")

    @staticmethod
    def _jobid(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ApiError(400, "bad_request", f"jobid must be an integer, got {raw!r}")

    # ------------------------------------------------------------------
    # Read endpoints
    # ------------------------------------------------------------------
    def _health(self) -> ApiResponse:
        sim = self.registry.sim
        return ApiResponse(200, {
            "status": "ok",
            "t": sim.now,
            "events_processed": sim.events_processed,
            "clusters": self.registry.names(),
        })

    def _clusters(self) -> ApiResponse:
        out = []
        for name in self.registry.names():
            backend = self.registry.resolve(name)
            out.append({
                "name": name,
                "platform": backend.platform,
                "n_nodes": backend.n_nodes,
                "aliases": self.registry.aliases_of(name),
            })
        return ApiResponse(200, {"clusters": out})

    def _cluster_info(self, backend: ClusterBackend) -> ApiResponse:
        return ApiResponse(200, {
            "name": backend.name,
            "platform": backend.platform,
            "n_nodes": backend.n_nodes,
            "free_nodes": backend.free_nodes(),
            "n_jobs": len(backend.jobs),
            "manager": backend.describe_manager(),
        })

    def _cluster_power(self, backend: ClusterBackend) -> ApiResponse:
        snap = self._snapshots.get(backend)
        body = snap.summary()
        body["cluster"] = backend.name
        return ApiResponse(200, body)

    def _nodes(self, backend: ClusterBackend, params: Dict[str, Any]) -> ApiResponse:
        detailed = _format_param(params)
        offset = _int_param(params, "offset", 0, 0)
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        snap = self._snapshots.get(backend)
        ranks = range(offset, min(offset + limit, snap.n_nodes))
        next_offset = offset + limit if offset + limit < snap.n_nodes else None
        return ApiResponse(200, {
            "cluster": backend.name,
            "t": snap.t,
            "nodes": [snap.node_view(r, detailed) for r in ranks],
            "total": snap.n_nodes,
            "offset": offset,
            "limit": limit,
            "next_offset": next_offset,
        })

    def _list_jobs(self, backend: ClusterBackend, params: Dict[str, Any]) -> ApiResponse:
        detailed = _format_param(params)
        offset = _int_param(params, "offset", 0, 0)
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        state = params.get("state")
        if state is not None and state not in _VALID_STATES:
            raise ApiError(
                400, "bad_request",
                f"state must be one of {sorted(_VALID_STATES)}, got {state!r}",
            )
        user = params.get("user")
        if user is not None and not isinstance(user, str):
            raise ApiError(400, "bad_request", "user must be a string")
        project = params.get("project")
        if project is not None and not isinstance(project, str):
            raise ApiError(400, "bad_request", "project must be a string")
        tenancy = backend.tenancy

        def _project_of(record: JobRecord) -> Optional[str]:
            if tenancy is not None:
                return tenancy.project_of_job(record.jobid)
            return record.spec.project

        # jobids are issued sequentially and the books are insertion
        # ordered, so this listing order is stable across pages — the
        # pagination property tests lean on exactly that.
        records = [
            r for r in backend.jobs.values()
            if (state is None or r.state.value == state)
            and (user is None or r.spec.user == user)
            and (project is None or _project_of(r) == project)
        ]
        page = records[offset:offset + limit]
        next_offset = offset + limit if offset + limit < len(records) else None
        return ApiResponse(200, {
            "cluster": backend.name,
            "jobs": [_job_view(backend, r, detailed) for r in page],
            "total": len(records),
            "offset": offset,
            "limit": limit,
            "next_offset": next_offset,
        })

    def _get_job(self, backend: ClusterBackend, jobid: int,
                 params: Dict[str, Any]) -> ApiResponse:
        detailed = _format_param(params)
        try:
            record = backend.job(jobid)
        except KeyError:
            raise ApiError(404, "unknown_job", f"no such job: {jobid}")
        return ApiResponse(200, _job_view(backend, record, detailed))

    def _job_output(self, backend: ClusterBackend, jobid: int) -> ApiResponse:
        try:
            record = backend.job(jobid)
        except KeyError:
            raise ApiError(404, "unknown_job", f"no such job: {jobid}")
        body: Dict[str, Any] = {
            "jobid": jobid,
            "state": record.state.value,
            "finished": False,
            "progress_s": None,
            "total_work_s": None,
            "runtime_s": record.runtime_s,
            "avg_node_power_w": None,
            "max_node_power_w": None,
        }
        run = backend.app_run(jobid)
        if run is not None:
            body["finished"] = bool(run.finished)
            body["progress_s"] = run.progress_s
            body["total_work_s"] = run.total_work_s
            body["avg_node_power_w"] = run.avg_node_power_w
            body["max_node_power_w"] = run.max_node_power_w
        return ApiResponse(200, body)

    def _queue(self, backend: ClusterBackend) -> ApiResponse:
        jm = backend.instance.jobmanager
        return ApiResponse(200, {
            "cluster": backend.name,
            "free_nodes": backend.free_nodes(),
            "queued": [r.jobid for r in jm.jobs.values()
                       if r.state is JobState.SUBMITTED],
            "scheduled": [r.jobid for r in jm.jobs.values()
                          if r.state is JobState.SCHEDULED],
            "running": [r.jobid for r in jm.jobs.values()
                        if r.state is JobState.RUNNING],
        })

    def _accounting_rows(self, cluster: Optional[str]) -> List[Dict[str, Any]]:
        """Per-(cluster, project) accounting rows over tenant-enabled
        backends, in (cluster, project) order. Anonymous clusters
        simply contribute no rows."""
        rows: List[Dict[str, Any]] = []
        for name in self.registry.names():
            if cluster is not None and name != cluster:
                continue
            tenancy = self.registry.resolve(name).tenancy
            if tenancy is None:
                continue
            for row in tenancy.accounting_rows():
                rows.append({"cluster": name, **row})
        return rows

    def _accounting(self, params: Dict[str, Any]) -> ApiResponse:
        detailed = _format_param(params)
        offset = _int_param(params, "offset", 0, 0)
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        cluster = params.get("cluster")
        if cluster is not None and not isinstance(cluster, str):
            raise ApiError(400, "bad_request", "cluster must be a string")
        if cluster is not None:
            # Resolve for the 404 contract and canonicalize aliases.
            cluster = self._backend(cluster).name
        rows = self._accounting_rows(cluster)
        fields = DETAILED_ACCOUNTING_FIELDS if detailed else CONCISE_ACCOUNTING_FIELDS
        page = rows[offset:offset + limit]
        next_offset = offset + limit if offset + limit < len(rows) else None
        return ApiResponse(200, {
            "accounts": [{k: row[k] for k in fields} for row in page],
            "total": len(rows),
            "offset": offset,
            "limit": limit,
            "next_offset": next_offset,
        })

    def _accounting_project(self, project: str,
                            params: Dict[str, Any]) -> ApiResponse:
        del params  # project detail is always the full view
        entries = [
            {k: row[k] for k in DETAILED_ACCOUNTING_FIELDS}
            for row in self._accounting_rows(None)
            if row["project"] == project
        ]
        if not entries:
            raise ApiError(
                404, "unknown_project",
                f"no tenant-enabled cluster knows project {project!r}",
            )
        return ApiResponse(200, {"project": project, "entries": entries})

    def _site_power(self) -> ApiResponse:
        site = self.registry.site
        if site is None:
            raise ApiError(404, "no_site", "registry is not backed by a federated site")
        clusters = {}
        for name in self.registry.names():
            snap = self._snapshots.get(self.registry.resolve(name))
            clusters[name] = {
                "share_w": site.assigned_shares.get(name),
                "total_power_w": snap.total_power_w,
                "down": site.cluster_is_down(name),
            }
        return ApiResponse(200, {
            "site_budget_w": site.site_budget_w,
            "assigned_total_w": sum(site.assigned_shares.values()),
            "last_rebalance_t": site.last_rebalance_t,
            "clusters": clusters,
        })

    # ------------------------------------------------------------------
    # Write endpoints
    # ------------------------------------------------------------------
    def _submit_job(self, backend: ClusterBackend,
                    body: Optional[Dict[str, Any]]) -> ApiResponse:
        if not isinstance(body, dict):
            raise ApiError(400, "bad_request", "submit requires a JSON object body")
        app = body.get("app")
        if not isinstance(app, str) or app not in list_apps():
            raise ApiError(
                400, "unknown_app",
                f"app must be one of {list_apps()}, got {app!r}",
            )
        nnodes = body.get("nnodes")
        if not isinstance(nnodes, int) or isinstance(nnodes, bool) \
                or not 1 <= nnodes <= backend.n_nodes:
            raise ApiError(
                400, "bad_request",
                f"nnodes must be an integer in [1, {backend.n_nodes}], got {nnodes!r}",
            )
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ApiError(400, "bad_request", "params must be a JSON object")
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            raise ApiError(400, "bad_request", "name must be a string")
        user = body.get("user", "user0")
        if not isinstance(user, str):
            raise ApiError(400, "bad_request", "user must be a string")
        spec = Jobspec(app=app, nnodes=nnodes, params=params, name=name, user=user)
        record = backend.submit(spec)
        if record is None:
            # Tenancy admission queued or rejected the submission; both
            # are client outcomes with the structured decision attached.
            tenancy = backend.tenancy
            decision = tenancy.last_decision if tenancy is not None else None
            body: Dict[str, Any] = {
                "cluster": backend.name,
                "admitted": False,
                "decision": decision.to_dict() if decision is not None else None,
            }
            status = 202 if decision is not None and decision.action == "queue" else 403
            return ApiResponse(status, body)
        return ApiResponse(201, _job_view(backend, record, detailed=True))

    def _cancel_job(self, backend: ClusterBackend, jobid: int) -> ApiResponse:
        if jobid not in backend.jobs:
            raise ApiError(404, "unknown_job", f"no such job: {jobid}")
        record = backend.job(jobid)
        if record.state is not JobState.SUBMITTED:
            raise ApiError(
                409, "invalid_state",
                f"job {jobid} is {record.state.value}; only submitted jobs "
                "can be cancelled",
            )
        backend.cancel(jobid)
        return ApiResponse(200, _job_view(backend, backend.job(jobid), detailed=True))

    # ------------------------------------------------------------------
    # Batch
    # ------------------------------------------------------------------
    def _batch(self, body: Optional[Dict[str, Any]]) -> ApiResponse:
        if not isinstance(body, dict) or not isinstance(body.get("ops"), list):
            raise ApiError(400, "bad_request",
                           "batch requires a JSON body with an 'ops' list")
        ops = body["ops"]
        if not ops:
            raise ApiError(400, "bad_request", "batch ops list is empty")
        if len(ops) > MAX_BATCH_OPS:
            raise ApiError(400, "bad_request",
                           f"batch is limited to {MAX_BATCH_OPS} ops, got {len(ops)}")
        results: List[Dict[str, Any]] = []
        for i, op in enumerate(ops):
            if not isinstance(op, dict) or "path" not in op:
                results.append({
                    "index": i, "status": 400,
                    "body": {"error": {"code": "bad_request",
                                       "message": "each op needs method+path"}},
                })
                continue
            if str(op.get("path", "")).lstrip("/").startswith("v1/batch"):
                results.append({
                    "index": i, "status": 400,
                    "body": {"error": {"code": "bad_request",
                                       "message": "batch ops cannot nest batches"}},
                })
                continue
            sub = self.handle(
                str(op.get("method", "GET")), str(op["path"]),
                op.get("params"), op.get("body"),
            )
            results.append({"index": i, "status": sub.status, "body": sub.body})
        return ApiResponse(200, {"results": results})
