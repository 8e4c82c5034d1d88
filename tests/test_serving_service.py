"""Unit tests for the serving-tier API core (``PowerService``).

Every endpoint is exercised through the single transport-free
``handle()`` entry point: success shapes, the structured-4xx error
contract (never a traceback, never a 500 on bad input), pagination
bounds, the concise/detailed response formats, the batch envelope, and
the cardinal serving invariant — request handling never steps the
simulator (pinned by ``events_processed``).
"""

from __future__ import annotations

import pytest

from repro.cluster import PowerManagedCluster
from repro.federation import ClusterSpec, FederatedSite, SiteConfig
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.serving import (
    CONCISE_JOB_FIELDS,
    ClusterRegistry,
    DETAILED_JOB_FIELDS,
    PowerService,
    ServingClient,
    ServingError,
    SimDriver,
)
from repro.serving.service import MAX_BATCH_OPS


@pytest.fixture
def world():
    """A small managed cluster behind a registry, plus its driver."""
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=8,
        seed=11,
        manager_config=ManagerConfig(
            global_cap_w=10_000.0, policy="proportional",
            static_node_cap_w=1950.0,
        ),
    )
    registry = ClusterRegistry.from_cluster(
        cluster, name="default", aliases=("prod",)
    )
    return PowerService(registry), SimDriver(registry), cluster


def _submit(service, nnodes=2, app="gemm"):
    resp = service.handle(
        "POST", "/v1/clusters/default/jobs",
        body={"app": app, "nnodes": nnodes, "params": {"work_scale": 0.5}},
    )
    assert resp.status == 201, resp.body
    return resp.body["jobid"]


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------


def test_health_reports_engine_state(world):
    service, _driver, cluster = world
    resp = service.handle("GET", "/v1/health")
    assert resp.status == 200
    assert resp.body["status"] == "ok"
    assert resp.body["t"] == cluster.sim.now
    assert resp.body["clusters"] == ["default"]


def test_clusters_listing_carries_aliases(world):
    service, _driver, _cluster = world
    resp = service.handle("GET", "/v1/clusters")
    assert resp.status == 200
    (entry,) = resp.body["clusters"]
    assert entry["name"] == "default"
    assert entry["platform"] == "lassen"
    assert entry["n_nodes"] == 8
    assert entry["aliases"] == ["prod"]


def test_alias_resolves_to_the_same_cluster(world):
    service, _driver, _cluster = world
    via_name = service.handle("GET", "/v1/clusters/default")
    via_alias = service.handle("GET", "/v1/clusters/prod")
    assert via_alias.status == 200
    assert via_alias.body == via_name.body


def test_cluster_power_summary_shape(world):
    service, driver, _cluster = world
    _submit(service)
    driver.advance(6.0)
    resp = service.handle("GET", "/v1/clusters/default/power")
    assert resp.status == 200
    body = resp.body
    assert body["cluster"] == "default"
    assert body["n_nodes"] == 8
    assert body["total_power_w"] > 0
    assert body["budget_w"] == 10_000.0
    assert body["policy"] == "proportional"
    assert body["active_jobs"] == [1]


def test_nodes_pagination_and_formats(world):
    service, _driver, _cluster = world
    concise = service.handle("GET", "/v1/clusters/default/nodes",
                             {"limit": 3, "offset": 6})
    assert concise.status == 200
    assert concise.body["total"] == 8
    assert [n["rank"] for n in concise.body["nodes"]] == [6, 7]
    assert concise.body["next_offset"] is None
    detailed = service.handle(
        "GET", "/v1/clusters/default/nodes",
        {"limit": 3, "response_format": "detailed"},
    )
    assert detailed.body["next_offset"] == 3
    for node in detailed.body["nodes"]:
        assert set(concise.body["nodes"][0]) < set(node)


def test_reads_never_step_the_simulator(world):
    service, driver, cluster = world
    _submit(service)
    driver.advance(4.0)
    before = (cluster.sim.now, cluster.sim.events_processed)
    for path, params in [
        ("/v1/health", None),
        ("/v1/clusters", None),
        ("/v1/clusters/default", None),
        ("/v1/clusters/default/power", None),
        ("/v1/clusters/default/nodes", {"response_format": "detailed"}),
        ("/v1/clusters/default/queue", None),
        ("/v1/clusters/default/jobs", {"response_format": "detailed"}),
        ("/v1/clusters/default/jobs/1", None),
        ("/v1/clusters/default/jobs/1/output", None),
    ]:
        assert service.handle("GET", path, params).status == 200
    assert (cluster.sim.now, cluster.sim.events_processed) == before


# ---------------------------------------------------------------------------
# Job lifecycle through the API
# ---------------------------------------------------------------------------


def test_submit_get_run_output_roundtrip(world):
    service, driver, _cluster = world
    jobid = _submit(service)
    got = service.handle("GET", f"/v1/clusters/default/jobs/{jobid}",
                         {"response_format": "detailed"})
    assert got.status == 200
    assert got.body["app"] == "gemm"
    assert got.body["nnodes"] == 2
    client = ServingClient(service, driver)
    output = client.run_and_wait("quicksilver", nnodes=1)
    assert output["finished"] is True
    assert output["state"] == "completed"
    assert output["avg_node_power_w"] > 0
    assert output["runtime_s"] > 0


def test_queue_buckets_track_states(world):
    service, driver, _cluster = world
    # 8 nodes: one 8-node job runs, the next queues behind it.
    first = _submit(service, nnodes=8)
    second = _submit(service, nnodes=8)
    driver.advance(4.0)
    resp = service.handle("GET", "/v1/clusters/default/queue")
    assert resp.status == 200
    assert first in resp.body["running"]
    assert second in resp.body["queued"]
    assert resp.body["free_nodes"] == 0


def test_cancel_only_from_submitted(world):
    service, driver, _cluster = world
    running = _submit(service, nnodes=8)
    queued = _submit(service, nnodes=8)
    driver.advance(4.0)
    ok = service.handle("DELETE", f"/v1/clusters/default/jobs/{queued}")
    assert ok.status == 200
    assert ok.body["state"] == "cancelled"
    conflict = service.handle("DELETE", f"/v1/clusters/default/jobs/{running}")
    assert conflict.status == 409
    assert conflict.body["error"]["code"] == "invalid_state"
    missing = service.handle("DELETE", "/v1/clusters/default/jobs/999")
    assert missing.status == 404
    assert missing.body["error"]["code"] == "unknown_job"


def test_list_jobs_state_filter(world):
    service, driver, _cluster = world
    _submit(service, nnodes=8)
    _submit(service, nnodes=8)
    driver.advance(4.0)
    running = service.handle("GET", "/v1/clusters/default/jobs",
                             {"state": "running"})
    assert [j["jobid"] for j in running.body["jobs"]] == [1]
    queued = service.handle("GET", "/v1/clusters/default/jobs",
                            {"state": "submitted"})
    assert [j["jobid"] for j in queued.body["jobs"]] == [2]
    bad = service.handle("GET", "/v1/clusters/default/jobs",
                         {"state": "zombie"})
    assert bad.status == 400


# ---------------------------------------------------------------------------
# Validation: structured 4xx, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "body,code",
    [
        (None, "bad_request"),
        ({"app": "not-an-app", "nnodes": 1}, "unknown_app"),
        ({"app": "gemm"}, "bad_request"),               # missing nnodes
        ({"app": "gemm", "nnodes": 0}, "bad_request"),
        ({"app": "gemm", "nnodes": 9}, "bad_request"),  # > cluster size
        ({"app": "gemm", "nnodes": True}, "bad_request"),
        ({"app": "gemm", "nnodes": "2"}, "bad_request"),
        ({"app": "gemm", "nnodes": 1, "params": "fast"}, "bad_request"),
        ({"app": "gemm", "nnodes": 1, "name": 7}, "bad_request"),
        ({"app": "gemm", "nnodes": 1, "user": 7}, "bad_request"),
    ],
)
def test_submit_validation(world, body, code):
    service, _driver, _cluster = world
    resp = service.handle("POST", "/v1/clusters/default/jobs", body=body)
    assert resp.status == 400
    assert resp.body["error"]["code"] == code


@pytest.mark.parametrize(
    "method,path,params,status,code",
    [
        ("GET", "/v1/clusters/nowhere", None, 404, "unknown_cluster"),
        ("GET", "/v1/clusters/default/jobs/abc", None, 400, "bad_request"),
        ("GET", "/v1/clusters/default/jobs/42", None, 404, "unknown_job"),
        ("GET", "/v1/clusters/default/jobs/42/output", None, 404, "unknown_job"),
        ("GET", "/v1/nope", None, 404, "not_found"),
        ("GET", "/v2/health", None, 404, "not_found"),
        ("PUT", "/v1/clusters/default", None, 405, "method_not_allowed"),
        ("DELETE", "/v1/clusters/default/jobs", None, 405, "method_not_allowed"),
        ("GET", "/v1/clusters/default/jobs", {"limit": 0}, 400, "bad_request"),
        ("GET", "/v1/clusters/default/jobs", {"limit": 99999}, 400, "bad_request"),
        ("GET", "/v1/clusters/default/jobs", {"offset": -1}, 400, "bad_request"),
        ("GET", "/v1/clusters/default/jobs", {"limit": "ten"}, 400, "bad_request"),
        ("GET", "/v1/clusters/default/jobs", {"response_format": "xml"},
         400, "bad_request"),
        ("GET", "/v1/site/power", None, 404, "no_site"),
    ],
)
def test_structured_errors(world, method, path, params, status, code):
    service, _driver, _cluster = world
    resp = service.handle(method, path, params)
    assert resp.status == status
    assert resp.body["error"]["code"] == code
    assert resp.body["error"]["message"]


def test_concise_and_detailed_field_sets(world):
    service, driver, _cluster = world
    jobid = _submit(service)
    driver.advance(4.0)
    concise = service.handle("GET", f"/v1/clusters/default/jobs/{jobid}")
    detailed = service.handle("GET", f"/v1/clusters/default/jobs/{jobid}",
                              {"response_format": "detailed"})
    assert set(concise.body) == set(CONCISE_JOB_FIELDS)
    assert set(detailed.body) == set(DETAILED_JOB_FIELDS)
    # A running managed job exposes its share split.
    assert detailed.body["job_limit_w"] > 0
    assert detailed.body["node_limit_w"] * len(detailed.body["ranks"]) == \
        pytest.approx(detailed.body["job_limit_w"])


# ---------------------------------------------------------------------------
# Batch
# ---------------------------------------------------------------------------


def test_batch_mixed_ops_report_per_op_status(world):
    service, _driver, _cluster = world
    resp = service.handle("POST", "/v1/batch", body={"ops": [
        {"method": "GET", "path": "/v1/health"},
        {"method": "GET", "path": "/v1/clusters/default/jobs/999"},
        {"path": "/v1/clusters/default/queue"},  # method defaults to GET
    ]})
    assert resp.status == 200
    statuses = [r["status"] for r in resp.body["results"]]
    assert statuses == [200, 404, 200]
    assert [r["index"] for r in resp.body["results"]] == [0, 1, 2]


@pytest.mark.parametrize(
    "body",
    [
        None,
        {},
        {"ops": []},
        {"ops": "all"},
        {"ops": [{"method": "GET"}]},  # per-op error, whole call still 200
        {"ops": [{"method": "POST", "path": "/v1/batch", "body": {"ops": []}}]},
        {"ops": [{"path": "x"}] * (MAX_BATCH_OPS + 1)},
    ],
)
def test_batch_envelope_validation(world, body):
    service, _driver, _cluster = world
    resp = service.handle("POST", "/v1/batch", body=body)
    if body in (None, {}, {"ops": []}, {"ops": "all"}) \
            or (isinstance(body.get("ops"), list) and len(body["ops"]) > MAX_BATCH_OPS):
        assert resp.status == 400
    else:
        # Malformed / nested ops fail individually, not the envelope.
        assert resp.status == 200
        assert all(r["status"] == 400 for r in resp.body["results"])


# ---------------------------------------------------------------------------
# Federated registry: /v1/site/power
# ---------------------------------------------------------------------------


def test_site_power_over_a_federated_registry():
    site = FederatedSite(
        SiteConfig(
            site_budget_w=12_000.0,
            clusters=(
                ClusterSpec(name="alpha", platform="lassen", n_nodes=2,
                            static_node_cap_w=1950.0),
                ClusterSpec(name="beta", platform="tioga", n_nodes=2),
            ),
        ),
        seed=3,
    )
    registry = ClusterRegistry.from_site(site)
    service = PowerService(registry)
    site.submit("alpha", Jobspec(app="gemm", nnodes=1))
    site.run_for(6.0)
    resp = service.handle("GET", "/v1/site/power")
    assert resp.status == 200
    assert resp.body["site_budget_w"] == 12_000.0
    assert set(resp.body["clusters"]) == {"alpha", "beta"}
    assert resp.body["assigned_total_w"] == pytest.approx(12_000.0)
    for entry in resp.body["clusters"].values():
        assert entry["total_power_w"] > 0
        assert entry["down"] is False
    # Per-cluster endpoints address the site's clusters by name.
    alpha = service.handle("GET", "/v1/clusters/alpha/power")
    assert alpha.status == 200 and alpha.body["cluster"] == "alpha"


def test_registry_rejects_mixed_simulators():
    a = PowerManagedCluster(platform="lassen", n_nodes=2, seed=1)
    b = PowerManagedCluster(platform="lassen", n_nodes=2, seed=2)
    registry = ClusterRegistry.from_cluster(a, name="a")
    from repro.serving.registry import ClusterBackend

    with pytest.raises(ValueError, match="share one simulator"):
        registry.register(ClusterBackend("b", b))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(ClusterBackend("a", a))


def test_serving_client_raises_structured_errors(world):
    service, driver, _cluster = world
    client = ServingClient(service, driver)
    with pytest.raises(ServingError) as err:
        client.request("GET", "/v1/clusters/default/jobs/123")
    assert err.value.status == 404
    assert err.value.code == "unknown_job"


def test_metrics_count_requests_and_errors(world):
    service, _driver, cluster = world
    service.handle("GET", "/v1/health")
    service.handle("GET", "/v1/clusters/nowhere")
    metrics = cluster.telemetry_hub.metrics
    ok = [s for s in metrics.series_for("serving_requests_total")
          if s.labels.get("op") == "health"]
    assert ok and ok[0].value >= 1
    errs = [s for s in metrics.series_for("serving_errors_total")
            if s.labels.get("code") == "unknown_cluster"]
    assert errs and errs[0].value >= 1
