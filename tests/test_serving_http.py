"""The asyncio HTTP/1.1 shell: real sockets over the service core.

Boots a :class:`ServingServer` on an ephemeral port inside each test's
own event loop and talks to it with raw sockets / the keep-alive
client: JSON round-trips, query-string decoding, protocol-level error
envelopes (malformed request line, bad JSON, oversized bodies), the
single-dispatcher ordering guarantee, and the HTTP flavour of the
loadgen harness.
"""

from __future__ import annotations

import asyncio
import json

from repro.cluster import PowerManagedCluster
from repro.manager.cluster_manager import ManagerConfig
from repro.serving import (
    AsyncApiClient,
    ClusterRegistry,
    LoadProfile,
    PowerService,
    ServingServer,
    SimDriver,
    arun_loadtest_http,
)
from repro.serving.http import MAX_REQUEST_BYTES


def _server(n_nodes=8, advance_interval_s=None):
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=n_nodes,
        seed=5,
        manager_config=ManagerConfig(
            global_cap_w=1250.0 * n_nodes, policy="proportional",
            static_node_cap_w=1950.0,
        ),
    )
    registry = ClusterRegistry.from_cluster(cluster, name="default")
    return ServingServer(
        PowerService(registry), SimDriver(registry),
        advance_interval_s=advance_interval_s,
    )


def _run(coro):
    return asyncio.run(coro)


async def _with_server(body, **kwargs):
    server = _server(**kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_health_and_submit_roundtrip():
    async def body(server):
        client = AsyncApiClient("127.0.0.1", server.port)
        status, payload = await client.request("GET", "/v1/health")
        assert status == 200 and payload["status"] == "ok"
        status, job = await client.request(
            "POST", "/v1/clusters/default/jobs",
            body={"app": "gemm", "nnodes": 2, "params": {"work_scale": 0.5}},
        )
        assert status == 201 and job["jobid"] == 1
        status, got = await client.request(
            "GET", f"/v1/clusters/default/jobs/{job['jobid']}",
            params={"response_format": "detailed"},
        )
        assert status == 200 and got["app"] == "gemm"
        await client.close()

    _run(_with_server(body))


def test_query_string_reaches_params():
    async def body(server):
        client = AsyncApiClient("127.0.0.1", server.port)
        status, page = await client.request(
            "GET", "/v1/clusters/default/nodes",
            params={"limit": 3, "offset": 2, "response_format": "detailed"},
        )
        assert status == 200
        assert [n["rank"] for n in page["nodes"]] == [2, 3, 4]
        assert "idle_power_w" in page["nodes"][0]
        await client.close()

    _run(_with_server(body))


def test_keep_alive_serves_many_requests_per_connection():
    async def body(server):
        client = AsyncApiClient("127.0.0.1", server.port)
        for _ in range(20):
            status, _payload = await client.request("GET", "/v1/health")
            assert status == 200
        await client.close()

    _run(_with_server(body))


def test_structured_404_over_the_wire():
    async def body(server):
        client = AsyncApiClient("127.0.0.1", server.port)
        status, payload = await client.request("GET", "/v1/clusters/nowhere")
        assert status == 404
        assert payload["error"]["code"] == "unknown_cluster"
        await client.close()

    _run(_with_server(body))


# ---------------------------------------------------------------------------
# Protocol-level garbage: structured 4xx, never a hang or traceback
# ---------------------------------------------------------------------------


async def _raw_exchange(port, blob):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(blob)
    await writer.drain()
    data = await reader.read(MAX_REQUEST_BYTES)
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return data


def _status_and_body(raw):
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


def test_malformed_request_line_is_a_400():
    async def body(server):
        raw = await _raw_exchange(server.port, b"NONSENSE\r\n\r\n")
        status, payload = _status_and_body(raw)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    _run(_with_server(body))


def test_invalid_json_body_is_a_400():
    async def body(server):
        blob = (
            b"POST /v1/clusters/default/jobs HTTP/1.1\r\n"
            b"Content-Length: 9\r\n\r\n{not json"
        )
        status, payload = _status_and_body(await _raw_exchange(server.port, blob))
        assert status == 400
        assert "JSON" in payload["error"]["message"]

    _run(_with_server(body))


def test_oversized_body_is_a_413():
    async def body(server):
        blob = (
            f"POST /v1/batch HTTP/1.1\r\n"
            f"Content-Length: {MAX_REQUEST_BYTES + 1}\r\n\r\n"
        ).encode()
        status, payload = _status_and_body(await _raw_exchange(server.port, blob))
        assert status == 413
        assert payload["error"]["code"] == "too_large"

    _run(_with_server(body))


def test_bad_content_length_is_a_400():
    async def body(server):
        blob = b"GET /v1/health HTTP/1.1\r\nContent-Length: lots\r\n\r\n"
        status, payload = _status_and_body(await _raw_exchange(server.port, blob))
        assert status == 400

    _run(_with_server(body))


# ---------------------------------------------------------------------------
# The single dispatcher
# ---------------------------------------------------------------------------


def test_concurrent_submits_serialize_without_loss():
    """50 sockets submitting at once: every submit lands, ids are unique."""

    async def body(server):
        async def one(i):
            client = AsyncApiClient("127.0.0.1", server.port)
            status, job = await client.request(
                "POST", "/v1/clusters/default/jobs",
                body={"app": "gemm", "nnodes": 1, "name": f"c{i}"},
            )
            await client.close()
            assert status == 201
            return job["jobid"]

        jobids = await asyncio.gather(*(one(i) for i in range(50)))
        assert sorted(jobids) == list(range(1, 51))
        client = AsyncApiClient("127.0.0.1", server.port)
        status, page = await client.request(
            "GET", "/v1/clusters/default/jobs", params={"limit": 100})
        assert status == 200 and page["total"] == 50
        await client.close()

    _run(_with_server(body))


def test_advance_loop_moves_simulated_time():
    async def body(server):
        t0 = server.driver.sim.now
        await asyncio.sleep(0.12)
        client = AsyncApiClient("127.0.0.1", server.port)
        status, health = await client.request("GET", "/v1/health")
        await client.close()
        assert status == 200
        assert health["t"] > t0

    _run(_with_server(body, advance_interval_s=0.02))


# ---------------------------------------------------------------------------
# HTTP loadgen flavour
# ---------------------------------------------------------------------------


def test_http_loadtest_runs_clean():
    async def body(server):
        profile = LoadProfile(clients=10, requests_per_client=3,
                              warmup_jobs=2, advance_every=0)
        result = await arun_loadtest_http(
            3, profile, "127.0.0.1", server.port, n_nodes=8)
        assert result.mode == "http"
        assert result.n_requests == 30
        assert result.errors == 0, result.status_counts
        assert result.p99_ms > 0
        return result

    first = _run(_with_server(body))
    second = _run(_with_server(body))
    # Fresh identically-seeded worlds: byte-identical traffic + answers.
    assert first.trace_sha256 == second.trace_sha256
    assert first.response_digest == second.response_digest


def test_dispatch_api_without_sockets():
    async def body(server):
        response = await server.dispatch("GET", "/v1/health")
        assert response.status == 200 and response.body["status"] == "ok"

    _run(_with_server(body))
