"""In-process serving client: ergonomic helpers over the raw API.

``ServingClient`` wraps a :class:`~repro.serving.service.PowerService`
(and optionally a :class:`~repro.serving.driver.SimDriver`) in typed
convenience calls — the same surface a remote HTTP client sees, minus
the socket. Error responses raise :class:`ServingError` so scripted
callers get exceptions instead of status-code plumbing; the high-level
``run_and_wait`` composes submit + driver polling + output fetch into
the one-liner most experiment scripts want.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.serving.driver import SimDriver
from repro.serving.service import ApiResponse, PowerService


class ServingError(Exception):
    """A non-2xx API response, surfaced as an exception."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = int(status)
        self.code = code
        self.message = message

    @classmethod
    def from_response(cls, response: ApiResponse) -> "ServingError":
        err = response.body.get("error", {}) if isinstance(response.body, dict) else {}
        return cls(
            response.status,
            str(err.get("code", "unknown")),
            str(err.get("message", "request failed")),
        )


class ServingClient:
    """Synchronous client bound to an in-process service."""

    def __init__(self, service: PowerService,
                 driver: Optional[SimDriver] = None) -> None:
        self.service = service
        self.driver = driver

    # -- plumbing ------------------------------------------------------
    def request(self, method: str, path: str,
                params: Optional[Dict[str, Any]] = None,
                body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        response = self.service.handle(method, path, params, body)
        if not response.ok:
            raise ServingError.from_response(response)
        return response.body

    # -- reads ---------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/health")

    def clusters(self) -> List[Dict[str, Any]]:
        return self.request("GET", "/v1/clusters")["clusters"]

    def cluster_power(self, cluster: str = "default") -> Dict[str, Any]:
        return self.request("GET", f"/v1/clusters/{cluster}/power")

    def nodes(self, cluster: str = "default", *,
              response_format: str = "concise",
              offset: int = 0, limit: int = 100) -> Dict[str, Any]:
        return self.request(
            "GET", f"/v1/clusters/{cluster}/nodes",
            {"response_format": response_format, "offset": offset, "limit": limit},
        )

    def job_output(self, jobid: int, cluster: str = "default") -> Dict[str, Any]:
        return self.request("GET", f"/v1/clusters/{cluster}/jobs/{jobid}/output")

    def queue(self, cluster: str = "default") -> Dict[str, Any]:
        return self.request("GET", f"/v1/clusters/{cluster}/queue")

    def list_jobs(self, cluster: str = "default", *, state: Optional[str] = None,
                  response_format: str = "concise",
                  page_limit: int = 100) -> Iterator[Dict[str, Any]]:
        """Iterate every job view, transparently following pagination."""
        offset = 0
        while True:
            params: Dict[str, Any] = {
                "response_format": response_format,
                "offset": offset,
                "limit": page_limit,
            }
            if state is not None:
                params["state"] = state
            page = self.request("GET", f"/v1/clusters/{cluster}/jobs", params)
            for job in page["jobs"]:
                yield job
            if page["next_offset"] is None:
                return
            offset = page["next_offset"]

    # -- writes --------------------------------------------------------
    def submit_job(self, app: str, nnodes: int, cluster: str = "default",
                   **fields: Any) -> Dict[str, Any]:
        body = {"app": app, "nnodes": nnodes, **fields}
        return self.request("POST", f"/v1/clusters/{cluster}/jobs", body=body)

    def cancel_job(self, jobid: int, cluster: str = "default") -> Dict[str, Any]:
        return self.request("DELETE", f"/v1/clusters/{cluster}/jobs/{jobid}")

    def batch(self, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return self.request("POST", "/v1/batch", body={"ops": ops})["results"]

    # -- high level ----------------------------------------------------
    def run_and_wait(self, app: str, nnodes: int, cluster: str = "default",
                     poll_s: float = 2.0, timeout_s: float = 1e7,
                     **fields: Any) -> Dict[str, Any]:
        """Submit, advance simulated time to completion, return output."""
        if self.driver is None:
            raise RuntimeError("run_and_wait needs a SimDriver-backed client")
        job = self.submit_job(app, nnodes, cluster=cluster, **fields)
        backend = self.service.registry.resolve(cluster)
        self.driver.wait_for_job(
            backend, job["jobid"], poll_s=poll_s, timeout_s=timeout_s
        )
        return self.job_output(job["jobid"], cluster=cluster)
