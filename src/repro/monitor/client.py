"""External telemetry client.

The paper's client is a Python script: give it a job identifier and it
resolves the job's nodes and time window, asks the root agent for the
matching power samples, and writes a CSV with a column saying whether
each node had a complete data set or a partial one (buffer wrap).

Here the client drives the simulator while it waits for its RPCs, which
is the analogue of an external process blocking on a Flux RPC.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.flux.instance import FluxInstance
from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

CSV_HEADER = (
    "jobid,hostname,timestamp,power_node_watts,power_cpu_watts,"
    "power_mem_watts,power_gpu_watts,node_data_complete"
)


def component_powers(sample: Dict[str, Any]) -> Dict[str, float]:
    """Aggregate a Variorum JSON sample into CPU/mem/GPU totals.

    On IBM, per-GPU keys (``power_gpu_watts_gpu_*``) are preferred over
    the per-socket aggregates to avoid double counting; on AMD only
    per-OAM keys exist.
    """
    cpu = sum(v for k, v in sample.items() if k.startswith("power_cpu_watts"))
    mem = sum(v for k, v in sample.items() if k.startswith("power_mem_watts"))
    gpu_keys = [k for k in sample if k.startswith("power_gpu_watts_gpu_")]
    if not gpu_keys:
        gpu_keys = [k for k in sample if k.startswith("power_gpu_watts_oam_")]
    if not gpu_keys:
        gpu_keys = [k for k in sample if k.startswith("power_gpu_watts_socket_")]
    gpu = sum(sample[k] for k in gpu_keys)
    return {
        "cpu_w": float(cpu),
        "mem_w": float(mem),
        "gpu_w": float(gpu),
        "node_w": float(sample.get("power_node_watts", 0.0)),
    }


@dataclass
class JobPowerData:
    """Telemetry for one job: per-node sample rows + completeness flags."""

    jobid: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    node_complete: Dict[str, bool] = field(default_factory=dict)
    #: hostname -> error string for nodes whose agent never answered
    #: (crashed/hung node; see docs/failures.md). Such nodes appear in
    #: ``node_complete`` as False with zero rows.
    node_error: Dict[str, str] = field(default_factory=dict)

    @property
    def hostnames(self) -> List[str]:
        return sorted(self.node_complete)

    @property
    def complete(self) -> bool:
        """True when every node had full coverage of the job window."""
        return all(self.node_complete.values())

    def samples_for(self, hostname: str) -> List[Dict[str, Any]]:
        return [r for r in self.rows if r["hostname"] == hostname]

    # ------------------------------------------------------------------
    # Aggregates (what Fig 2 / Table II report)
    # ------------------------------------------------------------------
    def mean(self, column: str) -> float:
        """Mean of one power column over all rows (all nodes, all times)."""
        if not self.rows:
            raise ValueError("no telemetry rows")
        return sum(r[column] for r in self.rows) / len(self.rows)

    def max_node_power_w(self) -> float:
        """Max sampled node power across all nodes and times."""
        return max(r["node_w"] for r in self.rows)

    # ------------------------------------------------------------------
    # CSV (the client's user-facing artefact)
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        hosts_with_rows = set()
        for r in self.rows:
            hosts_with_rows.add(r["hostname"])
            buf.write(
                f"{self.jobid},{r['hostname']},{r['timestamp']:.3f},"
                f"{r['node_w']:.3f},{r['cpu_w']:.3f},{r['mem_w']:.3f},"
                f"{r['gpu_w']:.3f},"
                f"{'complete' if self.node_complete[r['hostname']] else 'partial'}\n"
            )
        # A node with zero in-window samples (fully flushed buffer, or a
        # dead node's error record) must still be visible in the
        # artefact: emit an explicit marker row with empty value fields
        # rather than silently omitting the host.
        for host in self.hostnames:
            if host not in hosts_with_rows:
                buf.write(f"{self.jobid},{host},,,,,,partial\n")
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


class PowerMonitorClient:
    """External client for job-level telemetry.

    Parameters
    ----------
    instance:
        The Flux instance whose root agent serves requests.
    """

    def __init__(self, instance: FluxInstance) -> None:
        self.instance = instance

    def fetch(self, jobid: int, timeout_s: float = 60.0) -> JobPowerData:
        """Collect the job's telemetry; drives the simulator while waiting."""
        record = self.instance.kvs.get(f"jobs.{jobid}")
        if record is None:
            raise KeyError(f"no such job {jobid}")
        if record["t_start"] is None:
            raise RuntimeError(f"job {jobid} has not started; no telemetry window")
        t_start = float(record["t_start"])
        t_end = float(record["t_end"]) if record["t_end"] is not None else self.instance.sim.now

        broker0 = self.instance.brokers[0]
        future = broker0.rpc(
            0,
            GET_JOB_POWER_TOPIC,
            {"ranks": record["ranks"], "t_start": t_start, "t_end": t_end},
        )
        deadline = self.instance.sim.now + timeout_s
        while not future.triggered:
            if not self.instance.sim.step():
                raise RuntimeError("simulation drained before telemetry arrived")
            if self.instance.sim.now > deadline:
                raise TimeoutError("telemetry request timed out")
        payload = future.value  # raises FluxRPCError on service failure

        data = JobPowerData(jobid=jobid)
        for node_result in payload["nodes"]:
            host = node_result["hostname"]
            data.node_complete[host] = bool(node_result["complete"])
            if node_result.get("error"):
                # Degradation record: the node agent never answered
                # (crashed/hung/partitioned). No samples; flagged partial.
                data.node_error[host] = str(node_result["error"])
                continue
            for sample in node_result["samples"]:
                row = component_powers(sample)
                row["hostname"] = host
                row["timestamp"] = float(sample["timestamp"])
                data.rows.append(row)
        data.rows.sort(key=lambda r: (r["hostname"], r["timestamp"]))
        return data
