"""El Capitan-scale telemetry sweeps: the 10k/100k-node benchmarks.

The original ``scalability_query`` benchmark stops at Lassen's 792
nodes.  These two sweeps are the exascale follow-on: a long sampling
window over 10,000 (respectively 100,000) simulated nodes with
periodic whole-machine ``GET_JOB_POWER`` queries — the workload the
columnar sample rings (:mod:`repro.columnar`) exist for.

Both benchmarks use only public APIs on El Capitan-class nodes; each
checkout runs its own copy, so a ``repro bench --compare`` pair always
measures the tree it came from.

The reported value is end-to-end sweep throughput::

    node_samples_per_s = samples generated in the window / total wall

with total wall covering instance build + sampling window + queries;
``wall_s`` carries the same total so ``--compare`` can gate on either.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.bench.harness import BenchResult


#: The node model both sweeps build (El Capitan-class nodes).
SWEEP_PLATFORM = "elcapitan"


def _run_sweep(
    name: str,
    n_nodes: int,
    window_s: float,
    query_every_s: float,
    query_window_s: float,
    query_ranks: int,
    buffer_capacity: int,
    sample_interval_s: float = 1.0,
    fanout: int = 32,
    seed: int = 7,
) -> List[BenchResult]:
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor
    from repro.monitor.root_agent import GET_JOB_POWER_TOPIC

    t0 = time.perf_counter()
    inst = FluxInstance(
        platform=SWEEP_PLATFORM, n_nodes=n_nodes, seed=seed, fanout=fanout
    )
    attach_monitor(
        inst,
        sample_interval_s=sample_interval_s,
        buffer_capacity=buffer_capacity,
    )
    build_s = time.perf_counter() - t0

    samples_returned = 0
    query_latency_s = 0.0
    n_queries = 0
    next_query = 0.0
    t1 = time.perf_counter()
    while next_query < window_s - 1e-9:
        next_query = min(next_query + query_every_s, window_s)
        inst.run_for(max(0.0, next_query - inst.sim.now))
        fut = inst.brokers[0].rpc(
            0,
            GET_JOB_POWER_TOPIC,
            {
                "ranks": list(range(min(query_ranks, n_nodes))),
                "t_start": max(0.0, next_query - query_window_s),
                "t_end": next_query,
            },
        )
        q0 = inst.sim.now
        while not fut.triggered:
            if not inst.sim.step():
                raise RuntimeError("simulation drained before query completed")
        query_latency_s += inst.sim.now - q0
        n_queries += 1
        samples_returned += sum(len(n["samples"]) for n in fut.value["nodes"])
    sweep_s = time.perf_counter() - t1

    total_wall = build_s + sweep_s
    # One sample per node per interval tick, including the t=0 tick.
    generated = n_nodes * (int(window_s / sample_interval_s) + 1)
    params: Dict[str, Any] = {
        "n_nodes": n_nodes,
        "platform": SWEEP_PLATFORM,
        "window_s": window_s,
        "sample_interval_s": sample_interval_s,
        "buffer_capacity": buffer_capacity,
        "n_queries": n_queries,
        "query_ranks": min(query_ranks, n_nodes),
        "query_window_s": query_window_s,
        "samples_generated": generated,
        "samples_returned": samples_returned,
        "query_latency_ms": round(query_latency_s * 1e3, 3),
        "build_s": round(build_s, 3),
    }
    return [
        BenchResult(
            benchmark=name,
            metric="node_samples_per_s",
            value=generated / total_wall,
            wall_s=total_wall,
            params=params,
        )
    ]


def sweep_10k(quick: bool) -> List[BenchResult]:
    """10,000-node sampling sweep with whole-machine queries.

    A 1200 s window at 1 Hz (12M node samples) with a whole-machine
    job-power query every 600 s over the trailing 30 s — the ISSUE-8
    headline number (≥10x over the scalar path).
    """
    if quick:
        return _run_sweep(
            "sweep_10k",
            n_nodes=1_000,
            window_s=120.0,
            query_every_s=60.0,
            query_window_s=15.0,
            query_ranks=1_000,
            buffer_capacity=32,
        )
    return _run_sweep(
        "sweep_10k",
        n_nodes=10_000,
        window_s=1200.0,
        query_every_s=600.0,
        query_window_s=30.0,
        query_ranks=10_000,
        buffer_capacity=64,
    )


def sweep_100k(quick: bool) -> List[BenchResult]:
    """100,000-node sampling sweep, querying a 10k-rank slice.

    At this size the whole-machine query payload would dwarf the
    sampling work being measured, so the periodic query covers a
    10,000-rank subset — big enough to exercise the fan-out path,
    small enough that vectorised sampling stays the subject.
    """
    if quick:
        return _run_sweep(
            "sweep_100k",
            n_nodes=4_000,
            window_s=60.0,
            query_every_s=60.0,
            query_window_s=10.0,
            query_ranks=2_000,
            buffer_capacity=8,
        )
    return _run_sweep(
        "sweep_100k",
        n_nodes=100_000,
        window_s=120.0,
        query_every_s=120.0,
        query_window_s=15.0,
        query_ranks=10_000,
        buffer_capacity=16,
    )
