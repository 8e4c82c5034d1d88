"""The benchmark suite: engine micros plus scalability/policy macros.

Each benchmark is a plain callable ``fn(quick) -> list[BenchResult]``
using only public APIs, so the same suite runs unchanged before and
after hot-path work — that is what makes the ``BENCH_*.json``
trajectory comparable across PRs.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List

from repro.bench.harness import BenchResult
from repro.bench.sweeps import sweep_10k, sweep_100k


def _quiesce() -> None:
    """Collect leftover garbage so one benchmark's dead object graphs
    (instances, buffers, process frames) don't inflate the next timed
    region through generational GC pressure. Standard bench hygiene —
    applied identically to every measurement, including baselines.
    """
    gc.collect()

# ---------------------------------------------------------------------------
# engine micro-benchmarks
# ---------------------------------------------------------------------------


def engine_prescheduled(quick: bool) -> List[BenchResult]:
    """Heap push/pop throughput: schedule N one-shot events, drain them."""
    from repro.simkernel.engine import Simulator

    n = 50_000 if quick else 500_000
    sim = Simulator()
    sink = [0]

    def cb() -> None:
        sink[0] += 1

    _quiesce()
    t0 = time.perf_counter()
    for i in range(n):
        # Deterministic scattered times so the heap actually reorders.
        sim.schedule((i * 37 % 1009) / 1000.0, cb)
    sim.run()
    wall = time.perf_counter() - t0
    assert sink[0] == n
    return [
        BenchResult(
            benchmark="engine_prescheduled",
            metric="events_per_s",
            value=n / wall,
            wall_s=wall,
            params={"n_events": n},
        )
    ]


def engine_periodic(quick: bool) -> List[BenchResult]:
    """Periodic-timer tick throughput (the monitor's sampling shape)."""
    from repro.simkernel.engine import Simulator
    from repro.simkernel.timers import PeriodicTimer

    n_timers = 64 if quick else 256
    horizon = 200.0 if quick else 1000.0
    sim = Simulator()
    ticks = [0]

    def cb(_timer: PeriodicTimer) -> None:
        ticks[0] += 1

    timers = [
        PeriodicTimer(sim, period=1.0, callback=cb, start_delay=0.0)
        for _ in range(n_timers)
    ]
    _quiesce()
    t0 = time.perf_counter()
    sim.run(until=horizon)
    wall = time.perf_counter() - t0
    for timer in timers:
        timer.stop()
    return [
        BenchResult(
            benchmark="engine_periodic",
            metric="events_per_s",
            value=ticks[0] / wall,
            wall_s=wall,
            params={"n_timers": n_timers, "horizon_s": horizon, "ticks": ticks[0]},
        )
    ]


def engine_cancel_churn(quick: bool) -> List[BenchResult]:
    """Schedule/cancel churn: half the events are cancelled before firing.

    Exercises ``cancel()``, the O(1) ``pending()`` counter and heap
    compaction; ops/s counts scheduled + cancelled + fired operations.
    """
    from repro.simkernel.engine import Simulator

    n = 40_000 if quick else 400_000
    sim = Simulator()
    fired = [0]

    def cb() -> None:
        fired[0] += 1

    _quiesce()
    t0 = time.perf_counter()
    handles = [sim.schedule((i % 997) / 100.0, cb) for i in range(n)]
    for handle in handles[::2]:
        handle.cancel()
    live = sim.pending()
    sim.run()
    wall = time.perf_counter() - t0
    assert fired[0] == live == n - len(handles[::2])
    ops = n + n // 2 + fired[0]
    return [
        BenchResult(
            benchmark="engine_cancel_churn",
            metric="ops_per_s",
            value=ops / wall,
            wall_s=wall,
            params={"n_events": n, "n_cancelled": n // 2},
        )
    ]


# ---------------------------------------------------------------------------
# macro benchmarks (paper-scale paths)
# ---------------------------------------------------------------------------


def scalability_query(quick: bool) -> List[BenchResult]:
    """The 792-node whole-machine power query (both strategies).

    This is the ISSUE-3 headline target: wall-clock of simulating a
    60 s sampling window on Lassen's full 792 nodes plus one
    GET_JOB_POWER query over every rank.
    """
    from repro.experiments.scalability import measure_scale_point

    n_nodes = 96 if quick else 792
    results: List[BenchResult] = []
    total = 0.0
    for strategy in ("fanout", "tree"):
        _quiesce()
        t0 = time.perf_counter()
        cell = measure_scale_point(n_nodes, strategy)
        wall = time.perf_counter() - t0
        total += wall
        results.append(
            BenchResult(
                benchmark=f"scalability_{strategy}",
                metric="wall_s",
                value=wall,
                wall_s=wall,
                params={
                    "n_nodes": n_nodes,
                    "window_s": 60.0,
                    "samples_returned": cell.samples_returned,
                    "query_latency_ms": round(cell.query_latency_s * 1e3, 3),
                },
            )
        )
    results.append(
        BenchResult(
            benchmark="scalability_sweep",
            metric="wall_s",
            value=total,
            wall_s=total,
            params={"n_nodes": n_nodes, "strategies": ["fanout", "tree"]},
        )
    )
    return results


def table4_policy(quick: bool) -> List[BenchResult]:
    """One Table-IV policy scenario end to end (manager + FPP + jobs)."""
    from repro.experiments.table4_policies import run_policy_scenario

    _quiesce()
    t0 = time.perf_counter()
    scenario = run_policy_scenario("proportional", seed=1)
    wall = time.perf_counter() - t0
    n_jobs = len(scenario.metrics)
    return [
        BenchResult(
            benchmark="table4_policy",
            metric="wall_s",
            value=wall,
            wall_s=wall,
            params={"policy": "proportional", "seed": 1, "n_jobs": n_jobs},
        )
    ]


BENCHMARKS: Dict[str, Callable[[bool], List[BenchResult]]] = {
    "engine_prescheduled": engine_prescheduled,
    "engine_periodic": engine_periodic,
    "engine_cancel_churn": engine_cancel_churn,
    "scalability_query": scalability_query,
    "table4_policy": table4_policy,
    "sweep_10k": sweep_10k,
    "sweep_100k": sweep_100k,
}


def default_suite(only: str = "") -> List[Callable[[bool], List[BenchResult]]]:
    """All benchmarks, optionally filtered by a name substring."""
    return [fn for name, fn in BENCHMARKS.items() if only in name]
