"""Shared seeded scenarios for the byte-identity golden tests.

The fixtures under ``tests/golden/`` were generated from the pre-ISSUE-3
hot path (dataclass event heap, per-node sample timers, unmemoised
payload sizing). The optimized engine must reproduce them byte for byte
— that is the determinism contract the perf work rides on. Regenerate
(only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src:tests python tests/golden_scenarios.py --write

Each scenario is a 16-node Lassen cluster, seed 33, two jobs (gemm on 8
nodes, quicksilver on 4), proportional manager — run with each
aggregation strategy, with and without a crash/restart fault. The
restart lands exactly on the 2 s sampling grid (t=16.0) on purpose: the
reloaded agent enrols at the instant its group's next tick is pending
and joins that group, which takes that tick's sample with no catch-up.
The after-tick catch-up sample is pinned in tests/test_one_sample_ring.py.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.cluster import PowerManagedCluster
from repro.faults import FaultEvent, FaultPlan
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SCENARIOS: Dict[str, Dict[str, object]] = {
    "plain_fanout": {"strategy": "fanout", "faults": False},
    "plain_tree": {"strategy": "tree", "faults": False},
    "faults_fanout": {"strategy": "fanout", "faults": True},
    "faults_tree": {"strategy": "tree", "faults": True},
}


def run_scenario(strategy: str, faults: bool) -> Tuple[str, str]:
    """Run one scenario; return ``(csv_blob, prometheus_text)``."""
    plan = None
    if faults:
        plan = FaultPlan(
            [
                FaultEvent(t=9.5, kind="crash", rank=5),
                FaultEvent(t=16.0, kind="restart", rank=5),
            ]
        )
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=16,
        seed=33,
        manager_config=ManagerConfig(
            global_cap_w=19_200.0, policy="proportional", static_node_cap_w=1950.0
        ),
        fault_plan=plan,
        monitor_strategy=strategy,
    )
    jobs = [
        cluster.submit(Jobspec(app="gemm", nnodes=8, params={"work_scale": 2.0})),
        cluster.submit(Jobspec(app="quicksilver", nnodes=4, params={"work_scale": 2.0})),
    ]
    cluster.run_until_complete(timeout_s=1_000_000)
    cluster.run_for(4.0)
    csv_blob = "".join(
        cluster.monitor.client.fetch(job.jobid, timeout_s=300.0).to_csv()
        for job in jobs
    )
    prom = cluster.telemetry_hub.metrics.to_prometheus()
    return csv_blob, prom


def fixture_paths(name: str) -> Tuple[str, str]:
    return (
        os.path.join(GOLDEN_DIR, f"{name}.csv"),
        os.path.join(GOLDEN_DIR, f"{name}.prom"),
    )


def write_fixtures() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, spec in SCENARIOS.items():
        csv_blob, prom = run_scenario(spec["strategy"], spec["faults"])
        csv_path, prom_path = fixture_paths(name)
        with open(csv_path, "w") as fh:
            fh.write(csv_blob)
        with open(prom_path, "w") as fh:
            fh.write(prom)
        print(f"wrote {csv_path} ({len(csv_blob)} B), {prom_path} ({len(prom)} B)")


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        raise SystemExit("refusing to overwrite goldens without --write")
    write_fixtures()
