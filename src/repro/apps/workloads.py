"""Workload and job-queue generators.

Section IV-E evaluates the power policies on "a real job queue with 10
jobs on a 16-node allocation ... a random mix of the four applications,
with each application requesting between 1-8 nodes. The job queue had 3
jobs with Laghos, 2 with Quicksilver, 3 with LAMMPS and 2 with GEMM."
:func:`make_random_queue` reproduces exactly that composition with a
seeded shuffle of submission order and node counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.flux.jobspec import Jobspec

#: The paper's queue composition (Section IV-E).
PAPER_QUEUE_MIX: Dict[str, int] = {
    "laghos": 3,
    "quicksilver": 2,
    "lammps": 3,
    "gemm": 2,
}


@dataclass(frozen=True)
class QueueJob:
    """One queue entry: a jobspec plus its submission offset."""

    spec: Jobspec
    submit_offset_s: float = 0.0


def make_random_queue(
    rng: np.random.Generator,
    mix: Optional[Dict[str, int]] = None,
    min_nodes: int = 1,
    max_nodes: int = 8,
    work_scales: Optional[Dict[str, float]] = None,
    submit_spread_s: float = 0.0,
) -> List[QueueJob]:
    """Generate a seeded random job queue.

    Parameters
    ----------
    rng:
        Seeded generator — the same seed always yields the same queue.
    mix:
        app name → job count; defaults to the paper's 3/2/3/2 mix.
    min_nodes / max_nodes:
        Uniform node-count range per job (paper: 1–8).
    work_scales:
        Optional per-app problem-size multiplier carried in job params.
    submit_spread_s:
        Jobs are submitted at uniform random offsets in
        ``[0, submit_spread_s]`` (0 = all at t=0, like a drained queue).
    """
    mix = dict(PAPER_QUEUE_MIX if mix is None else mix)
    work_scales = work_scales or {}
    entries: List[QueueJob] = []
    idx = 0
    for app in sorted(mix):
        for _ in range(mix[app]):
            nnodes = int(rng.integers(min_nodes, max_nodes + 1))
            offset = (
                float(rng.uniform(0.0, submit_spread_s)) if submit_spread_s > 0 else 0.0
            )
            params: Dict[str, float] = {}
            if app in work_scales:
                params["work_scale"] = work_scales[app]
            entries.append(
                QueueJob(
                    spec=Jobspec(
                        app=app, nnodes=nnodes, params=params, name=f"{app}-{idx}"
                    ),
                    submit_offset_s=offset,
                )
            )
            idx += 1
    # Shuffle submission order so apps interleave like a real queue.
    order = rng.permutation(len(entries))
    return [entries[i] for i in order]
