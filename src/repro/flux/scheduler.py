"""Node allocation: first-come-first-served whole-node scheduling.

The paper's queue experiment (Section IV-E) notes "Flux schedules these
jobs as any regular resource manager would"; plain FCFS is sufficient
and keeps makespans deterministic.
"""

from __future__ import annotations

from typing import List, Optional, Set


class Scheduler:
    """Tracks free broker ranks and allocates them to jobs.

    Parameters
    ----------
    size:
        Total node (rank) count.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("scheduler needs at least one node")
        self.size = size
        self._free: Set[int] = set(range(size))

    @property
    def free_count(self) -> int:
        return len(self._free)

    def can_allocate(self, nnodes: int) -> bool:
        return nnodes <= len(self._free)

    def allocate(self, nnodes: int) -> List[int]:
        """Allocate the ``nnodes`` lowest free ranks (deterministic)."""
        if nnodes > len(self._free):
            raise RuntimeError(
                f"cannot allocate {nnodes} nodes; only {len(self._free)} free"
            )
        if nnodes < 1:
            raise ValueError("must allocate at least one node")
        ranks = sorted(self._free)[:nnodes]
        self._free.difference_update(ranks)
        return ranks

    def release(self, ranks: List[int]) -> None:
        """Return ranks to the free pool."""
        for r in ranks:
            if r in self._free:
                raise RuntimeError(f"rank {r} released twice")
            if not (0 <= r < self.size):
                raise ValueError(f"rank {r} out of range")
        self._free.update(ranks)

    def pick_next(self, queue: List[int], requests: dict) -> Optional[int]:
        """Choose which queued jobid (if any) can start now.

        ``queue`` is jobids in submission order; ``requests`` maps jobid
        to node count. FCFS: only the head is considered.
        """
        if queue and self.can_allocate(requests[queue[0]]):
            return queue[0]
        return None
