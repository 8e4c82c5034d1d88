"""User-level (nested) Flux instances.

Section II-B: "A system-level Flux instance manages all the resources,
users, and high-level policies ... When a user requests a job, they are
allocated their own user-level Flux instance, allowing them to
customize the scheduling policy within their instance." Section I adds
that *power* policies are equally customisable per user.

:func:`spawn_user_instance` submits a ``flux-instance`` pseudo-job to a
system instance; once the allocation is granted, it bootstraps a fresh
broker tree over exactly the allocated hardware nodes, sharing the
parent's simulator. The user then loads their own monitor/manager
modules (with their own policy) and submits inner jobs. Closing the
user instance releases the allocation back to the system instance.
"""

from __future__ import annotations

from repro.flux.instance import FluxInstance
from repro.flux.jobspec import JobRecord, Jobspec, JobState


class UserInstance(FluxInstance):
    """A nested Flux instance over a parent allocation.

    Created through :func:`spawn_user_instance`, not directly. Inner
    broker ranks 0..N-1 map onto the parent's allocated nodes in rank
    order; the first allocated node hosts the inner TBON root.
    """

    def __init__(
        self,
        parent: FluxInstance,
        allocation: JobRecord,
        seed: int = 0,
    ) -> None:
        if allocation.state is not JobState.RUNNING:
            raise RuntimeError(
                f"allocation job {allocation.jobid} is {allocation.state.value}; "
                "a user instance needs a running allocation"
            )
        if allocation.spec.app != "flux-instance":
            raise ValueError("allocation must be a flux-instance pseudo-job")
        nodes = [parent.nodes[r] for r in allocation.ranks]
        super().__init__(
            platform=parent.platform,
            seed=seed,
            nodes=nodes,
            sim=parent.sim,
        )
        self.parent = parent
        self.allocation = allocation
        self._closed = False

    def close(self) -> None:
        """Exit the user instance: release the parent allocation.

        Refuses while inner jobs are still active — a real instance
        drains before the enclosing job completes.
        """
        if self._closed:
            return
        if not self.jobmanager.all_complete():
            raise RuntimeError("user instance still has active jobs")
        self._closed = True
        self.parent.finish_nested(self.allocation.jobid)

    def submit(self, spec: Jobspec, depends_on=None) -> JobRecord:
        if self._closed:
            raise RuntimeError("user instance is closed")
        return super().submit(spec, depends_on=depends_on)


def spawn_user_instance(
    parent: FluxInstance,
    nnodes: int,
    user: str = "user0",
    seed: int = 0,
    timeout_s: float = 1e6,
) -> UserInstance:
    """Request an allocation from ``parent`` and bootstrap an instance.

    Blocks (drives the shared simulator) until the allocation is
    granted — like ``flux alloc`` from a login node.
    """
    record = parent.submit(
        Jobspec(app="flux-instance", nnodes=nnodes, user=user, launcher="non-mpi")
    )
    deadline = parent.sim.now + timeout_s
    while record.state is not JobState.RUNNING:
        if not parent.sim.step():
            raise RuntimeError("simulation drained before allocation was granted")
        if parent.sim.now > deadline:
            raise TimeoutError(f"allocation for {nnodes} nodes not granted in time")
    return UserInstance(parent, record, seed=seed)
