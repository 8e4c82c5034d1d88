"""Job lifecycle management.

The :class:`JobManager` module runs on rank 0. It accepts jobspecs,
drives them through the state machine (submitted → scheduled → running
→ completed), publishes ``job-state.*`` events over the TBON (the hook
the *state-aware* power manager subscribes to), records job metadata in
the KVS (the hook the *stateless* power monitor's client uses), and
invokes an *executor* to actually run the application on the allocated
nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.flux.broker import Broker
from repro.flux.jobspec import JobRecord, Jobspec, JobState
from repro.flux.kvs import KVSModule
from repro.flux.message import Message
from repro.flux.module import Module
from repro.flux.scheduler import Scheduler

#: An executor launches the application for a job on its allocated
#: ranks and must call ``done(jobid)`` exactly once when it finishes.
Executor = Callable[[JobRecord, Callable[[int], None]], None]


class JobManager(Module):
    """Rank-0 job manager with FCFS scheduling and job-state events."""

    name = "job-manager"

    def __init__(
        self,
        broker: Broker,
        scheduler: Scheduler,
        executor: Executor,
        kvs: Optional[KVSModule] = None,
    ) -> None:
        if broker.rank != 0:
            raise ValueError("job manager runs on rank 0 only")
        super().__init__(broker)
        self.scheduler = scheduler
        self.executor = executor
        self.kvs = kvs
        self.jobs: Dict[int, JobRecord] = {}
        self._queue: List[int] = []
        self._deps: Dict[int, List[int]] = {}
        self._next_jobid = 1

    def on_load(self) -> None:
        self.register_service("job-manager.submit", self._handle_submit)
        self.register_service("job-manager.list", self._handle_list)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: Jobspec, depends_on: Optional[List[int]] = None) -> JobRecord:
        """Submit a jobspec; returns its (live) record.

        ``depends_on`` lists jobids that must COMPLETE before this job
        becomes eligible to schedule — the workflow (DAG) hook. A
        cancelled or failed dependency cancels the dependent job.
        """
        if spec.nnodes > self.scheduler.size:
            raise ValueError(
                f"job wants {spec.nnodes} nodes; instance has {self.scheduler.size}"
            )
        deps = list(depends_on or [])
        for dep in deps:
            if dep not in self.jobs:
                raise ValueError(f"dependency {dep} is not a known job")
        record = JobRecord(
            jobid=self._next_jobid,
            spec=spec,
            t_submit=self.sim.now,
        )
        self._next_jobid += 1
        self.jobs[record.jobid] = record
        self._deps[record.jobid] = deps
        self._queue.append(record.jobid)
        self._publish_state(record)
        self._sync_kvs(record)
        # Scheduling runs as a follow-up event so that several
        # same-time submissions enqueue in submission order first.
        self.sim.schedule(0.0, self._try_schedule)
        return record

    def _deps_state(self, jobid: int) -> str:
        """'ready', 'waiting' or 'broken' for a job's dependency set."""
        states = [self.jobs[d].state for d in self._deps.get(jobid, [])]
        if any(s in (JobState.CANCELLED, JobState.FAILED) for s in states):
            return "broken"
        if all(s is JobState.COMPLETED for s in states):
            return "ready"
        return "waiting"

    def cancel(self, jobid: int) -> None:
        """Cancel a queued (not yet running) job."""
        record = self.jobs[jobid]
        if record.state is not JobState.SUBMITTED:
            raise RuntimeError(f"job {jobid} is {record.state.value}; cannot cancel")
        self._queue.remove(jobid)
        record.state = JobState.CANCELLED
        record.t_end = self.sim.now
        self._publish_state(record)
        self._sync_kvs(record)
        # Dependents of a cancelled job are cancelled on the next pass.
        self.sim.schedule(0.0, self._try_schedule)

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def _try_schedule(self) -> None:
        while True:
            # Broken dependency chains cancel their dependents first.
            for jobid in list(self._queue):
                if self._deps_state(jobid) == "broken":
                    self._queue.remove(jobid)
                    record = self.jobs[jobid]
                    record.state = JobState.CANCELLED
                    record.t_end = self.sim.now
                    self._publish_state(record)
                    self._sync_kvs(record)
            eligible = [j for j in self._queue if self._deps_state(j) == "ready"]
            requests = {j: self.jobs[j].spec.nnodes for j in eligible}
            jobid = self.scheduler.pick_next(eligible, requests)
            if jobid is None:
                return
            self._queue.remove(jobid)
            record = self.jobs[jobid]
            record.ranks = self.scheduler.allocate(record.spec.nnodes)
            record.state = JobState.SCHEDULED
            self._publish_state(record)
            self._start(record)

    def _start(self, record: JobRecord) -> None:
        record.state = JobState.RUNNING
        record.t_start = self.sim.now
        self._publish_state(record)
        self._sync_kvs(record)
        self.executor(record, self._job_done)

    def _job_done(self, jobid: int) -> None:
        self._finish(jobid, JobState.COMPLETED)

    def job_failed(self, jobid: int) -> None:
        """Terminal failure (application crash): release resources.

        Dependents of a failed job are cancelled, like a broken
        dependency chain.
        """
        self._finish(jobid, JobState.FAILED)

    def _finish(self, jobid: int, state: JobState) -> None:
        record = self.jobs[jobid]
        if record.state is not JobState.RUNNING:
            raise RuntimeError(f"job {jobid} finished twice?")
        record.state = state
        record.t_end = self.sim.now
        self.scheduler.release(record.ranks)
        self._publish_state(record)
        self._sync_kvs(record)
        self.sim.schedule(0.0, self._try_schedule)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def running_jobs(self) -> List[JobRecord]:
        return [r for r in self.jobs.values() if r.state is JobState.RUNNING]

    def all_complete(self) -> bool:
        return all(not r.state.active for r in self.jobs.values())

    def makespan_s(self) -> Optional[float]:
        """End of last job minus submit of first (the paper's metric)."""
        done = [r for r in self.jobs.values() if r.t_end is not None]
        if not done or not self.jobs:
            return None
        first_submit = min(r.t_submit for r in self.jobs.values())
        last_end = max(r.t_end for r in done)
        return last_end - first_submit

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _publish_state(self, record: JobRecord) -> None:
        self.broker.publish(
            f"job-state.{record.state.value}",
            {
                "jobid": record.jobid,
                "app": record.spec.app,
                "nnodes": record.spec.nnodes,
                "ranks": list(record.ranks),
                "user": record.spec.user,
                "t": self.sim.now,
            },
        )
        self._append_eventlog(record)

    def _append_eventlog(self, record: JobRecord) -> None:
        """RFC 21-style per-job eventlog in the KVS."""
        if self.kvs is None:
            return
        key = f"jobs.{record.jobid}.eventlog"
        log = self.kvs.get(key, default=[])
        log.append({"t": self.sim.now, "event": record.state.value})
        self.kvs.put(key, log)

    def eventlog(self, jobid: int) -> List[dict]:
        """The job's state-transition history (timestamped)."""
        if self.kvs is None:
            return []
        return list(self.kvs.get(f"jobs.{jobid}.eventlog", default=[]))

    def _sync_kvs(self, record: JobRecord) -> None:
        if self.kvs is not None:
            self.kvs.put(f"jobs.{record.jobid}", record.to_kvs())

    # ------------------------------------------------------------------
    # RPC services
    # ------------------------------------------------------------------
    def _handle_submit(self, broker: Broker, msg: Message) -> None:
        try:
            spec = Jobspec(
                app=msg.payload["app"],
                nnodes=int(msg.payload["nnodes"]),
                params=msg.payload.get("params", {}),
                launcher=msg.payload.get("launcher", "mpi"),
                user=msg.payload.get("user", "user0"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            broker.respond(msg, errnum=22, errmsg=str(exc))
            return
        try:
            record = self.submit(
                spec, depends_on=msg.payload.get("depends_on")
            )
        except ValueError as exc:
            broker.respond(msg, errnum=22, errmsg=str(exc))
            return
        broker.respond(msg, {"jobid": record.jobid})

    def _handle_list(self, broker: Broker, msg: Message) -> None:
        broker.respond(
            msg, {"jobs": [r.to_kvs() for r in self.jobs.values()]}
        )
