"""Broker modules (RFC 5 analogue).

A module is a dynamically loadable broker plugin: it has its own
control flow (timers / processes on the shared simulator) and interacts
with the rest of Flux exclusively through messages. The base class
tracks every service, subscription and timer a module creates so that
unloading tears all of it down — the monitor-overhead experiments load
and unload modules repeatedly. Of the processes it spawns, a module
holds only the live ones: a process that finishes is forgotten at once,
so a long-running module that spawns per request (the root agent's
collector and watchers) keeps no finished process or its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.flux.broker import Broker, ServiceHandler
from repro.flux.message import Message, RPCTimeoutError
from repro.simkernel import AnyOf, PeriodicTimer, Process, SimEvent, Timeout


@dataclass(frozen=True)
class RetryConfig:
    """Per-RPC timeout and bounded retry/backoff policy.

    Production TBON peers can die or hang silently — a request then
    simply never gets a response. Any module fanning out RPCs uses this
    policy (via :meth:`Module.rpc_with_retry`) to bound how long it
    waits per node and how hard it retries before degrading to a
    per-node error instead of stalling or failing the whole operation.

    Attributes
    ----------
    timeout_s:
        How long to wait for the first attempt's response.
    retries:
        Additional attempts after the first (0 disables retrying).
    backoff:
        Multiplier on the timeout between attempts (exponential).
    """

    timeout_s: float = 5.0
    retries: int = 2
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {self.backoff}")


class Module:
    """Base class for broker modules.

    Subclasses override :meth:`on_load` (register services, start
    timers) and optionally :meth:`on_unload`. Use the provided
    ``register_service`` / ``subscribe`` / ``add_timer`` / ``spawn``
    helpers rather than going to the broker directly, so teardown is
    automatic.
    """

    #: Subclasses set this; it is the `flux module load` name.
    name: str = "module"

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self.sim = broker.sim
        self._topics: List[str] = []
        self._subs: List[Tuple[str, Callable[[Message], None]]] = []
        self._timers: List[PeriodicTimer] = []
        #: Live processes in spawn order (a dict for O(1) forgetting).
        self._procs: Dict[Process, None] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_load(self) -> None:
        """Called when the broker loads the module."""

    def on_unload(self) -> None:
        """Called just before teardown on unload."""

    def teardown(self) -> None:
        """Tear down everything this module created (idempotent)."""
        for topic in self._topics:
            self.broker.unregister_service(topic)
        self._topics.clear()
        for prefix, cb in self._subs:
            self.broker.unsubscribe(prefix, cb)
        self._subs.clear()
        for t in self._timers:
            t.stop()
        self._timers.clear()
        for p in list(self._procs):  # a killed process forgets itself
            p.kill()
        self._procs.clear()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def register_service(self, topic: str, handler: ServiceHandler) -> None:
        self.broker.register_service(topic, handler)
        self._topics.append(topic)

    def subscribe(self, prefix: str, callback: Callable[[Message], None]) -> None:
        self.broker.subscribe(prefix, callback)
        self._subs.append((prefix, callback))

    def add_timer(
        self,
        period: float,
        callback: Callable[[PeriodicTimer], Any],
        start_delay: Optional[float] = None,
    ) -> PeriodicTimer:
        timer = PeriodicTimer(self.sim, period, callback, start_delay=start_delay)
        self._timers.append(timer)
        return timer

    def spawn(self, gen, name: Optional[str] = None) -> Process:
        proc = Process(self.sim, gen, name=name or f"{self.name}@{self.broker.rank}")
        proc._on_finish = self._forget
        self._procs[proc] = None
        return proc

    def _forget(self, proc: Process) -> None:
        self._procs.pop(proc, None)

    def rpc(
        self, dst_rank: int, topic: str, payload: Optional[Dict[str, Any]] = None
    ) -> SimEvent:
        return self.broker.rpc(dst_rank, topic, payload)

    def rpc_with_retry(
        self,
        dst_rank: int,
        topic: str,
        payload: Optional[Dict[str, Any]] = None,
        retry: Optional[RetryConfig] = None,
        first_future: Optional[SimEvent] = None,
    ):
        """Generator: RPC with per-attempt timeout and bounded retries.

        Yield from inside a spawned process::

            res = yield from self.rpc_with_retry(rank, topic, payload)

        Returns the response payload; raises
        :class:`~repro.flux.message.RPCTimeoutError` once every attempt
        has timed out, or :class:`~repro.flux.message.FluxRPCError` if
        the service answered with an errnum (error responses are not
        retried — the peer is alive, it just refused).

        ``first_future`` lets a caller that already sent the request
        (to keep a fan-out's send order deterministic) hand over the
        pending future; retries re-send ``payload`` themselves. Each
        timeout/resend is counted (``rpc_timeouts_total`` /
        ``rpc_retries_total``); a late response to an abandoned attempt
        is delivered to its orphaned future and ignored.
        """
        cfg = retry if retry is not None else RetryConfig()
        metrics = self.broker.telemetry.metrics
        future = (
            first_future
            if first_future is not None
            else self.rpc(dst_rank, topic, payload)
        )
        timeout_s = cfg.timeout_s
        for attempt in range(cfg.retries + 1):
            idx, res = yield AnyOf(self.sim, [future, Timeout(timeout_s)])
            if idx == 0:
                return res
            metrics.counter(
                "rpc_timeouts_total",
                labels={"topic": topic},
                help="RPC attempts abandoned after their per-attempt timeout",
            ).inc()
            if attempt < cfg.retries:
                metrics.counter(
                    "rpc_retries_total",
                    labels={"topic": topic},
                    help="RPC requests re-sent after a timed-out attempt",
                ).inc()
                timeout_s *= cfg.backoff
                future = self.rpc(dst_rank, topic, payload)
        raise RPCTimeoutError(topic, dst_rank, cfg.retries + 1)
