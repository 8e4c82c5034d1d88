"""The monitor's root agent (TBON rank 0).

Serves external clients: a ``power-monitor.get-job-power`` request
carries a job's ranks and time window; the root agent fans RPCs out to
the node agents, gathers their buffered samples, and relays the
aggregate back. Two collection strategies are provided:

* ``"fanout"`` (default) — the root RPCs every node agent directly.
  This is what the paper's implementation does.
* ``"tree"`` — requests aggregate hierarchically along the TBON (each
  broker collects its subtree). Same result; fewer root-link messages.
  Exercised by the TBON ablation bench.

Collection degrades per node rather than failing whole queries: each
fan-out leg runs a per-node timeout with bounded retry/backoff
(:class:`~repro.flux.module.RetryConfig`), and a node that never
answers contributes an *error record* — same shape as a node result but
with empty samples, ``complete=False`` and an ``error`` string — so one
dead node agent marks one CSV row partial instead of turning the whole
job query into an errnum=5 failure. See docs/failures.md.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.flux.broker import Broker
from repro.flux.message import (
    CachedSizeDict,
    FluxRPCError,
    Message,
    estimate_payload_bytes,
)
from repro.flux.module import Module, RetryConfig
from repro.monitor.node_agent import QUERY_TOPIC
from repro.simkernel import AllOf, SimEvent
from repro.telemetry import AGGREGATION_COST_PER_NODE_S

GET_JOB_POWER_TOPIC = "power-monitor.get-job-power"
SUBTREE_TOPIC = "power-monitor.query-subtree"


def _exhaust_budget(cfg: RetryConfig) -> float:
    """Worst-case wall time before a node leg gives up (all attempts)."""
    return cfg.timeout_s * sum(cfg.backoff ** i for i in range(cfg.retries + 1))


def _subtree_retry(cfg: RetryConfig, overlay, child: int, subranks) -> RetryConfig:
    """Timeout policy for one subtree leg of the tree strategy.

    A live aggregator always answers — worst case after its deepest
    descendant leg exhausts its node-level retries — so re-sending a
    subtree query is never useful (it would just restart the child's
    collection); what matters is waiting long enough. The single-attempt
    timeout covers the node-leg exhaust budget plus one ``timeout_s`` of
    slack per tree level below us, so each level's deadline strictly
    contains its children's.
    """
    height = max(overlay.depth(r) for r in subranks) - overlay.depth(child) + 1
    return RetryConfig(
        timeout_s=_exhaust_budget(cfg) + height * cfg.timeout_s,
        retries=0,
        backoff=cfg.backoff,
    )


def _subtree_query(
    sub: List[int], t0: float, t1: float, extra: Dict[str, Any]
) -> Dict[str, Any]:
    """Build one subtree-leg query payload, pre-priced.

    The estimator charges a fixed 8 bytes per numeric leaf, so the
    payload's wire size is the size of the same payload with an empty
    rank list plus 8 bytes per rank — computed arithmetically instead
    of walking rank lists that collectively cover the whole subtree at
    every level of the TBON.
    """
    payload = CachedSizeDict(ranks=sub, t_start=t0, t_end=t1, **extra)
    probe = dict(payload)
    probe["ranks"] = ()
    payload._size_cache = estimate_payload_bytes(probe) + 8 * len(sub)
    return payload


def _merge_legs(results: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Flatten per-leg record lists in leg order, without copying records.

    A lone leg's list is passed through as-is: response payloads are
    write-once after they are handed to ``respond``, so an aggregator
    can forward its only child's list up the tree instead of rebuilding
    it at every level.
    """
    if len(results) == 1:
        return results[0]
    merged: List[Dict[str, Any]] = []
    for leg in results:
        merged.extend(leg)
    return merged


def _error_records(
    broker: Broker, ranks, exc: Exception
) -> List[Dict[str, Any]]:
    """Per-node degradation records for ranks that never answered."""
    records = []
    for rank in sorted(ranks):
        peer = broker._registry.get(rank)
        hostname = (
            peer.node.hostname
            if peer is not None and peer.node is not None
            else f"rank{rank}"
        )
        records.append(
            {
                "hostname": hostname,
                "rank": rank,
                "samples": [],
                "complete": False,
                "downsampled": False,
                "error": str(exc),
                "errnum": getattr(exc, "errnum", 5),
            }
        )
    return records


class RootAgentModule(Module):
    """Aggregates job telemetry from node agents for external clients."""

    name = "power-monitor-root"

    def __init__(
        self,
        broker: Broker,
        strategy: str = "fanout",
        retry: Optional[RetryConfig] = None,
    ) -> None:
        if broker.rank != 0:
            raise ValueError("root agent runs at the TBON root (rank 0)")
        if strategy not in ("fanout", "tree"):
            raise ValueError(f"unknown strategy {strategy!r}")
        super().__init__(broker)
        self.strategy = strategy
        self.retry = retry if retry is not None else RetryConfig()

    def on_load(self) -> None:
        self.register_service(GET_JOB_POWER_TOPIC, self._handle_get_job_power)

    # ------------------------------------------------------------------
    # Client-facing service
    # ------------------------------------------------------------------
    def _handle_get_job_power(self, broker: Broker, msg: Message) -> None:
        try:
            ranks = [int(r) for r in msg.payload["ranks"]]
            t_start = float(msg.payload["t_start"])
            t_end = float(msg.payload["t_end"])
        except (KeyError, TypeError, ValueError):
            broker.respond(msg, errnum=22, errmsg="need ranks, t_start, t_end")
            return
        if not ranks:
            broker.respond(msg, errnum=22, errmsg="empty rank list")
            return
        if math.isnan(t_start) or math.isnan(t_end):
            broker.respond(msg, errnum=22, errmsg="NaN t_start/t_end")
            return
        max_samples = msg.payload.get("max_samples")
        self.broker.telemetry.metrics.counter(
            "monitor_aggregations_total",
            labels={"strategy": self.strategy},
            help="job-power aggregation requests served by the root agent",
        ).inc()
        if self.strategy == "tree":
            self.spawn(self._collect_tree(msg, ranks, t_start, t_end, max_samples))
        else:
            self.spawn(self._collect_fanout(msg, ranks, t_start, t_end, max_samples))

    def _finish_aggregation(
        self, t_start: float, n_ranks: int, nodes: List[Dict[str, Any]]
    ) -> None:
        """Record latency/trace/overhead for one completed aggregation."""
        tel = self.broker.telemetry
        tel.metrics.histogram(
            "monitor_aggregation_latency_seconds",
            help="root-agent fan-in latency, request arrival to response",
        ).observe(self.sim.now - t_start)
        tel.tracer.span(
            "monitor.aggregate", "monitor", t_start, rank=self.broker.rank,
            nodes=n_ranks, strategy=self.strategy,
        )
        tel.accountant.charge("monitor", AGGREGATION_COST_PER_NODE_S * n_ranks)
        n_errors = sum(1 for rec in nodes if rec.get("error"))
        if n_errors:
            tel.metrics.counter(
                "monitor_degraded_aggregations_total",
                labels={"strategy": self.strategy},
                help="aggregations that completed with >= 1 per-node error record",
            ).inc()
            tel.tracer.instant(
                "monitor.degraded", "monitor", rank=self.broker.rank,
                failed_nodes=n_errors, of=n_ranks, strategy=self.strategy,
            )

    def _watch_node(self, rank: int, query: Dict[str, Any], future: SimEvent):
        """One fan-out leg: retry the node query, degrade on exhaustion."""
        try:
            res = yield from self.rpc_with_retry(
                rank, QUERY_TOPIC, query, retry=self.retry, first_future=future
            )
            return [res]
        except FluxRPCError as exc:
            return _error_records(self.broker, [rank], exc)

    def _watch_subtree(self, child: int, subranks, payload, future: SimEvent):
        """One tree leg: a dead child degrades its whole subtree."""
        try:
            res = yield from self.rpc_with_retry(
                child, SUBTREE_TOPIC, payload,
                retry=_subtree_retry(
                    self.retry, self.broker.overlay, child, subranks
                ),
                first_future=future,
            )
            return res["nodes"]
        except FluxRPCError as exc:
            return _error_records(self.broker, subranks, exc)

    def _collect_fanout(
        self, msg: Message, ranks: List[int], t0: float, t1: float, max_samples=None
    ):
        t_begin = self.sim.now
        # One shared dict for every leg; CachedSizeDict so the wire
        # size is walked once, not once per node-leg message.
        query = CachedSizeDict(t_start=t0, t_end=t1)
        if max_samples is not None:
            query["max_samples"] = max_samples
        # Send every request first (send order fixes the deterministic
        # latency-draw order), then hand each pending future to a
        # watcher that owns its timeout/retry/degradation.
        futures = [self.rpc(rank, QUERY_TOPIC, query) for rank in ranks]
        watchers = [
            self.spawn(self._watch_node(rank, query, fut))
            for rank, fut in zip(ranks, futures)
        ]
        results = yield AllOf(self.sim, watchers)
        nodes = _merge_legs(results)
        self._finish_aggregation(t_begin, len(ranks), nodes)
        self.broker.respond(msg, {"nodes": nodes})

    def _collect_tree(
        self, msg: Message, ranks: List[int], t0: float, t1: float, max_samples=None
    ):
        """Hierarchical collection: ask each root child for its subtree."""
        t_begin = self.sim.now
        wanted = set(ranks)
        extra = {} if max_samples is None else {"max_samples": max_samples}
        legs = []  # (kind, target, subranks, payload)
        if 0 in wanted:
            legs.append(("node", 0, [0], {"t_start": t0, "t_end": t1, **extra}))
        for child in self.broker.overlay.children(0):
            subtree = _subtree_ranks(self.broker.overlay, child) & wanted
            if subtree:
                sub = sorted(subtree)
                legs.append(
                    ("subtree", child, sub, _subtree_query(sub, t0, t1, extra))
                )
        futures = [
            self.rpc(target, QUERY_TOPIC if kind == "node" else SUBTREE_TOPIC, payload)
            for kind, target, _, payload in legs
        ]
        watchers = [
            self.spawn(
                self._watch_node(target, payload, fut)
                if kind == "node"
                else self._watch_subtree(target, subranks, payload, fut)
            )
            for (kind, target, subranks, payload), fut in zip(legs, futures)
        ]
        results = yield AllOf(self.sim, watchers)
        nodes = _merge_legs(results)
        self._finish_aggregation(t_begin, len(ranks), nodes)
        self.broker.respond(msg, {"nodes": nodes})


class SubtreeAggregatorModule(Module):
    """Loaded on every broker when using the ``tree`` strategy.

    Answers :data:`SUBTREE_TOPIC` by querying its own node agent plus
    recursively delegating to children whose subtrees intersect the
    request. Degrades the same way the root does: an unresponsive
    descendant becomes error records inside an errnum=0 response, so
    partial data propagates up the tree instead of poisoning it.
    """

    name = "power-monitor-subtree"

    def __init__(
        self, broker: Broker, retry: Optional[RetryConfig] = None
    ) -> None:
        super().__init__(broker)
        self.retry = retry if retry is not None else RetryConfig()

    def on_load(self) -> None:
        self.register_service(SUBTREE_TOPIC, self._handle_subtree)

    def _handle_subtree(self, broker: Broker, msg: Message) -> None:
        ranks = set(int(r) for r in msg.payload.get("ranks", []))
        t0 = float(msg.payload["t_start"])
        t1 = float(msg.payload["t_end"])
        self.spawn(self._collect(msg, ranks, t0, t1, msg.payload.get("max_samples")))

    def _watch_node(self, rank: int, query, future: SimEvent):
        try:
            res = yield from self.rpc_with_retry(
                rank, QUERY_TOPIC, query, retry=self.retry, first_future=future
            )
            return [res]
        except FluxRPCError as exc:
            return _error_records(self.broker, [rank], exc)

    def _watch_subtree(self, child: int, subranks, payload, future: SimEvent):
        try:
            res = yield from self.rpc_with_retry(
                child, SUBTREE_TOPIC, payload,
                retry=_subtree_retry(
                    self.retry, self.broker.overlay, child, subranks
                ),
                first_future=future,
            )
            return res["nodes"]
        except FluxRPCError as exc:
            return _error_records(self.broker, subranks, exc)

    def _collect(self, msg: Message, ranks, t0: float, t1: float, max_samples=None):
        extra = {} if max_samples is None else {"max_samples": max_samples}
        legs = []
        if self.broker.rank in ranks:
            legs.append(
                (
                    "node",
                    self.broker.rank,
                    [self.broker.rank],
                    {"t_start": t0, "t_end": t1, **extra},
                )
            )
        for child in self.broker.overlay.children(self.broker.rank):
            subtree = _subtree_ranks(self.broker.overlay, child) & ranks
            if subtree:
                sub = sorted(subtree)
                legs.append(
                    ("subtree", child, sub, _subtree_query(sub, t0, t1, extra))
                )
        futures = [
            self.rpc(target, QUERY_TOPIC if kind == "node" else SUBTREE_TOPIC, payload)
            for kind, target, _, payload in legs
        ]
        watchers = [
            self.spawn(
                self._watch_node(target, payload, fut)
                if kind == "node"
                else self._watch_subtree(target, subranks, payload, fut)
            )
            for (kind, target, subranks, payload), fut in zip(legs, futures)
        ]
        results = yield AllOf(self.sim, watchers)
        nodes = _merge_legs(results)
        self.broker.respond(msg, {"nodes": nodes})


def _subtree_ranks(overlay, root: int):
    """All ranks in the subtree rooted at ``root`` (inclusive, cached)."""
    return overlay.subtree_ranks(root)
