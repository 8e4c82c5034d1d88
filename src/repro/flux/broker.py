"""The per-node message broker daemon.

A broker owns the services registered by its loaded modules, delivers
requests to them, routes responses back to waiting RPC futures, and
participates in event distribution (events are sequenced at rank 0 and
broadcast down the tree, per Flux semantics).

Every broker reports into the simulation-wide telemetry hub
(:mod:`repro.telemetry`): message and RPC counters, per-topic RPC
round-trip latency histograms, and TBON hop/byte accounting — the
numbers docs/observability.md catalogs. Instrumentation is purely
observational; it never alters routing, timing, or payloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.flux.message import (
    CachedSizeDict,
    FluxRPCError,
    Message,
    MessageType,
)
from repro.simkernel import SimEvent, Simulator
from repro.telemetry import telemetry_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.flux.module import Module
    from repro.flux.overlay import TBON
    from repro.hardware.node import Node

ServiceHandler = Callable[["Broker", Message], None]
EventCallback = Callable[[Message], None]


class _MetricHandles:
    """Broker metric handles, one table per telemetry hub.

    The handles are on the per-message hot path, so they are cached
    rather than looked up in the registry per message. They are
    resolved lazily, so each series still registers at its first use by
    any broker (keeping exports identical), and no label carries a
    rank, so every broker on the hub shares one table — per
    topic/type/reason where labelled.
    """

    __slots__ = (
        "rpc_requests", "rpc_errors", "rpc_latency", "events_published",
        "sent_by_type", "delivered_by_type", "dropped_by_reason",
        "tbon_bytes", "tbon_hops", "event_forwards", "event_deliveries",
    )

    def __init__(self) -> None:
        self.rpc_requests: Dict[str, Any] = {}
        self.rpc_errors: Dict[str, Any] = {}
        self.rpc_latency: Dict[str, Any] = {}
        self.events_published: Dict[str, Any] = {}
        self.sent_by_type: Dict[str, Any] = {}
        self.delivered_by_type: Dict[str, Any] = {}
        self.dropped_by_reason: Dict[str, Any] = {}
        self.tbon_bytes = None
        self.tbon_hops = None
        self.event_forwards = None
        self.event_deliveries = None


def _metric_handles_of(telemetry) -> _MetricHandles:
    """The broker handle table of ``telemetry``, attached on first use
    (duck-typed, like :func:`~repro.telemetry.telemetry_of`, so the hub
    never needs to know brokers exist)."""
    handles = getattr(telemetry, "broker_handles", None)
    if handles is None:
        handles = telemetry.broker_handles = _MetricHandles()
    return handles


class Broker:
    """One ``flux-broker`` process.

    Parameters
    ----------
    sim:
        The shared simulator.
    rank:
        This broker's rank on the overlay (0 is the TBON root).
    overlay:
        The shared :class:`~repro.flux.overlay.TBON`.
    node:
        The hardware node this broker runs on (used by power modules).
    registry:
        Rank → broker map shared by the instance, used for delivery.
    """

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        overlay: "TBON",
        node: Optional["Node"] = None,
        registry: Optional[Dict[int, "Broker"]] = None,
        down_ranks: Optional[Set[int]] = None,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.overlay = overlay
        self.node = node
        self._registry = registry if registry is not None else {rank: self}
        self._registry[rank] = self
        #: False while this broker is crashed (fault injection). A down
        #: broker delivers nothing; its tree position still forwards
        #: events (the overlay heals around it for broadcast), but
        #: point-to-point routes crossing it are dead.
        self.up = True
        #: Requests delivered before this simulated time are dropped —
        #: a hung agent accepts connections but never services them.
        self.hung_until = 0.0
        #: Set by the fault injector: called once per transmitted
        #: message; returns ``"drop"``, an extra-delay float, or a
        #: falsy value for "no fault". None (the default) costs
        #: nothing, keeping fault-free runs byte-identical.
        self.fault_hook: Optional[Callable[["Broker", Message], Any]] = None
        #: Instance-wide set of crashed ranks, shared by every broker
        #: so route liveness is one membership test per hop.
        self.down_ranks: Set[int] = down_ranks if down_ranks is not None else set()

        self.modules: Dict[str, "Module"] = {}
        self._services: Dict[str, ServiceHandler] = {}
        self._pending_rpcs: Dict[int, SimEvent] = {}
        self._subscriptions: List[Tuple[str, EventCallback]] = []
        self._event_seq = 0  # only used at rank 0
        #: Last scheduled arrival per destination rank: Flux overlay
        #: channels are ordered streams, so two messages we send to the
        #: same peer must arrive in send order even when per-hop
        #: latency jitter would say otherwise.
        self._fifo_horizon: Dict[int, float] = {}
        #: This broker's inbound-link serialisation horizon: bytes from
        #: *all* senders share the receiver's link, so concurrent large
        #: responses (a root fan-in) queue behind one another.
        self._ingest_horizon = 0.0
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Shared observability hub (one per simulator); see repro.telemetry.
        self.telemetry = telemetry_of(sim)
        #: matchtag -> (topic, send time) for RPC latency accounting.
        self._rpc_sent: Dict[int, Tuple[str, float]] = {}
        #: Hot-path metric handles, shared by every broker on the hub.
        #: Keep ``Broker`` at or under 30 instance attributes: past that
        #: CPython gives each instance a private dict instead of the
        #: shared-key one (pinned by tests/test_per_rank_heap.py).
        self._handles = _metric_handles_of(self.telemetry)

    # ------------------------------------------------------------------
    # Module management (RFC 5: dynamically loaded broker plugins)
    # ------------------------------------------------------------------
    def load_module(self, module: "Module") -> None:
        if module.name in self.modules:
            raise ValueError(f"module {module.name!r} already loaded on rank {self.rank}")
        self.modules[module.name] = module
        module.on_load()

    def unload_module(self, name: str) -> None:
        module = self.modules.pop(name, None)
        if module is None:
            raise KeyError(f"module {name!r} not loaded on rank {self.rank}")
        module.on_unload()
        module.teardown()

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def register_service(self, topic: str, handler: ServiceHandler) -> None:
        """Register a request handler for an exact topic string."""
        if topic in self._services:
            raise ValueError(f"service {topic!r} already registered on rank {self.rank}")
        self._services[topic] = handler

    def unregister_service(self, topic: str) -> None:
        self._services.pop(topic, None)

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def rpc(
        self,
        dst_rank: int,
        topic: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> SimEvent:
        """Send a request; returns a future for the response payload.

        The future succeeds with the response payload dict, or fails
        with :class:`FluxRPCError` when the service sets ``errnum``.
        """
        tag = Message.new_matchtag()
        future = SimEvent(self.sim)
        self._pending_rpcs[tag] = future
        counter = self._handles.rpc_requests.get(topic)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "flux_rpc_requests_total",
                labels={"topic": topic},
                help="RPC requests sent, by topic",
            )
            self._handles.rpc_requests[topic] = counter
        counter.inc()
        self._rpc_sent[tag] = (topic, self.sim.now)
        # CachedSizeDict payloads are write-once by contract, so they
        # skip the defensive copy — a manager fanning one limit to 10k
        # ranks shares a single payload object (and size estimate).
        msg = Message(
            msg_type=MessageType.REQUEST,
            topic=topic,
            payload=payload if isinstance(payload, CachedSizeDict)
            else dict(payload or {}),
            src_rank=self.rank,
            dst_rank=dst_rank,
            matchtag=tag,
        )
        self._transmit(msg)
        return future

    def respond(
        self,
        request: Message,
        payload: Optional[Dict[str, Any]] = None,
        errnum: int = 0,
        errmsg: str = "",
    ) -> None:
        """Send the response for a request previously delivered here."""
        self._transmit(request.make_response(payload, errnum=errnum, errmsg=errmsg))

    # ------------------------------------------------------------------
    # Events (pub/sub)
    # ------------------------------------------------------------------
    def subscribe(self, topic_prefix: str, callback: EventCallback) -> None:
        """Deliver events whose topic starts with ``topic_prefix``."""
        self._subscriptions.append((topic_prefix, callback))

    def unsubscribe(self, topic_prefix: str, callback: EventCallback) -> None:
        self._subscriptions = [
            (p, c)
            for (p, c) in self._subscriptions
            if not (p == topic_prefix and c is callback)
        ]

    def publish(self, topic: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Publish an event: routed to rank 0, sequenced, broadcast."""
        if not self.up:
            return  # a crashed broker cannot publish
        msg = Message(
            msg_type=MessageType.EVENT,
            topic=topic,
            payload=dict(payload or {}),
            src_rank=self.rank,
            dst_rank=0,
        )
        self.messages_sent += 1
        counter = self._handles.events_published.get(topic)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "flux_events_published_total",
                labels={"topic": topic},
                help="events published (pre-sequencing), by topic",
            )
            self._handles.events_published[topic] = counter
        counter.inc()
        arrival = self._fifo_arrival(0, self.overlay.path_delay(self.rank, 0))
        self.sim.schedule_at(arrival, self._registry[0]._sequence_event, msg)

    def _sequence_event(self, msg: Message) -> None:
        """Rank 0: assign a sequence number and broadcast down the tree."""
        assert self.rank == 0, "events are sequenced at the TBON root"
        self._event_seq += 1
        msg.seq = self._event_seq
        self._broadcast_event(msg)

    def _broadcast_event(self, msg: Message) -> None:
        # Event distribution heals around crashed brokers: a down rank
        # still forwards copies to its subtree (in Flux the children
        # reparent), it just cannot deliver locally.
        if self.up:
            self._deliver_event(msg)
        else:
            self._drop_message(msg, "node-down")
        children = self.overlay.children(self.rank)
        if not children:
            return
        forwards = self._handles.event_forwards
        if forwards is None:
            forwards = self.telemetry.metrics.counter(
                "tbon_event_forwards_total",
                help="event copies forwarded down TBON edges",
            )
            self._handles.event_forwards = forwards
        for child in children:
            forwards.inc()
            arrival = self._fifo_arrival(child, self.overlay.hop_delay())
            self.sim.schedule_at(arrival, self._registry[child]._broadcast_event, msg)

    def _deliver_event(self, msg: Message) -> None:
        self.messages_delivered += 1
        deliveries = self._handles.event_deliveries
        if deliveries is None:
            deliveries = self.telemetry.metrics.counter(
                "flux_event_deliveries_total",
                help="event deliveries to brokers (fan-out included)",
            )
            self._handles.event_deliveries = deliveries
        deliveries.inc()
        for prefix, callback in list(self._subscriptions):
            if msg.topic.startswith(prefix):
                callback(msg)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _transmit(self, msg: Message) -> None:
        """Route a point-to-point message over the tree with latency.

        Delay = per-hop latency + per-hop serialisation of the payload
        (store-and-forward through intermediate brokers).
        """
        assert msg.dst_rank is not None
        # Fault model. Point-to-point traffic is store-and-forward, so
        # any crashed rank on the tree route black-holes the message
        # (this is what makes a dead interior broker take out its whole
        # subtree's telemetry). The link-fault hook, when installed,
        # may drop the message or stretch its latency. Both checks are
        # no-ops in a fault-free run — byte-identical behaviour.
        if self.down_ranks and any(
            r in self.down_ranks
            for r in self.overlay.route(msg.src_rank, msg.dst_rank)
        ):
            self._drop_message(msg, "route-down")
            return
        extra_delay = 0.0
        if self.fault_hook is not None:
            verdict = self.fault_hook(self, msg)
            if verdict == "drop":
                self._drop_message(msg, "link")
                return
            if verdict:
                extra_delay = float(verdict)
        self.messages_sent += 1
        size = msg.size_bytes()
        msg_type = msg.msg_type.value
        handles = self._handles
        sent = handles.sent_by_type.get(msg_type)
        if sent is None:
            sent = self.telemetry.metrics.counter(
                "flux_messages_sent_total",
                labels={"type": msg_type},
                help="point-to-point messages transmitted, by type",
            )
            handles.sent_by_type[msg_type] = sent
        sent.inc()
        tbon_bytes = handles.tbon_bytes
        if tbon_bytes is None:
            tbon_bytes = self.telemetry.metrics.counter(
                "tbon_bytes_total",
                help="payload+header bytes put on the overlay",
            )
            handles.tbon_bytes = tbon_bytes
            handles.tbon_hops = self.telemetry.metrics.counter(
                "tbon_hops_total",
                help="tree edges traversed by point-to-point messages",
            )
        tbon_bytes.inc(size)
        handles.tbon_hops.inc(self.overlay.hop_count(msg.src_rank, msg.dst_rank))
        delay = self.overlay.path_delay(msg.src_rank, msg.dst_rank, size_bytes=size)
        arrival = self._fifo_arrival(msg.dst_rank, delay + extra_delay)
        target = self._registry[msg.dst_rank]
        # Receiver-side ingest: concurrent senders share the target's
        # inbound link, so its serialisation time queues across them.
        if msg.dst_rank != self.rank:
            ingest = size * 8.0 / self.overlay.bandwidth_bps
            arrival = max(arrival, target._ingest_horizon + ingest)
            target._ingest_horizon = max(target._ingest_horizon, arrival)
        self.sim.schedule_at(arrival, target._deliver, msg)

    def _fifo_arrival(self, dst_rank: int, delay: float) -> float:
        """Arrival time respecting per-peer FIFO ordering."""
        arrival = self.sim.now + delay
        horizon = self._fifo_horizon.get(dst_rank, 0.0)
        if arrival <= horizon:
            arrival = horizon + 1e-9
        self._fifo_horizon[dst_rank] = arrival
        return arrival

    def _drop_message(self, msg: Message, reason: str) -> None:
        """Account a message lost to fault injection or a dead peer."""
        counter = self._handles.dropped_by_reason.get(reason)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "tbon_messages_dropped_total",
                labels={"reason": reason},
                help="messages lost to injected faults or dead brokers, by reason",
            )
            self._handles.dropped_by_reason[reason] = counter
        counter.inc()

    def _deliver(self, msg: Message) -> None:
        """Hand an arrived message to its service or waiting RPC future."""
        if not self.up:
            # Crashed after this message was already in flight.
            self._drop_message(msg, "node-down")
            return
        if msg.msg_type is MessageType.REQUEST and self.sim.now < self.hung_until:
            # A hung broker accepts the connection but never services
            # the request; responses already computed still drain.
            self._drop_message(msg, "hung")
            return
        self.messages_delivered += 1
        msg_type = msg.msg_type.value
        delivered = self._handles.delivered_by_type.get(msg_type)
        if delivered is None:
            delivered = self.telemetry.metrics.counter(
                "flux_messages_delivered_total",
                labels={"type": msg_type},
                help="point-to-point messages delivered, by type",
            )
            self._handles.delivered_by_type[msg_type] = delivered
        delivered.inc()
        if msg.msg_type is MessageType.REQUEST:
            handler = self._services.get(msg.topic)
            if handler is None:
                self.respond(msg, errnum=38, errmsg=f"no service {msg.topic!r}")
                return
            handler(self, msg)
        elif msg.msg_type is MessageType.RESPONSE:
            future = self._pending_rpcs.pop(msg.matchtag, None)
            sent = self._rpc_sent.pop(msg.matchtag, None)
            if sent is not None:
                topic, t_sent = sent
                hist = self._handles.rpc_latency.get(topic)
                if hist is None:
                    hist = self.telemetry.metrics.histogram(
                        "flux_rpc_latency_seconds",
                        labels={"topic": topic},
                        help="RPC round-trip latency (send to response), by topic",
                    )
                    self._handles.rpc_latency[topic] = hist
                hist.observe(self.sim.now - t_sent)
                self.telemetry.tracer.span(
                    f"rpc:{topic}", "flux", t_sent, rank=self.rank,
                    peer=msg.src_rank, errnum=msg.errnum,
                )
            if future is None:
                return  # response to a cancelled/unknown RPC: drop
            if msg.errnum != 0:
                counter = self._handles.rpc_errors.get(msg.topic)
                if counter is None:
                    counter = self.telemetry.metrics.counter(
                        "flux_rpc_errors_total",
                        labels={"topic": msg.topic},
                        help="RPC responses carrying a nonzero errnum, by topic",
                    )
                    self._handles.rpc_errors[msg.topic] = counter
                counter.inc()
                future.fail(FluxRPCError(msg.topic, msg.errnum, msg.errmsg))
            else:
                future.succeed(msg.payload)
        else:  # pragma: no cover - events use the broadcast path
            self._deliver_event(msg)
