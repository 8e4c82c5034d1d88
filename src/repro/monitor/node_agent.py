"""The monitor's per-node agent.

Stateless with respect to jobs: it samples Variorum on a fixed period
into its circular buffer and answers range queries. It neither knows
nor cares what is running — the design decision the paper credits for
the monitor's low overhead (Section III-A).

Each sample reports into the telemetry hub (``monitor_samples_total``,
per-rank buffer occupancy/drop gauges) and charges its per-platform
collection cost to the ``monitor`` overhead category — the same cost
model that slows co-located applications, so the overhead accountant's
percentage matches the slowdown the apps actually experience.
"""

from __future__ import annotations

import math

from repro import variorum
from repro.columnar.store import ColumnarRing
from repro.flux.broker import Broker
from repro.flux.message import CachedSizeDict, Message, estimate_payload_bytes
from repro.flux.module import Module
from repro.monitor.buffer import DEFAULT_CAPACITY, downsample_evenly
from repro.monitor.overhead import sampling_overhead_fraction
from repro.monitor.sampler import sampler_of
from repro.variorum.backends import get_backend

#: The paper's default sampling period.
DEFAULT_SAMPLE_INTERVAL_S = 2.0

QUERY_TOPIC = "power-monitor.query"
STATUS_TOPIC = "power-monitor.status"
CLEAR_TOPIC = "power-monitor.clear"


class NodeAgentModule(Module):
    """Samples node power via Variorum into a ring buffer.

    On load the agent hands its node to the simulator's
    :class:`~repro.monitor.sampler.BatchSampler` and joins a
    :class:`~repro.monitor.sampler.SampleGroup` on its tick grid. From
    then on ``buffer`` is a :class:`~repro.columnar.store.ColumnarRing`
    — a lazy view over the group's shared tick log that the group
    fills — on every agent, restored snapshots included.
    """

    name = "power-monitor"

    def __init__(
        self,
        broker: Broker,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        buffer_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if broker.node is None:
            raise ValueError("node agent requires a broker with hardware attached")
        super().__init__(broker)
        self.sample_interval_s = float(sample_interval_s)
        if buffer_capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {buffer_capacity}")
        self.buffer_capacity = int(buffer_capacity)
        #: The sample ring, set when the agent loads and joins its group.
        self.buffer: ColumnarRing = None  # type: ignore[assignment]
        #: The sampler group while loaded, else None.
        self._group = None
        #: Simulated time this agent started sampling; a query window
        #: opening earlier (e.g. after a crash/restart wiped the ring)
        #: is reported as partial even though the fresh buffer never
        #: wrapped.
        self._t_loaded = 0.0
        # The per-sample accountant charge never changes; metric
        # handles are resolved lazily on first use so series register
        # at the same moment they always did.
        self._charge_s = self.node_overhead_fraction * self.sample_interval_s
        # The vendor backend is fixed for the node's lifetime; binding
        # it here skips the API-level dispatch on every sample (the
        # call itself is still variorum.get_node_power_json semantics).
        self._backend = get_backend(broker.node.spec.vendor)
        # The node's telemetry plan, likewise fixed; passing it into
        # sample_cached skips the per-sample plan lookup.
        self._plan = self._backend.plan_for(broker.node)
        self._g_occupancy = None
        self._g_dropped = None
        self._c_queries = None
        # Wire-size of a query response with zero samples — the
        # estimator prices every leaf type at a fixed width, so a full
        # response is exactly this base plus n_samples times the node's
        # constant per-sample size (pinned by the equivalence tests).
        self._record_base = None

    @property
    def node_overhead_fraction(self) -> float:
        """Progress penalty this module imposes on co-located work.

        Picked up by :class:`~repro.apps.run.AppRun` through the
        instance's telemetry-overhead hook.
        """
        return sampling_overhead_fraction(
            self.broker.node.spec.platform, self.sample_interval_s
        )

    def on_load(self) -> None:
        self._t_loaded = self.sim.now
        self.register_service(QUERY_TOPIC, self._handle_query)
        self.register_service(STATUS_TOPIC, self._handle_status)
        self.register_service(CLEAR_TOPIC, self._handle_clear)
        sampler = sampler_of(self.sim)
        sampler.adopt(self.broker.node)
        # First sample at load time, then on the fixed grid.
        sampler.register(self)

    def on_unload(self) -> None:
        sampler_of(self.sim).unregister(self)

    @property
    def samples_taken(self) -> int:
        return self.buffer.total_appended

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _set_buffer_gauges(self) -> None:
        """Write the per-rank occupancy/drop gauges from buffer state.

        Last-write-wins, so the sampler defers these to its flush
        without changing any exported value. Drops are the samples
        appended beyond the ring's capacity: a clear's flushed samples
        were not lost to wrap, so they do not count.
        """
        if self._g_occupancy is None:
            metrics = self.broker.telemetry.metrics
            rank = {"rank": str(self.broker.rank)}
            self._g_occupancy = metrics.gauge(
                "monitor_buffer_occupancy", labels=rank,
                help="retained samples in the node agent's circular buffer",
            )
            self._g_dropped = metrics.gauge(
                "monitor_buffer_dropped", labels=rank,
                help="samples lost to ring wrap on this node agent",
            )
        buf = self.buffer
        self._g_occupancy.set(len(buf))
        self._g_dropped.set(max(0, buf.total_appended - buf.capacity))

    # ------------------------------------------------------------------
    # Crash recovery (see repro.lifecycle.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-able continuation state for this node's agent."""
        return {
            "rank": self.broker.rank,
            "t_loaded": self._t_loaded,
            "samples_taken": self.samples_taken,
            "buffer": self.buffer.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Rehydrate from :meth:`snapshot_state`; ``{}`` wipes to fresh.

        A wipe re-bases ``_t_loaded`` at *now* — fresh-agent semantics:
        queries over earlier windows report partial data, exactly as
        after a crash/restart that lost the ring. The ring rebuilds in
        place (:meth:`ColumnarRing.restore_state`), so the artifact must
        come from this run at this instant; ``samples_taken`` is the
        ring's ``total_appended``.
        """
        self.buffer.restore_state(state.get("buffer") or {})
        t_loaded = state.get("t_loaded")
        self._t_loaded = self.sim.now if t_loaded is None else float(t_loaded)
        if self._group is not None:
            self._group.rescan()

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def _handle_query(self, broker: Broker, msg: Message) -> None:
        try:
            t_start = float(msg.payload["t_start"])
            t_end = float(msg.payload["t_end"])
        except (KeyError, TypeError, ValueError):
            broker.respond(msg, errnum=22, errmsg="need numeric t_start/t_end")
            return
        if math.isnan(t_start) or math.isnan(t_end):
            broker.respond(msg, errnum=22, errmsg="NaN t_start/t_end")
            return
        if t_end < t_start:
            broker.respond(msg, errnum=22, errmsg="t_end < t_start")
            return
        samples, complete = self.buffer.range(t_start, t_end)
        if t_start < self._t_loaded:
            # This agent has no history before it (re)started sampling.
            complete = False
        if self._c_queries is None:
            self._c_queries = self.broker.telemetry.metrics.counter(
                "monitor_queries_total",
                help="range queries answered by node agents",
            )
        self._c_queries.inc()
        # Optional downsampling: long windows on big machines produce
        # multi-megabyte responses; a client that only needs the shape
        # asks for at most N samples and gets an even stride.
        max_samples = msg.payload.get("max_samples")
        downsampled = False
        if max_samples is not None:
            try:
                max_samples = int(max_samples)
            except (TypeError, ValueError):
                broker.respond(msg, errnum=22, errmsg="bad max_samples")
                return
            if max_samples < 1:
                broker.respond(msg, errnum=22, errmsg="max_samples must be >= 1")
                return
            if len(samples) > max_samples:
                samples = downsample_evenly(samples, max_samples)
                downsampled = True
        # CachedSizeDict: this record is write-once once it leaves here
        # but re-priced at every aggregation level that forwards it.
        # Its size is computed arithmetically (base + n * sample size)
        # so the samples themselves are never walked by the estimator.
        record = CachedSizeDict(
            hostname=self.broker.node.hostname,
            rank=broker.rank,
            samples=samples,
            complete=complete,
            downsampled=downsampled,
        )
        sample_size = variorum.sample_wire_bytes(self.broker.node)
        if sample_size is not None:
            if self._record_base is None:
                self._record_base = estimate_payload_bytes(
                    {
                        "hostname": self.broker.node.hostname,
                        "rank": broker.rank,
                        "samples": [],
                        "complete": complete,
                        "downsampled": downsampled,
                    }
                )
            record._size_cache = (
                self._record_base + len(samples) * sample_size
            )
        broker.respond(msg, record)

    def _handle_clear(self, broker: Broker, msg: Message) -> None:
        """Administrative flush: drop the retained history.

        Subsequent job queries covering earlier windows will report
        partial data — the flush case the client CSV flag exists for.
        """
        # Earlier samples' pending gauges land first, so this write is
        # the last one for the rank, as it would be with per-sample writes.
        sampler_of(self.sim).flush_gauges()
        flushed = self.buffer.flush()
        broker.telemetry.metrics.counter(
            "monitor_buffer_flushes_total",
            help="administrative buffer flushes",
        ).inc()
        self._set_buffer_gauges()
        broker.respond(msg, {"rank": broker.rank, "flushed": flushed})

    def _handle_status(self, broker: Broker, msg: Message) -> None:
        broker.respond(
            msg,
            {
                "hostname": self.broker.node.hostname,
                "sample_interval_s": self.sample_interval_s,
                "buffer_len": len(self.buffer),
                "buffer_capacity": self.buffer.capacity,
                "buffer_bytes": self.buffer.size_bytes(),
                "dropped": self.buffer.dropped,
                "samples_taken": self.samples_taken,
            },
        )
