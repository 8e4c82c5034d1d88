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

from repro import variorum
from repro.columnar.store import GroupColumns, columnar_of
from repro.flux.broker import Broker
from repro.flux.message import CachedSizeDict, Message, estimate_payload_bytes
from repro.flux.module import Module
from repro.monitor.buffer import (
    DEFAULT_CAPACITY,
    CircularBuffer,
    downsample_evenly,
)
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

    The agent samples on the instance-wide
    :class:`~repro.monitor.sampler.BatchSampler` tick. When the
    simulator's columnar store has adopted its node and the exactness
    preconditions hold (see :meth:`_enroll_columnar`), ``buffer`` is a
    :class:`~repro.columnar.store.ColumnarRing` — a lazy view over the
    sampler group's shared tick log — and the agent runs no per-tick
    Python at all. Otherwise ``buffer`` is an explicit
    :class:`~repro.monitor.buffer.CircularBuffer` filled by
    :meth:`sample_in_batch`. Both produce byte-identical outputs.
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
        self.buffer = CircularBuffer(buffer_capacity)
        #: Columnar-side ring and sampler group while enrolled, else None.
        self._ring = None
        self._group = None
        #: Samples taken into an explicit buffer (before enrolment or
        #: after demotion); the ring counts the rest implicitly.
        self._samples_scalar = 0
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
        # First sample at load time, then on the fixed grid.
        sampler_of(self.sim).register(self)

    def on_unload(self) -> None:
        sampler_of(self.sim).unregister(self)

    @property
    def samples_taken(self) -> int:
        ring = self._ring
        if ring is not None:
            return self._samples_scalar + ring.total_appended
        return self._samples_scalar

    # ------------------------------------------------------------------
    # Sampling loop
    # ------------------------------------------------------------------
    def sample_in_batch(self, now: float) -> None:
        """One explicit-buffer sample, minus the shared-counter update
        the batch tick owns (columnar members never run this)."""
        buf = self.buffer
        buf.append(
            now, self._backend.sample_cached(self.broker.node, now, self._plan)
        )
        self._samples_scalar += 1
        self._set_buffer_gauges()
        # The per-sample collection cost — identical to the fraction
        # that slows co-located apps (node_overhead_fraction).
        self.broker.telemetry.accountant.charge("monitor", self._charge_s)

    def _set_buffer_gauges(self) -> None:
        """Write the per-rank occupancy/drop gauges from buffer state.

        Last-write-wins, so the columnar store may defer these to its
        flush without changing any exported value.
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
        retained = len(buf)
        self._g_occupancy.set(retained)
        self._g_dropped.set(buf.total_appended - retained)

    # ------------------------------------------------------------------
    # Columnar enrolment / demotion
    # ------------------------------------------------------------------
    def _enroll_columnar(self, group) -> bool:
        """Join ``group`` columnar-side if that stays byte-exact.

        Called by the batch sampler at registration. Anything below
        keeps the agent on the explicit-buffer path, per agent:

        * the node is not adopted by this simulator's columnar store;
        * sensors are noisy (per-sample RNG draws: skipping sample
          bodies would shift every later draw);
        * the per-sample accountant charge differs from the store-wide
          constant (deferred replay is exact only for equal addends);
        * the group already ticked at this instant (the same-instant
          catch-up sample runs the explicit body).
        """
        store = columnar_of(self.sim)
        node = self.broker.node
        if store is None or node._col_sink is not store:
            return False
        sensors = node.sensors
        if sensors.noise_sigma_w > 0.0 and sensors._rng is not None:
            return False
        if not store.accept_charge(self._charge_s):
            return False
        if group.last_tick_t == self.sim.now:
            return False
        self._ring = self.buffer = GroupColumns.ensure(group, store).add(self)
        self._group = group
        return True

    def _demote(self) -> None:
        """Back to an explicit buffer with identical logical contents,
        and (if still sampling) onto the group's explicit-buffer list."""
        ring = self._ring
        if ring is None:
            return
        group = self._group
        self._samples_scalar += ring.total_appended
        self.buffer = ring.to_circular_buffer()
        self._ring = None
        self._group = None
        if self in group.columns.agents:
            group.columns.remove(self)
            group.agents.append(self)

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
        after a crash/restart that lost the ring.
        """
        self._demote()  # restored agents run on an explicit buffer
        t_loaded = state.get("t_loaded")
        self._t_loaded = self.sim.now if t_loaded is None else float(t_loaded)
        self._samples_scalar = int(state.get("samples_taken", 0))
        self.buffer.restore_state(state.get("buffer") or {})

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
        flushed = self.buffer.flush()
        tel = broker.telemetry
        tel.metrics.counter(
            "monitor_buffer_flushes_total",
            help="administrative buffer flushes",
        ).inc()
        tel.metrics.gauge(
            "monitor_buffer_occupancy", labels={"rank": str(broker.rank)},
        ).set(0)
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
