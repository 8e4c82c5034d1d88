"""Batched sampling: the one per-engine sampling coordinator.

Each node agent samples on its own fixed grid (``first, first +
period, ...``), but a 792-node instance must not push 792 heap events
through the engine every 2 s window just to run 792 purely-local
sample bodies. :class:`BatchSampler` coalesces them: agents sharing a
tick grid register into one :class:`SampleGroup`, and a single
periodic event ticks the group each interval. Every member samples into
a :class:`~repro.columnar.store.ColumnarRing` over the group's shared
tick log, so a quiet tick costs O(1) however many members share it
(:mod:`repro.columnar.store` has the layout).

The sampler is also the engine's power-state sink:
:meth:`BatchSampler.adopt` wires a node's ``bump_power_rev`` to
:attr:`BatchSampler.global_rev`, so a group rescans its members only
on ticks that follow a demand or cap mutation somewhere on the engine.

Determinism invariants (docs/performance.md has the full argument);
the reference is one independent periodic timer per agent, which the
golden fixtures were recorded with:

* **Grouping is exact, not approximate.** A group key is the pair
  ``(interval, first_tick_time)``. Only agents whose own timers would
  have produced bitwise-identical nominal grids (same float
  accumulation ``first + period + period + ...``) ever share a group;
  an agent restarted mid-interval gets its own group on its own grid,
  exactly like its own timer.
* **In-group order is registration order**, which is the sequence
  order the agents' individual timers would have been created in — so
  same-tick sensor reads and the accountant charges keep the per-node
  event order.
* **Sample bodies are local.** They update the node's ring, per-rank
  gauges and the overhead accountant; they never send messages,
  schedule events or draw cross-node RNG, so fusing them into one
  callback cannot reorder anything observable.
* **Charges land at the tick.** A tick charges its members' ``monitor``
  costs as ``(charge, count)`` runs in member order through
  ``charge_repeated``, which adds exactly ``count`` sequential ``+=``
  (:func:`repro.telemetry.metrics.repeat_add`), so the accountant holds
  the per-sample sum bit for bit at every instant.
* **Telemetry is batched but value-identical**: the shared
  ``monitor_samples_total`` counter takes one ``inc(n)`` per tick —
  integer-valued float addition is exact, so the total equals n
  per-sample ``inc(1)`` calls. Per-rank buffer gauges are
  last-write-wins, so they are the one deferred write: a registry
  flush hook writes them before every export, and
  :meth:`BatchSampler.unregister` writes them before a member leaves.

A registration that arrives at an instant whose group tick has already
fired this same instant (e.g. an agent reloaded by a same-time event
scheduled after the tick) gets a one-off catch-up sample — a per-agent
timer would likewise have fired late, after the current event.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.columnar.store import ColumnarRing, TickLog
from repro.simkernel.engine import ScheduledEvent, Simulator
from repro.telemetry import telemetry_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.monitor.node_agent import NodeAgentModule

_ATTR = "_monitor_batch_sampler"

_tick_seq = attrgetter("_tick_seq")


def sampler_of(sim: Simulator) -> "BatchSampler":
    """The per-simulator coordinator, created on first use."""
    sampler = getattr(sim, _ATTR, None)
    if sampler is None:
        sampler = BatchSampler(sim)
        setattr(sim, _ATTR, sampler)
    return sampler


class SampleGroup:
    """Agents sharing one tick grid, driven by one reused engine event
    and sampling into one shared tick log."""

    __slots__ = (
        "key", "members", "log", "event", "last_tick_t", "_tick_seq",
        "_sampler", "_seen_global_rev", "_charge_runs",
    )

    def __init__(
        self,
        sampler: "BatchSampler",
        interval: float,
        first_time: float,
    ) -> None:
        self.key = (interval, first_time)
        self.members: List["NodeAgentModule"] = []
        self.log = TickLog()
        self.last_tick_t: Optional[float] = None
        #: Engine-wide ordinal of this group's last tick.
        self._tick_seq = 0
        self._sampler = sampler
        self._seen_global_rev = -1
        #: Derived from ``members`` at the first tick after a change:
        #: the members' per-sample charges as ``(charge, count)`` runs,
        #: in member order.
        self._charge_runs: Optional[List[Tuple[float, int]]] = None
        self.event: ScheduledEvent = sampler.sim.schedule_periodic(
            interval, self._tick, first_time=first_time
        )

    # -- membership -----------------------------------------------------
    def add(self, agent: "NodeAgentModule") -> None:
        """Enrol ``agent`` with a ring starting after the last tick."""
        g = agent.broker.node.sensors.granularity_s
        self.log.ensure_granularity(g)
        agent.buffer = ColumnarRing(
            self.log, g, capacity=agent.buffer_capacity, start=self.log.n
        )
        agent._group = self
        self.members.append(agent)
        self._charge_runs = None
        # The newcomer gets its first segment on the next tick even
        # with no power-state change.
        self.rescan()

    def remove(self, agent: "NodeAgentModule") -> None:
        self.members.remove(agent)
        self._charge_runs = None
        agent._group = None
        agent.buffer.freeze()

    def rescan(self) -> None:
        """Re-check every member's segment on the next tick."""
        self._seen_global_rev = -1

    def _reindex(self) -> None:
        self._charge_runs = [
            (charge, sum(1 for _ in run))
            for charge, run in groupby(agent._charge_s for agent in self.members)
        ]

    # -- the tick -------------------------------------------------------
    def _tick(self) -> None:
        members = self.members
        if not members:
            return
        sampler = self._sampler
        now = sampler.sim.now
        self.last_tick_t = now
        sampler._ticks += 1
        self._tick_seq = sampler._ticks
        sampler.samples_counter(members[0]).inc(len(members))
        log = self.log
        log.tick(now)
        if self._charge_runs is None:
            self._reindex()
        if sampler.global_rev != self._seen_global_rev:
            # Rescan tick: a power state moved somewhere on the engine
            # (or a member joined); members whose node's revision moved
            # start a new segment. A quiet tick only extends the log.
            self._seen_global_rev = sampler.global_rev
            idx = log.n - 1
            for agent in members:
                node = agent.broker.node
                ring = agent.buffer
                rev = node.power_rev
                if ring.segment_rev != rev:
                    sample = agent._backend.sample_cached(node, now, agent._plan)
                    ring.push_segment(idx, rev, sample)
        charge_repeated = sampler._accountant.charge_repeated
        for charge, count in self._charge_runs:
            charge_repeated("monitor", charge, count)
        sampler._needs_flush = True

    def catch_up(self, agent: "NodeAgentModule") -> None:
        """The sample ``agent``'s own timer would have taken at the
        group's last tick, taken now (same instant, later in order)."""
        ring = agent.buffer
        sampler = self._sampler
        ring.adopt_last_tick()
        node = agent.broker.node
        ring.push_segment(
            self.log.n - 1,
            node.power_rev,
            agent._backend.sample_cached(node, sampler.sim.now, agent._plan),
        )
        sampler._accountant.charge("monitor", agent._charge_s)
        sampler._needs_flush = True


class BatchSampler:
    """The sampling coordinator for one simulator: its sample groups,
    its power-state revision and its deferred buffer gauges.

    Several instances sharing one engine (a federated site) share one
    sampler: rings key on their own node's revision, so nothing here is
    per instance.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._groups: Dict[Tuple[float, float], SampleGroup] = {}
        self._samples_counter = None
        #: Group ticks so far, across every group.
        self._ticks = 0
        #: Bumped on every adopted node's power-state mutation; sample
        #: groups compare it to skip per-node scans on quiet ticks.
        self.global_rev = 0
        tel = telemetry_of(sim)
        self._accountant = tel.accountant
        #: Set by every sample; cleared when the gauges are written.
        self._needs_flush = False
        tel.metrics.add_flush_hook(self.flush_gauges)

    # -- node-side sink -------------------------------------------------
    def adopt(self, node: "Node") -> None:
        """Route ``node``'s power-revision bumps to :attr:`global_rev`."""
        node._col_sink = self

    def power_rev_changed(self, node: "Node") -> None:
        self.global_rev += 1

    def samples_counter(self, agent: "NodeAgentModule"):
        """The shared samples counter, resolved lazily so the metric
        family registers at the first tick, as it always has."""
        if self._samples_counter is None:
            self._samples_counter = agent.broker.telemetry.metrics.counter(
                "monitor_samples_total",
                help="Variorum samples appended to node-agent ring buffers",
            )
        return self._samples_counter

    def register(self, agent: "NodeAgentModule") -> None:
        """Start sampling ``agent`` on its grid (first tick now): sets
        its ``buffer`` ring and its group."""
        interval = agent.sample_interval_s
        now = self.sim.now
        key = (interval, now)
        group = self._groups.get(key)
        if group is None:
            # Mid-run enrolment: an existing group whose grid lands on
            # this exact instant produces the same bitwise tick times a
            # fresh timer would, so join it instead of spawning a
            # singleton group that drives its own engine event forever.
            group = self._aligned_group(interval, now)
        if group is None:
            group = SampleGroup(self, interval, now)
            self._groups[key] = group
        group.add(agent)
        if group.last_tick_t == now:
            # The group already ticked at this instant; the agent's own
            # timer would still have fired (later in sequence order).
            self.sim.schedule(0.0, self._catch_up, agent, group)

    def _aligned_group(
        self, interval: float, now: float
    ) -> Optional[SampleGroup]:
        """An existing group whose nominal grid hits ``now`` exactly.

        Grid times are the float-accumulated ``first + interval + ...``
        sequence, so equality is only ever claimed when the group either
        just ticked at this instant (``last_tick_t == now``) or has its
        next tick pending at it (``event.time == now``) — from that
        shared point on, both accumulations are bitwise identical.
        """
        for group in self._groups.values():
            if group.key[0] != interval:
                continue
            if group.last_tick_t == now or group.event.time == now:
                return group
        return None

    def unregister(self, agent: "NodeAgentModule") -> None:
        """Stop sampling ``agent``; empty groups cancel their event.

        Pending gauges are written first: a departing member's last
        sample must still reach its gauges, as a per-sample write would.
        """
        group = agent._group
        if group is None:
            return
        self.flush_gauges()
        group.remove(agent)
        if not group.members:
            group.event.cancel()
            del self._groups[group.key]

    def _catch_up(self, agent: "NodeAgentModule", group: SampleGroup) -> None:
        if agent._group is group:
            self.samples_counter(agent).inc()
            group.catch_up(agent)

    def flush_gauges(self) -> None:
        """Write every member's deferred buffer gauges, if any sample
        was taken since the last write (the registry's flush hook).

        Groups write in the order they last ticked, so where sibling
        instances on one engine share a gauge (same rank label), the
        agent that sampled last wins, as with per-sample writes. The
        values are recomputed from ring state, so the result equals
        per-sample writes however late it runs.
        """
        if not self._needs_flush:
            return
        self._needs_flush = False
        for group in sorted(self._groups.values(), key=_tick_seq):
            for agent in group.members:
                agent._set_buffer_gauges()
