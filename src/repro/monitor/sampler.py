"""Batched sampling: one engine event per interval for all node agents.

Each node agent samples on its own fixed grid (``first, first +
period, ...``), but a 792-node instance must not push 792 heap events
through the engine every 2 s window just to run 792 purely-local
sample bodies. This coordinator coalesces them: agents sharing a tick
grid register into one group, and a single periodic event walks the
group each interval. Members enrolled in the columnar store
(:mod:`repro.columnar`) cost O(1) per tick together; the rest keep an
explicit ring buffer and run :meth:`NodeAgentModule.sample_in_batch`.

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
  same-tick samples run in the same relative order as per-node events.
* **Sample bodies are local.** They append to the node's ring buffer,
  update per-rank gauges and charge the overhead accountant; they
  never send messages, schedule events or draw cross-node RNG, so
  fusing them into one callback cannot reorder anything observable.
* **Telemetry is batched but value-identical**: the shared
  ``monitor_samples_total`` counter takes one ``inc(n)`` per tick —
  integer-valued float addition is exact, so the total equals n
  per-sample ``inc(1)`` calls.

A registration that arrives at an instant whose group tick has already
fired this same instant (e.g. an agent reloaded by a same-time event
scheduled after the tick) gets a one-off catch-up sample — a per-agent
timer would likewise have fired late, after the current event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simkernel.engine import ScheduledEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.node_agent import NodeAgentModule

_ATTR = "_monitor_batch_sampler"


def sampler_of(sim: Simulator) -> "BatchSampler":
    """The per-simulator coordinator, created on first use."""
    sampler = getattr(sim, _ATTR, None)
    if sampler is None:
        sampler = BatchSampler(sim)
        setattr(sim, _ATTR, sampler)
    return sampler


class _SampleGroup:
    """Agents sharing one tick grid, driven by one reused engine event."""

    __slots__ = ("key", "agents", "columns", "event", "last_tick_t", "_sampler")

    def __init__(
        self,
        sampler: "BatchSampler",
        interval: float,
        first_time: float,
    ) -> None:
        self.key = (interval, first_time)
        self.agents: List["NodeAgentModule"] = []
        #: Columnar members (a ``repro.columnar`` GroupColumns), or
        #: None while every member keeps an explicit buffer.
        self.columns = None
        self.last_tick_t: Optional[float] = None
        self._sampler = sampler
        self.event: ScheduledEvent = sampler.sim.schedule_periodic(
            interval, self._tick, first_time=first_time
        )

    def _tick(self) -> None:
        agents = self.agents
        cols = self.columns
        n_cols = len(cols.agents) if cols is not None else 0
        n = len(agents) + n_cols
        if n == 0:
            return
        sampler = self._sampler
        now = sampler.sim.now
        self.last_tick_t = now
        any_agent = agents[0] if agents else cols.agents[0]
        sampler.samples_counter(any_agent).inc(n)
        if n_cols:
            cols.tick(now)
        for agent in agents:
            agent.sample_in_batch(now)


class BatchSampler:
    """Registry of sample groups for one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._groups: Dict[Tuple[float, float], _SampleGroup] = {}
        self._samples_counter = None

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
        """Start sampling ``agent`` on its grid (first tick now)."""
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
            group = _SampleGroup(self, interval, now)
            self._groups[key] = group
        if agent._enroll_columnar(group):
            return
        if group.last_tick_t == now:
            # The group already ticked at this instant; the agent's own
            # timer would still have fired (later in sequence order).
            self.sim.schedule(0.0, self._catch_up, agent, group)
        group.agents.append(agent)

    def _aligned_group(
        self, interval: float, now: float
    ) -> Optional[_SampleGroup]:
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
        """Stop sampling ``agent``; empty groups cancel their event."""
        for key, group in list(self._groups.items()):
            cols = group.columns
            if agent in group.agents:
                group.agents.remove(agent)
            elif cols is not None and agent in cols.agents:
                cols.remove(agent)
            else:
                continue
            if not group.agents and (cols is None or not cols.agents):
                group.event.cancel()
                del self._groups[key]
            return

    def _catch_up(self, agent: "NodeAgentModule", group: _SampleGroup) -> None:
        if agent in group.agents:
            self.samples_counter(agent).inc()
            agent.sample_in_batch(self.sim.now)
