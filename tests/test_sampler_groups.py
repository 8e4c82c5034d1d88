"""Regression pins for BatchSampler group management (ISSUE 8).

A node agent enrolled mid-run (broker restart reload, lifecycle
``enroll``) used to spawn a fresh singleton ``(interval, now)`` group —
its own periodic engine event forever — even when an existing group's
grid landed on exactly the same instants. The fix
(:meth:`BatchSampler._aligned_group`) joins the existing group whenever
the nominal tick grids are bitwise identical. These tests pin both
alignment branches and the no-alignment fallback.
"""

from __future__ import annotations

from repro.flux.instance import FluxInstance
from repro.monitor.module import attach_monitor
from repro.monitor.sampler import sampler_of


def _instance(n_nodes: int = 4):
    inst = FluxInstance(platform="lassen", n_nodes=n_nodes, seed=3)
    monitor = attach_monitor(inst, sample_interval_s=2.0)
    return inst, monitor


def test_mid_run_enrolment_joins_aligned_group_after_tick():
    """Reload at a grid instant whose tick already fired: same group."""
    inst, monitor = _instance()
    sampler = sampler_of(inst.sim)
    inst.run_for(6.0)  # grid ticks at 0, 2, 4, 6 have fired
    assert len(sampler._groups) == 1
    (group,) = sampler._groups.values()
    assert group.last_tick_t == 6.0

    agent = monitor.reload_agent(2)
    assert len(sampler._groups) == 1, "reload must not spawn a singleton group"
    assert agent in group.members
    # The catch-up sample (a per-agent timer would also have fired at
    # this instant) plus the subsequent grid ticks, all on the grid.
    inst.run_for(4.0)
    times = [t for t, _sample in agent.buffer.snapshot()]
    assert times == [6.0, 8.0, 10.0]


def test_mid_run_enrolment_joins_group_with_pending_tick():
    """Reload at a grid instant *before* the tick fires: same group,
    and the imminent group tick covers the newcomer (no catch-up)."""
    inst, monitor = _instance()
    sampler = sampler_of(inst.sim)
    inst.run_for(3.0)
    reloaded = []
    # Scheduled now (seq < the group event's re-arm at t=4), so this
    # runs at t=6.0 ahead of the group tick: the aligned group is found
    # via its pending event time, not last_tick_t.
    inst.sim.schedule(3.0, lambda: reloaded.append(monitor.reload_agent(2)))
    inst.run_for(7.0)
    assert len(sampler._groups) == 1
    (group,) = sampler._groups.values()
    (agent,) = reloaded
    assert agent in group.members
    times = [t for t, _sample in agent.buffer.snapshot()]
    assert times == [6.0, 8.0, 10.0]


def test_off_grid_enrolment_still_gets_its_own_group():
    """An agent restarted mid-interval keeps its own grid (own group):
    grouping stays exact, never approximate."""
    inst, monitor = _instance()
    sampler = sampler_of(inst.sim)
    inst.run_for(5.0)  # between the 4.0 and 6.0 ticks
    agent = monitor.reload_agent(1)
    assert len(sampler._groups) == 2
    inst.run_for(4.2)
    times = [t for t, _sample in agent.buffer.snapshot()]
    assert times == [5.0, 7.0, 9.0]


def test_emptied_group_cancels_event_and_is_reaped():
    """Unregistering the last member cancels the group's engine event."""
    inst, monitor = _instance(n_nodes=2)
    sampler = sampler_of(inst.sim)
    inst.run_for(5.0)
    monitor.reload_agent(0)  # off-grid: new group at (2.0, 5.0) ...
    monitor.reload_agent(1)  # ... which the second reload joins; the
    # original (2.0, 0.0) group empties out and is reaped.
    assert len(sampler._groups) == 1
    for agent in monitor.node_agents:
        sampler.unregister(agent)
    assert not sampler._groups
