"""Model-based test: a columnar ring against the explicit reference ring.

A Hypothesis state machine drives a
:class:`~repro.columnar.store.ColumnarRing` over a real
:class:`~repro.columnar.store.TickLog` and a
:class:`~tests.ring_reference.CircularBuffer` through the same
operations — ticks with and without a new sample template, flushes,
JSON snapshot → restore (with and without a wipe first) and range
queries — and asserts that both answer every read the same way.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.columnar.store import ColumnarRing, TickLog
from tests.ring_reference import CircularBuffer

#: Sensor granularity of the modelled node; coarser than some tick
#: steps, so wire timestamps differ from raw tick times.
GRANULARITY_S = 0.5


def _wire(t: float) -> float:
    return round(math.floor(t / GRANULARITY_S) * GRANULARITY_S, 6)


def _json_roundtrip(state: dict) -> dict:
    return json.loads(json.dumps(state, sort_keys=True))


class RingModel(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 8), t0=st.sampled_from([0.0, 0.3, 5.0]))
    def setup(self, capacity: int, t0: float) -> None:
        self.log = TickLog()
        self.log.ensure_granularity(GRANULARITY_S)
        self.ring = ColumnarRing(self.log, GRANULARITY_S, capacity, start=0)
        self.ref = CircularBuffer(capacity)
        self.now = t0
        #: The node's power revision and the sample it currently yields.
        self.rev = 0
        self.template = {"hostname": "node0", "timestamp": 0.0,
                         "power_node_watts": 100.0}

    # -- writes ---------------------------------------------------------
    @rule(
        step=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.7]),
        watts=st.none() | st.floats(0.0, 3000.0, allow_nan=False),
    )
    def tick(self, step: float, watts) -> None:
        """One group tick; ``watts`` is a power-state change first."""
        self.now += step
        if watts is not None:
            self.rev += 1
            self.template = {**self.template, "power_node_watts": watts}
        self.log.tick(self.now)
        ring = self.ring
        if ring.segment_rev != self.rev:
            # What the sampler group does on a rescan tick.
            sample = {**self.template, "timestamp": _wire(self.now)}
            ring.push_segment(self.log.n - 1, self.rev, sample)
        self.ref.append(self.now, {**self.template, "timestamp": _wire(self.now)})

    @rule()
    def flush(self) -> None:
        assert self.ring.flush() == self.ref.flush()

    @rule(wipe_first=st.booleans())
    def snapshot_restore(self, wipe_first: bool) -> None:
        state = _json_roundtrip(self.ring.snapshot_state())
        assert state == _json_roundtrip(self.ref.snapshot_state())
        if wipe_first:
            self.ring.restore_state({})
            self.ref.restore_state({})
            assert len(self.ring) == 0 and self.ring.total_appended == 0
        self.ring.restore_state(state)
        self.ref.restore_state(_json_roundtrip(state))

    @rule()
    def wipe(self) -> None:
        self.ring.restore_state({})
        self.ref.restore_state({})

    @precondition(lambda self: len(self.ring) > 0)
    @rule(
        shift=st.sampled_from([-0.25, 1.0, 100.0]),
        where=st.sampled_from(["raw", "wire", "window"]),
    )
    def foreign_snapshot_is_rejected(self, shift: float, where: str) -> None:
        """An artifact that is not this ring's tail raises, untouched."""
        state = _json_roundtrip(self.ring.snapshot_state())
        before = self.ring.snapshot_state()
        t, sample = state["entries"][0]
        if where == "raw":
            state["entries"][0] = [t + shift, sample]
        elif where == "wire":
            state["entries"][0] = [
                t, {**sample, "timestamp": sample["timestamp"] + shift}
            ]
        else:
            state["total_appended"] = self.log.n + 1
        with pytest.raises(ValueError):
            self.ring.restore_state(state)
        assert self.ring.snapshot_state() == before

    # -- reads ----------------------------------------------------------
    @rule(a=st.floats(-5.0, 80.0), b=st.floats(-5.0, 80.0))
    def range_query(self, a: float, b: float) -> None:
        t0, t1 = min(a, b), max(a, b)
        samples, complete = self.ring.range(t0, t1)
        ref_samples, ref_complete = self.ref.range(t0, t1)
        assert list(samples) == ref_samples
        assert len(samples) == len(ref_samples)
        assert complete is ref_complete

    @invariant()
    def same_state(self) -> None:
        ring, ref = self.ring, self.ref
        assert len(ring) == len(ref)
        assert ring.total_appended == ref.total_appended
        assert ring.dropped == ref.dropped
        assert ring.oldest_timestamp == ref.oldest_timestamp
        assert ring.snapshot_state() == ref.snapshot_state()
        assert len(ring.segments) <= len(ring) + 1


RingModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_ring_matches_reference_buffer = RingModel.TestCase


def test_segments_stay_bounded_under_constant_power_changes():
    """A node whose power changes every tick keeps O(capacity) segments."""
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor

    inst = FluxInstance(platform="lassen", n_nodes=2, seed=1)
    monitor = attach_monitor(inst, sample_interval_s=2.0, buffer_capacity=16)
    gpu = inst.nodes[0].gpu_domains[0]
    flips = iter(range(10**9))
    inst.sim.schedule_periodic(
        2.0, lambda: gpu.set_demand(150.0 + 50.0 * (next(flips) % 2)),
        first_time=1.0,
    )
    inst.run_for(2000.0)
    ring = monitor.node_agents[0].buffer
    assert len(ring) == 16 and ring.total_appended == 1001
    assert len(ring.segments) <= len(ring) + 1
    # Every retained sample still materialises from a kept segment.
    watts = [s["power_gpu_watts_socket_0"] for s in ring.range(0.0, 2000.0)[0]]
    assert len(set(watts)) == 2
