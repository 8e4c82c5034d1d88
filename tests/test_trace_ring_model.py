"""Model test: the columnar trace ring against the deque reference.

Seeded sequences of instants, spans (ending now, earlier or later),
clears and clock steps drive a
:class:`~repro.telemetry.tracing.TraceRecorder` and the reference
:class:`~tests.trace_reference.DequeTraceRecorder`; after every operation both must answer ``events()``, ``len``, ``dropped``,
``total_recorded`` and ``render()`` the same way. A second test pins
what the columns are for: once the ring is full, recording leaves no
new object for the garbage collector to track.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.telemetry.tracing import TraceRecorder
from tests.trace_reference import DequeTraceRecorder

NAMES = ("rpc:power-monitor.query", "monitor.aggregate", "fault.crash", "tick")
CATEGORIES = ("flux", "monitor", "faults", "manager")


def _attrs(rng: random.Random) -> dict:
    return {
        key: rng.choice([0, 7, -1, 2.5, "tree", None, True])
        for key in rng.sample(["peer", "errnum", "nodes", "strategy"], rng.randint(0, 3))
    }


def _step(rng: random.Random, clock: dict, recorders) -> None:
    op = rng.random()
    if op < 0.15:
        clock["now"] += rng.choice([0.0, 1e-4, 0.5, 3.0])
        return
    if op < 0.2:
        for rec in recorders:
            rec.clear()
        return
    name, category = rng.choice(NAMES), rng.choice(CATEGORIES)
    rank = rng.choice([None, 0, 3, 9999])
    attrs = _attrs(rng)
    if op < 0.5:
        for rec in recorders:
            rec.instant(name, category, rank=rank, **attrs)
    elif op < 0.85:
        start = clock["now"] - rng.choice([0.0, 0.25, 2.0])
        end = rng.choice([None, clock["now"], start - 1.0])
        for rec in recorders:
            rec.span(name, category, start, end_s=end, rank=rank, **attrs)
    else:
        end = clock["now"] + rng.random()
        for rec in recorders:
            rec.span(name, category, clock["now"], end_s=end, rank=rank, **attrs)


@pytest.mark.parametrize("capacity", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("seed", range(6))
def test_columnar_ring_answers_like_the_deque(capacity, seed):
    rng = random.Random(seed * 1000 + capacity)
    clock = {"now": 0.0}
    ring = TraceRecorder(capacity=capacity, clock=lambda: clock["now"])
    ref = DequeTraceRecorder(capacity, clock=lambda: clock["now"])
    for _ in range(12 * capacity + 40):
        _step(rng, clock, (ring, ref))
        assert ring.events() == ref.events()
        assert len(ring) == len(ref)
        assert ring.dropped == ref.dropped
        assert ring.total_recorded == ref.total_recorded
        last = rng.choice([None, 1, capacity])
        assert ring.render(last=last) == ref.render(last=last)


def test_full_ring_records_no_tracked_object():
    capacity = 256
    clock = {"now": 0.0}
    rec = TraceRecorder(capacity=capacity, clock=lambda: clock["now"])
    for i in range(capacity):
        rec.instant("warm", "flux", rank=i)
    gc.collect()
    gc.disable()
    try:
        young = len(gc.get_objects(generation=0))
        for i in range(4 * capacity):
            clock["now"] += 0.001
            rec.span(f"rpc:topic{i % 7}", "flux", clock["now"] - 0.0005,
                     rank=i, peer=i + 1, errnum=0)
            rec.instant("monitor.degraded", "monitor", rank=0,
                        failed_nodes=i, of=64, strategy="tree")
        assert len(gc.get_objects(generation=0)) == young
    finally:
        gc.enable()
    assert len(rec) == capacity
    assert rec.dropped == 8 * capacity
