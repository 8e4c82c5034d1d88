"""Plant-a-bug self-checks for the simtest ``buffer`` invariant.

``BufferChecker`` has four branches — capacity, accounting, segment
bound and timestamp order. Each test below corrupts one ring of a live
cluster in the way a real regression would and requires the checker to
report exactly that branch, with its exact message; a clean ring must
report nothing.
"""

from __future__ import annotations

import pytest

from repro import Jobspec, PowerManagedCluster
from repro.columnar.store import ColumnarRing
from repro.simtest.harness import SimtestContext
from repro.simtest.invariants import BufferChecker


@pytest.fixture
def ctx():
    cluster = PowerManagedCluster(platform="lassen", n_nodes=2, seed=5, trace=False)
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 5}))
    cluster.run_for(40.0)
    return SimtestContext(cluster, scenario=None)


def _ring(ctx, rank: int = 0) -> ColumnarRing:
    return ctx.cluster.monitor.node_agents[rank].buffer


def _messages(ctx):
    return [v.message for v in BufferChecker().check(ctx)]


def test_clean_rings_report_nothing(ctx):
    assert len(_ring(ctx)) > 3
    assert _messages(ctx) == []


def test_capacity_branch_catches_a_ring_that_stops_evicting(ctx, monkeypatch):
    monkeypatch.setattr(ColumnarRing, "_live_lo", lambda self: self._flush_lo)
    ring = _ring(ctx)
    ring.capacity = 3
    n = len(ring)
    assert _messages(ctx) == [f"rank 0 buffer holds {n} > capacity 3"]


def test_accounting_branch_catches_retained_beyond_appended(ctx):
    ring = _ring(ctx, rank=1)
    n = len(ring)
    ring.start = ring.end - (n - 1)  # a restore that lost one append
    assert _messages(ctx) == [
        f"rank 1 buffer accounting inconsistent (appended={n - 1}, retained={n})"
    ]


def test_segment_branch_catches_a_ring_that_keeps_stale_segments(ctx):
    ring = _ring(ctx)
    n = len(ring)
    first = ring.segments[0]
    ring.segments[:0] = [first] * (n + 1)
    assert _messages(ctx) == [
        f"rank 0 ring keeps {len(ring.segments)} segments for {n} retained samples"
    ]


def test_timestamp_branch_reports_the_first_step_back(ctx):
    ring = _ring(ctx)
    raw = ring.log.raw.data
    lo = ring.end - len(ring)
    a, b = float(raw[lo + 1]), float(raw[lo + 2])
    raw[lo + 1], raw[lo + 2] = b, a  # one swapped pair in the tick log
    # Every ring on the shared tick log sees the swap.
    want = f"buffer timestamps not monotonic ({a} after {b})"
    messages = _messages(ctx)
    assert messages == [f"rank {r} {want}" for r in range(len(messages))]
    assert len(messages) >= 1
