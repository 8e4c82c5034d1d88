"""Unit + property tests for the FCFS scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.flux.scheduler import Scheduler


def test_allocates_lowest_free_ranks():
    s = Scheduler(8)
    assert s.allocate(3) == [0, 1, 2]
    assert s.allocate(2) == [3, 4]


def test_release_returns_ranks_to_pool():
    s = Scheduler(4)
    ranks = s.allocate(4)
    s.release(ranks[:2])
    assert s.free_count == 2
    assert s.allocate(2) == ranks[:2]


def test_over_allocation_raises():
    s = Scheduler(4)
    s.allocate(3)
    with pytest.raises(RuntimeError):
        s.allocate(2)


def test_zero_allocation_rejected():
    s = Scheduler(4)
    with pytest.raises(ValueError):
        s.allocate(0)


def test_double_release_raises():
    s = Scheduler(4)
    ranks = s.allocate(2)
    s.release(ranks)
    with pytest.raises(RuntimeError):
        s.release(ranks)


def test_release_out_of_range_rejected():
    s = Scheduler(4)
    s.allocate(4)
    with pytest.raises(ValueError):
        s.release([7])


def test_needs_at_least_one_node():
    with pytest.raises(ValueError):
        Scheduler(0)


# ---------------------------------------------------------------------------
# pick_next: FCFS
# ---------------------------------------------------------------------------

def test_fcfs_blocks_behind_head():
    s = Scheduler(4)
    s.allocate(3)  # 1 free
    queue = [10, 11]
    requests = {10: 2, 11: 1}
    assert s.pick_next(queue, requests) is None  # head needs 2, only 1 free


def test_pick_next_prefers_head_when_it_fits():
    s = Scheduler(4)
    queue = [10, 11]
    requests = {10: 2, 11: 1}
    assert s.pick_next(queue, requests) == 10


def test_pick_next_empty_queue():
    assert Scheduler(4).pick_next([], {}) is None


# ---------------------------------------------------------------------------
# Property: allocation is exclusive and conserving
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 8)),
        max_size=50,
    )
)
def test_no_double_allocation_property(ops):
    """Random alloc/free traffic never hands out a rank twice."""
    s = Scheduler(16)
    held = []  # list of allocations (lists of ranks)
    in_use = set()
    for op, n in ops:
        if op == "alloc" and s.can_allocate(n):
            ranks = s.allocate(n)
            assert not (set(ranks) & in_use), "rank double-allocated"
            in_use.update(ranks)
            held.append(ranks)
        elif op == "free" and held:
            ranks = held.pop(n % len(held))
            s.release(ranks)
            in_use.difference_update(ranks)
        assert s.free_count == 16 - len(in_use)
