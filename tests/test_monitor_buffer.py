"""Unit + property tests for the monitor's circular buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.monitor.buffer import DEFAULT_CAPACITY, DEFAULT_SAMPLE_BYTES
from tests.ring_reference import CircularBuffer


def test_defaults_match_paper_sizing():
    """Section III-A: 100,000 samples at ~43.4 MiB."""
    buf = CircularBuffer()
    assert buf.capacity == DEFAULT_CAPACITY == 100_000
    mib = buf.capacity_bytes() / (1024 * 1024)
    assert mib == pytest.approx(43.4, abs=0.1)
    assert DEFAULT_SAMPLE_BYTES == 455


def test_append_and_len():
    buf = CircularBuffer(capacity=3)
    buf.append(1.0, {"a": 1})
    buf.append(2.0, {"a": 2})
    assert len(buf) == 2
    assert buf.dropped == 0


def test_wraparound_drops_oldest():
    buf = CircularBuffer(capacity=3)
    for t in range(5):
        buf.append(float(t), {"t": t})
    assert len(buf) == 3
    assert buf.dropped == 2
    assert buf.oldest_timestamp == 2.0
    assert buf.newest_timestamp == 4.0


def test_invalid_capacity():
    with pytest.raises(ValueError):
        CircularBuffer(capacity=0)


def test_nonmonotonic_timestamps_rejected():
    buf = CircularBuffer(capacity=10)
    buf.append(5.0, {})
    with pytest.raises(ValueError):
        buf.append(4.0, {})


def test_equal_timestamps_allowed():
    buf = CircularBuffer(capacity=10)
    buf.append(5.0, {"i": 1})
    buf.append(5.0, {"i": 2})
    assert len(buf) == 2


def test_range_query_inclusive():
    buf = CircularBuffer(capacity=10)
    for t in range(10):
        buf.append(float(t), {"t": t})
    samples, complete = buf.range(2.0, 5.0)
    assert [s["t"] for s in samples] == [2, 3, 4, 5]
    assert complete


def test_range_invalid_window():
    buf = CircularBuffer(capacity=10)
    with pytest.raises(ValueError):
        buf.range(5.0, 2.0)


def test_range_reports_partial_after_wrap():
    """A job window that predates retained history is flagged partial."""
    buf = CircularBuffer(capacity=3)
    for t in range(10):
        buf.append(float(t), {"t": t})
    samples, complete = buf.range(0.0, 9.0)
    assert [s["t"] for s in samples] == [7, 8, 9]
    assert not complete


def test_range_complete_when_window_within_history():
    buf = CircularBuffer(capacity=3)
    for t in range(10):
        buf.append(float(t), {"t": t})
    _, complete = buf.range(7.0, 9.0)
    assert complete


def test_empty_buffer_range_is_complete():
    buf = CircularBuffer(capacity=3)
    samples, complete = buf.range(0.0, 10.0)
    assert samples == [] and complete


def test_size_bytes_tracks_fill():
    buf = CircularBuffer(capacity=100)
    assert buf.size_bytes() == 0
    buf.append(0.0, {})
    assert buf.size_bytes() == DEFAULT_SAMPLE_BYTES


def test_snapshot_is_copy_oldest_first():
    buf = CircularBuffer(capacity=3)
    for t in range(5):
        buf.append(float(t), {"t": t})
    snap = buf.snapshot()
    assert [t for t, _ in snap] == [2.0, 3.0, 4.0]
    snap.clear()
    assert len(buf) == 3  # copy, not a view


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(
    cap=st.integers(1, 50),
    n=st.integers(0, 200),
)
def test_len_never_exceeds_capacity(cap, n):
    buf = CircularBuffer(capacity=cap)
    for t in range(n):
        buf.append(float(t), {})
    assert len(buf) == min(cap, n)
    assert buf.dropped == max(0, n - cap)
    assert buf.total_appended == n


@given(
    cap=st.integers(1, 30),
    times=st.lists(st.floats(0, 1000), min_size=0, max_size=100).map(sorted),
    window=st.tuples(st.floats(0, 1000), st.floats(0, 1000)).map(sorted),
)
def test_range_returns_exactly_retained_window(cap, times, window):
    buf = CircularBuffer(capacity=cap)
    for t in times:
        buf.append(t, {"t": t})
    t0, t1 = window
    samples, _ = buf.range(t0, t1)
    retained = times[-cap:] if cap < len(times) else times
    expected = [t for t in retained if t0 <= t <= t1]
    assert [s["t"] for s in samples] == expected


@given(st.integers(1, 20), st.integers(0, 100))
def test_newest_oldest_consistency(cap, n):
    buf = CircularBuffer(capacity=cap)
    for t in range(n):
        buf.append(float(t), {})
    if n == 0:
        assert buf.oldest_timestamp is None and buf.newest_timestamp is None
    else:
        assert buf.newest_timestamp == float(n - 1)
        assert buf.oldest_timestamp == float(max(0, n - cap))
        assert buf.oldest_timestamp <= buf.newest_timestamp


# ---------------------------------------------------------------------------
# Flush and wrap edges (the bisect-backed ring rewrite)
# ---------------------------------------------------------------------------

def test_flush_empties_but_keeps_lifetime_counters():
    buf = CircularBuffer(capacity=3)
    for t in range(5):
        buf.append(float(t), {"t": t})
    n = buf.flush()
    assert n == 3
    assert len(buf) == 0
    assert buf.total_appended == 5
    assert buf.oldest_timestamp is None and buf.newest_timestamp is None
    # History was lost, so windows over the flushed era read as partial.
    samples, complete = buf.range(0.0, 10.0)
    assert samples == [] and not complete


def test_append_after_flush_restarts_history():
    """Post-flush appends may go backwards in time and wrap correctly."""
    buf = CircularBuffer(capacity=3)
    for t in (10.0, 11.0, 12.0):
        buf.append(t, {"t": t})
    buf.flush()
    for t in range(5):  # earlier than the flushed history: allowed
        buf.append(float(t), {"t": t})
    assert len(buf) == 3
    samples, complete = buf.range(2.0, 4.0)
    assert [s["t"] for s in samples] == [2, 3, 4]
    assert complete
    assert buf.total_appended == 8


def test_range_boundaries_exact_on_wrapped_ring():
    """Window edges landing exactly on retained samples, after wrap."""
    buf = CircularBuffer(capacity=4)
    for t in range(10):  # retained: 6, 7, 8, 9
        buf.append(float(t), {"t": t})
    samples, complete = buf.range(6.0, 9.0)
    assert [s["t"] for s in samples] == [6, 7, 8, 9]
    assert complete  # oldest retained == window start
    samples, complete = buf.range(5.5, 8.0)
    assert [s["t"] for s in samples] == [6, 7, 8]
    assert not complete  # 5.5 predates retained history


def test_range_with_duplicate_timestamps_keeps_all():
    buf = CircularBuffer(capacity=10)
    buf.append(1.0, {"i": 0})
    for i in range(1, 4):
        buf.append(2.0, {"i": i})
    buf.append(3.0, {"i": 4})
    samples, _ = buf.range(2.0, 2.0)
    assert [s["i"] for s in samples] == [1, 2, 3]
