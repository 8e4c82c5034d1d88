"""Property-based tests (Hypothesis) for the two pure hot-path kernels.

* :class:`tests.ring_reference.CircularBuffer` — the bisect-over-ring
  ``range()`` must agree with a naive list reference on arbitrary
  nondecreasing timestamp streams and query windows, through any number
  of wraparounds; :func:`~repro.monitor.buffer.downsample_evenly` must
  bound the output, keep order, and always retain the newest sample.
* :func:`repro.manager.policies.proportional.per_node_share` /
  :func:`~repro.manager.policies.proportional.split_budget` — the
  paper's ``P_n = P_G/(N_k+N_i)`` arithmetic: shares are never
  negative, never exceed peak, and the split sums to exactly
  ``min(budget, total × peak)``.

Deterministic by construction: explicit ``derandomize=True`` settings
profile, so a tier-1 run never depends on Hypothesis' entropy.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.manager.policies.proportional import per_node_share, split_budget
from repro.monitor.buffer import downsample_evenly
from tests.ring_reference import CircularBuffer

settings.register_profile("repro", derandomize=True, max_examples=200)
settings.load_profile("repro")

# Timestamps arrive nondecreasing (one periodic sampler per node);
# build them as cumulative non-negative deltas.
_deltas = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=0,
    max_size=120,
)
_capacities = st.integers(min_value=1, max_value=40)
_windows = st.tuples(
    st.floats(min_value=-10.0, max_value=600.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)


def _timestamps(deltas):
    out, t = [], 0.0
    for d in deltas:
        t += d
        out.append(t)
    return out


class NaiveBuffer:
    """The obvious O(n) reference the ring must agree with."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.total_appended = 0

    def append(self, ts, sample):
        self.entries.append((ts, sample))
        if len(self.entries) > self.capacity:
            self.entries.pop(0)
        self.total_appended += 1

    def range(self, t_start, t_end):
        samples = [s for ts, s in self.entries if t_start <= ts <= t_end]
        dropped = self.total_appended - len(self.entries)
        oldest = self.entries[0][0] if self.entries else None
        complete = self.total_appended == 0 or (
            oldest is not None and (oldest <= t_start or dropped == 0)
        )
        return samples, complete


@given(deltas=_deltas, capacity=_capacities, window=_windows)
def test_ring_range_matches_naive_reference(deltas, capacity, window):
    ring = CircularBuffer(capacity=capacity)
    naive = NaiveBuffer(capacity=capacity)
    for i, ts in enumerate(_timestamps(deltas)):
        ring.append(ts, {"i": i})
        naive.append(ts, {"i": i})
    t_start, width = window
    got_samples, got_complete = ring.range(t_start, t_start + width)
    want_samples, want_complete = naive.range(t_start, t_start + width)
    assert got_samples == want_samples
    assert got_complete == want_complete


@given(deltas=_deltas, capacity=_capacities)
def test_ring_accounting_through_wraparound(deltas, capacity):
    ring = CircularBuffer(capacity=capacity)
    stamps = _timestamps(deltas)
    for i, ts in enumerate(stamps):
        ring.append(ts, {"i": i})
    assert len(ring) == min(len(stamps), capacity)
    assert ring.total_appended == len(stamps)
    assert ring.dropped == len(stamps) - len(ring)
    retained = ring.snapshot()
    # Snapshot is the newest `len` entries, oldest first, in arrival order.
    assert [s["i"] for _, s in retained] == list(
        range(len(stamps) - len(ring), len(stamps))
    )
    assert all(a[0] <= b[0] for a, b in zip(retained, retained[1:]))


@given(
    n=st.integers(min_value=0, max_value=500),
    max_samples=st.integers(min_value=1, max_value=60),
)
def test_downsample_bounds_order_and_newest_sample(n, max_samples):
    samples = list(range(n))
    picked = downsample_evenly(samples, max_samples)
    assert len(picked) <= max_samples
    assert picked == sorted(picked)  # order preserved, no duplicates
    assert len(set(picked)) == len(picked)
    assert set(picked) <= set(samples)
    if samples:
        assert picked[-1] == samples[-1]  # newest sample always retained
        if max_samples > 1:
            assert picked[0] == samples[0]
    if n <= max_samples:
        assert picked == samples  # short windows pass through untouched


@given(
    budget=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    nodes=st.integers(min_value=1, max_value=792),
    peak=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
)
def test_per_node_share_bounds(budget, nodes, peak):
    share = per_node_share(budget, nodes, peak)
    assert share >= 0.0
    assert share <= peak
    # Either everyone gets peak, or the budget is exactly consumed.
    if share < peak:
        assert math.isclose(share * nodes, budget, rel_tol=1e-12, abs_tol=1e-9)


@given(
    budget=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    widths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=40),
    peak=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
)
def test_split_budget_conserves_power(budget, widths, peak):
    job_nodes = {jobid: n for jobid, n in enumerate(widths)}
    shares = split_budget(budget, job_nodes, peak)
    assert set(shares) == set(job_nodes)
    assert all(v >= 0.0 for v in shares.values())
    total_nodes = sum(widths)
    expected_total = min(budget, total_nodes * peak)
    assert math.isclose(
        sum(shares.values()), expected_total, rel_tol=1e-9, abs_tol=1e-6
    )
    # Equal per-node split: a job's share is proportional to its width.
    share = per_node_share(budget, total_nodes, peak)
    for jobid, n in job_nodes.items():
        assert math.isclose(
            shares[jobid], share * n, rel_tol=1e-12, abs_tol=1e-9
        )


def test_split_budget_empty_is_empty():
    assert split_budget(1000.0, {}, 3050.0) == {}
