"""Property tests for the pure fairshare water-fill arithmetic.

The contract of :func:`repro.tenancy.fairshare.split_budget_weighted`
(ISSUE 10), mirroring the federation rebalance property suite:

* **conservation** — Σ allocations == min(budget, peak × Σ nodes) to
  float tolerance, for any weight vector;
* **equal-weights parity** — with ``weights=None`` or all weights
  equal, the result is *bitwise* identical (``==``, no epsilon) to the
  unweighted ``split_budget``;
* **weight monotonicity** — raising one job's weight never lowers its
  own allocation;
* **floor** — every job receives at least its
  :func:`~repro.tenancy.fairshare.fair_floor_w` entitlement;
* **decay/effective-weight bounds** — the accounting primitives stay
  inside their documented ranges.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.federation.rebalance import split_site_budget
from repro.manager.policies.proportional import split_budget
from repro.tenancy.accounting import decay_factor, effective_weight
from repro.tenancy.fairshare import (
    fair_floor_w,
    normalize_weights,
    split_budget_weighted,
)

settings.register_profile("repro", derandomize=True, max_examples=200)
settings.load_profile("repro")

#: Loose comparison epsilon for sums of generated floats.
EPS = 1e-6

job_counts = st.integers(1, 6)
weight_values = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def split_inputs(draw, with_weights=True):
    n = draw(job_counts)
    nodes = draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
    budget = draw(st.floats(0.0, 500_000.0))
    peak = draw(st.floats(1.0, 5000.0))
    job_nodes = {i + 1: nodes[i] for i in range(n)}
    weights = None
    if with_weights:
        ws = draw(st.lists(weight_values, min_size=n, max_size=n))
        weights = {i + 1: ws[i] for i in range(n)}
    return budget, job_nodes, peak, weights


@given(split_inputs())
def test_conservation(inputs):
    """Σ allocations == min(budget, peak × Σ nodes), any weights."""
    budget, job_nodes, peak, weights = inputs
    alloc = split_budget_weighted(budget, job_nodes, peak, weights)
    if sum(job_nodes.values()) == 0:
        assert alloc == {}  # mirrors split_budget's no-active-nodes case
        return
    assert set(alloc) == set(job_nodes)
    expected = min(budget, peak * sum(job_nodes.values()))
    total = sum(alloc.values())
    assert math.isclose(total, expected, rel_tol=1e-9, abs_tol=EPS), (
        total, expected,
    )
    for jobid, a in alloc.items():
        assert a >= 0.0
        assert a <= peak * job_nodes[jobid] * (1.0 + 1e-9) + EPS


@given(split_inputs(with_weights=False), weight_values)
def test_equal_weights_bitwise_parity(inputs, w):
    """None, absent, and all-equal weights are all *bitwise* equal to
    the unweighted split — ``==`` on every value, no tolerance."""
    budget, job_nodes, peak, _ = inputs
    reference = split_budget(budget, job_nodes, peak)
    assert split_budget_weighted(budget, job_nodes, peak, None) == reference
    equal = {j: w for j in job_nodes}
    assert split_budget_weighted(budget, job_nodes, peak, equal) == reference


@given(split_inputs(), st.floats(0.1, 50.0))
def test_weight_monotonicity(inputs, bump):
    """Raising one job's weight never lowers its own allocation."""
    budget, job_nodes, peak, weights = inputs
    alloc = split_budget_weighted(budget, job_nodes, peak, weights)
    target = sorted(job_nodes)[0]
    bumped = dict(weights)
    bumped[target] = bumped[target] + bump
    alloc2 = split_budget_weighted(budget, job_nodes, peak, bumped)
    assert alloc2.get(target, 0.0) >= alloc.get(target, 0.0) - EPS


@given(split_inputs())
def test_floor_respected(inputs):
    """No job is ever allocated below its fairshare floor."""
    budget, job_nodes, peak, weights = inputs
    alloc = split_budget_weighted(budget, job_nodes, peak, weights)
    floors = fair_floor_w(budget, job_nodes, peak, weights)
    assert set(alloc) == set(floors)
    for jobid in alloc:
        assert alloc[jobid] >= floors[jobid] * (1.0 - 1e-9) - EPS, (
            jobid, alloc[jobid], floors[jobid],
        )


# ---------------------------------------------------------------------------
# Site-level weighted split
# ---------------------------------------------------------------------------

@st.composite
def site_inputs(draw, with_weights=True):
    n = draw(st.integers(1, 6))
    demands = draw(st.lists(st.floats(0.0, 50_000.0), min_size=n, max_size=n))
    budget = draw(st.floats(1_000.0, 200_000.0))
    names = [f"c{i}" for i in range(n)]
    weights = None
    if with_weights:
        ws = draw(st.lists(weight_values, min_size=n, max_size=n))
        weights = {names[i]: ws[i] for i in range(n)}
    return budget, {names[i]: demands[i] for i in range(n)}, weights


@given(site_inputs(with_weights=False), weight_values)
def test_site_equal_weights_bitwise_parity(inputs, w):
    """Weighted site split with None/equal weights == unweighted split."""
    budget, demands, _ = inputs
    reference = split_site_budget(budget, demands)
    assert split_site_budget(budget, demands, weights=None) == reference
    equal = {c: w for c in demands}
    assert split_site_budget(budget, demands, weights=equal) == reference


@given(site_inputs())
def test_site_weighted_conservation(inputs):
    """Weighted shares distribute the full site budget (the split's
    documented contract: equal split when every demand is zero, never a
    stranded watt), and every share is non-negative."""
    budget, demands, weights = inputs
    shares = split_site_budget(budget, demands, weights=weights)
    assert set(shares) == set(demands)
    assert math.isclose(
        sum(shares.values()), budget, rel_tol=1e-9, abs_tol=EPS
    )
    for share in shares.values():
        assert share >= 0.0


# ---------------------------------------------------------------------------
# Accounting primitives
# ---------------------------------------------------------------------------

@given(
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
    st.floats(1.0, 1e5, allow_nan=False, allow_infinity=False),
)
def test_decay_factor_bounds(dt, half_life):
    """decay_factor ∈ [0, 1] (0.0 only via IEEE underflow at extreme
    dt/half-life ratios); exactly 0.5 at one half-life."""
    f = decay_factor(dt, half_life)
    assert 0.0 <= f <= 1.0
    assert decay_factor(0.0, half_life) == 1.0
    assert math.isclose(decay_factor(half_life, half_life), 0.5, rel_tol=1e-12)


@given(
    weight_values,
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    st.floats(1.0, 1e7, allow_nan=False, allow_infinity=False),
)
def test_effective_weight_bounds(base, usage, norm):
    """effective_weight ∈ (0, base]; monotonically decreasing in usage."""
    w = effective_weight(base, usage, norm)
    assert 0.0 < w <= base
    assert effective_weight(base, 0.0, norm) == base
    assert effective_weight(base, usage + norm, norm) <= w


# ---------------------------------------------------------------------------
# Validation edges
# ---------------------------------------------------------------------------

def test_normalize_weights_max_is_exactly_one():
    wn = normalize_weights({"a": 3.0, "b": 1.5}, ["a", "b"])
    assert wn["a"] == 1.0
    assert wn["b"] == 0.5


def test_rejects_nonpositive_and_nonfinite_weights():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            split_budget_weighted(100.0, {1: 1, 2: 1}, 50.0, {1: bad})


def test_rejects_negative_nodes():
    with pytest.raises(ValueError):
        split_budget_weighted(100.0, {1: -1}, 50.0)


def test_empty_inputs():
    assert split_budget_weighted(100.0, {}, 50.0) == {}
    assert fair_floor_w(100.0, {}, 50.0) == {}
    assert split_site_budget(100.0, {}) == {}
    # Zero total nodes mirrors split_budget's empty result exactly.
    assert split_budget(100.0, {1: 0}, 50.0) == {}
    assert split_budget_weighted(100.0, {1: 0}, 50.0, {1: 2.0}) == {}
    assert fair_floor_w(100.0, {1: 0}, 50.0) == {}
