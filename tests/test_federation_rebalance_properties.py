"""Property tests for the pure site-level rebalance arithmetic.

The three contract properties of
:func:`repro.federation.rebalance.split_site_budget` (ISSUE 5):

* **conservation** — shares sum exactly to the site budget, or to the
  binding total of the ceilings when those cap the distribution
  (:func:`~repro.federation.rebalance.site_allocation_total_w`);
* **monotonicity in demand** — raising one cluster's demand never
  lowers its own share;
* **floor safety** — no live cluster is ever allocated below its floor,
  and floor clamping never pushes the split over budget.

Plus the lifted-one-level equivalence: with no floors/ceilings and
equal demands, the split degenerates to the cluster manager's own
``split_budget`` equal division.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.federation.rebalance import (
    cluster_demand_w,
    site_allocation_total_w,
    split_site_budget,
    validate_floors,
)
from repro.manager.policies.proportional import split_budget

settings.register_profile("repro", derandomize=True, max_examples=200)
settings.load_profile("repro")

#: Loose comparison epsilon for sums of generated floats.
EPS = 1e-6


def _site(draw_budget, floors, demands, ceilings):
    names = [f"c{i}" for i in range(len(demands))]
    return (
        {n: d for n, d in zip(names, demands)},
        {n: f for n, f in zip(names, floors)},
        {n: c for n, c in zip(names, ceilings)},
    )


cluster_counts = st.integers(1, 6)


@st.composite
def site_inputs(draw, with_bounds=True):
    n = draw(cluster_counts)
    demands = draw(
        st.lists(st.floats(0.0, 50_000.0), min_size=n, max_size=n)
    )
    budget = draw(st.floats(1_000.0, 200_000.0))
    if not with_bounds:
        floors = [0.0] * n
        ceilings = [None] * n
    else:
        # Floors are feasible by construction: each below budget/n.
        floors = draw(
            st.lists(
                st.floats(0.0, budget / n * 0.9), min_size=n, max_size=n
            )
        )
        ceilings = []
        for i in range(n):
            if draw(st.booleans()):
                ceilings.append(
                    floors[i] + draw(st.floats(0.0, 100_000.0))
                )
            else:
                ceilings.append(None)
    demands_m, floors_m, ceilings_m = _site(budget, floors, demands, ceilings)
    return budget, demands_m, floors_m, ceilings_m


@given(site_inputs())
def test_conservation(inputs):
    """Σ shares == site_allocation_total_w exactly (to float tolerance)."""
    budget, demands, floors, ceilings = inputs
    shares = split_site_budget(budget, demands, floors, ceilings)
    assert set(shares) == set(demands)
    expected = site_allocation_total_w(budget, demands, ceilings)
    total = sum(shares.values())
    assert math.isclose(total, expected, rel_tol=1e-9, abs_tol=EPS), (
        total, expected,
    )
    # Never above the site budget, regardless of which total binds.
    assert total <= budget + EPS


@given(site_inputs())
def test_floor_and_ceiling_respect(inputs):
    """Every share lands inside its [floor, ceiling] box."""
    budget, demands, floors, ceilings = inputs
    shares = split_site_budget(budget, demands, floors, ceilings)
    for name, share in shares.items():
        assert share >= floors[name] - EPS, (name, share, floors[name])
        if ceilings[name] is not None:
            assert share <= ceilings[name] + EPS, (name, share, ceilings[name])


@given(site_inputs(with_bounds=False), st.floats(100.0, 50_000.0))
def test_monotonicity_in_demand(inputs, bump):
    """Raising one cluster's demand never lowers its own share."""
    budget, demands, _floors, _ceilings = inputs
    shares = split_site_budget(budget, demands)
    name = sorted(demands)[0]
    bumped = dict(demands)
    bumped[name] = bumped[name] + bump
    shares2 = split_site_budget(budget, bumped)
    assert shares2[name] >= shares[name] - EPS


@given(site_inputs())
def test_floor_clamping_never_starves(inputs):
    """A zero-demand live cluster with a floor still gets its floor."""
    budget, demands, floors, ceilings = inputs
    starved = dict(demands)
    name = sorted(demands)[0]
    starved[name] = 0.0
    shares = split_site_budget(budget, starved, floors, ceilings)
    assert shares[name] >= floors[name] - EPS


@given(
    budget=st.floats(1_000.0, 100_000.0),
    n=st.integers(1, 8),
)
def test_equal_demand_matches_cluster_split(budget, n):
    """Equal demands, no bounds → the cluster manager's equal split,
    lifted one level (each cluster's share == split_budget's per-job
    node share × one 'node')."""
    demands = {f"c{i}": cluster_demand_w(4, 3050.0) for i in range(n)}
    shares = split_site_budget(budget, demands)
    # split_budget divides a budget equally over jobs weighted by node
    # count; n jobs of 1 node each is the same arithmetic shape.
    per_job = split_budget(budget, {i: 1 for i in range(n)}, node_peak_w=budget)
    for i in range(n):
        assert math.isclose(
            shares[f"c{i}"], per_job[i], rel_tol=1e-9, abs_tol=EPS
        )


def test_validate_floors_rejects_infeasible():
    with pytest.raises(ValueError):
        validate_floors(100.0, {"a": 60.0, "b": 60.0})
    with pytest.raises(ValueError):
        validate_floors(100.0, {"a": -1.0})
    with pytest.raises(ValueError):
        validate_floors(100.0, {"a": 50.0}, {"a": 40.0})
    validate_floors(100.0, {"a": 60.0, "b": 40.0})


def test_split_rejects_negative_demand():
    with pytest.raises(ValueError):
        split_site_budget(100.0, {"a": -5.0})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_validate_floors_rejects_non_finite(bad):
    """An infinite or NaN budget used to install inf/NaN (or 0.0) caps;
    a NaN floor or ceiling slipped past every comparison."""
    with pytest.raises(ValueError, match="finite"):
        validate_floors(bad, {"a": 0.0})
    with pytest.raises(ValueError, match="finite"):
        validate_floors(100.0, {"a": bad})
    with pytest.raises(ValueError, match="finite"):
        validate_floors(100.0, {"a": 0.0}, {"a": bad})
    validate_floors(100.0, {"a": 0.0}, {"a": None})


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_split_rejects_non_finite_demand(bad):
    """A NaN demand used to count as zero: ``{'a': nan, 'b': 1.0}``
    split 100 W as ``{'a': 0.0, 'b': 100.0}``."""
    with pytest.raises(ValueError, match="finite"):
        split_site_budget(100.0, {"a": bad, "b": 1.0})


def test_empty_site():
    assert split_site_budget(100.0, {}) == {}
    assert site_allocation_total_w(100.0, {}) == 0.0


def test_stranded_budget_topped_up():
    """The floor-pin + ceiling-bind interaction (found by the federated
    fuzzer, seed 2): leftover budget flows back to floor-pinned
    clusters instead of being stranded."""
    shares = split_site_budget(
        28_967.5,
        {"c0": 0.0, "c1": 21_350.0},
        {"c0": 4_191.6, "c1": 0.0},
        {"c0": 30_005.5, "c1": 14_752.1},
    )
    assert math.isclose(sum(shares.values()), 28_967.5, rel_tol=1e-9)
    assert shares["c1"] == 14_752.1


def test_subnormal_demand_terminates_and_conserves():
    """A subnormal demand (found by derandomized Hypothesis) used to
    hang the top-up: every ``leftover * weight / total`` underflowed
    to 0, so no pass moved a watt. It now counts as zero demand."""
    shares = split_site_budget(1.25, {"alpha": 0.0, "beta": 5e-324})
    assert shares == {"alpha": 0.625, "beta": 0.625}
    weighted = split_site_budget(
        1.25, {"alpha": 0.0, "beta": 5e-324}, weights={"beta": 2.0}
    )
    assert weighted == shares

