"""Property tests for the FPP controller state machine."""

import math

from hypothesis import given, strategies as st

from repro.manager.policies.fpp import FPPGpuController, FPPParams

period_or_none = st.one_of(st.none(), st.floats(5.0, 60.0))


@given(
    periods=st.lists(period_or_none, min_size=1, max_size=20),
    start_cap=st.floats(150.0, 300.0),
)
def test_caps_always_within_bounds(periods, start_cap):
    """Whatever period sequence arrives, caps stay in [floor, ceiling]."""
    ctl = FPPGpuController(0, FPPParams(), sample_dt_s=2.0)
    floor, ceiling = 100.0, 300.0
    cap = min(start_cap, ceiling)
    for p in periods:
        ctl.period_s = p
        cap = ctl.next_cap(cap, floor, ceiling)
        assert floor <= cap <= ceiling


@given(periods=st.lists(st.floats(5.0, 60.0), min_size=3, max_size=20))
def test_converged_is_absorbing(periods):
    """Once converged, no period sequence changes the cap again."""
    ctl = FPPGpuController(0, FPPParams(), sample_dt_s=2.0)
    cap = 253.0
    ctl.period_s = periods[0]
    cap = ctl.next_cap(cap, 100.0, 253.0)  # probe
    ctl.period_s = periods[0]  # identical -> converge
    cap = ctl.next_cap(cap, 100.0, 253.0)
    assert ctl.converged
    frozen = cap
    for p in periods[1:]:
        ctl.period_s = p
        assert ctl.next_cap(frozen, 100.0, 253.0) == frozen


@given(
    t_prev=st.floats(5.0, 60.0),
    delta=st.floats(-20.0, 20.0),
)
def test_branch_selection_matches_algorithm1(t_prev, delta):
    """The three branches of GET-GPU-CAP fire exactly per the thresholds."""
    p = FPPParams()
    ctl = FPPGpuController(0, p, sample_dt_s=2.0)
    ctl.period_s = t_prev
    cap = ctl.next_cap(253.0, 100.0, 253.0)  # first interval: probe
    ctl.period_s = t_prev + delta
    # The controller sees the rounded difference, which can fall on the
    # other side of a threshold than ``delta`` (11.21... + 5.0 - 11.21...
    # is 4.99...), so the expected branch is computed from it too.
    delta = ctl.period_s - t_prev
    new_cap = ctl.next_cap(cap, 100.0, 253.0)
    if abs(delta) <= p.converge_th_s:
        assert ctl.converged and new_cap == cap
    elif delta < 0 and abs(delta) < p.change_th_s:
        assert new_cap == max(100.0, cap - p.p_reduce_w)
    else:
        idx = min(int(abs(delta) / p.change_th_s), 2)
        assert new_cap == min(253.0, cap + p.powercap_levels_w[idx])


@given(st.lists(st.floats(0.0, 400.0), min_size=0, max_size=120))
def test_store_power_never_crashes_and_period_sane(samples):
    ctl = FPPGpuController(0, FPPParams(), sample_dt_s=2.0)
    for s in samples:
        ctl.store_power(s)
    assert ctl.period_s is None or (
        math.isfinite(ctl.period_s) and ctl.period_s > 0
    )


@given(n=st.integers(0, 100))
def test_reset_buffer_always_empties(n):
    ctl = FPPGpuController(0, FPPParams(), sample_dt_s=2.0)
    for i in range(n):
        ctl.store_power(float(i % 7) * 40.0)
    ctl.reset_buffer()
    assert ctl.buffer == []
    # A refresh on an empty buffer must not fabricate a period.
    old = ctl.period_s
    ctl.refresh_period()
    assert ctl.period_s == old or ctl.period_s is None
