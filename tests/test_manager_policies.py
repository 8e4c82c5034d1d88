"""Unit tests for the FPP state machine and policy plumbing."""

import pytest

from repro.manager.policies.fpp import FPPGpuController, FPPParams


def make_ctl(**param_overrides):
    params = FPPParams(**param_overrides)
    return FPPGpuController(0, params, sample_dt_s=2.0), params


# ---------------------------------------------------------------------------
# FPPParams defaults = Algorithm 1 constants
# ---------------------------------------------------------------------------

def test_default_params_match_algorithm1():
    p = FPPParams()
    assert p.converge_th_s == 2.0
    assert p.change_th_s == 5.0
    assert p.p_reduce_w == 50.0
    assert p.powercap_levels_w == (10.0, 15.0, 25.0)
    assert p.powercap_time_s == 90.0
    assert p.fft_update_s == 30.0
    assert p.max_gpu_cap_w == 300.0


# ---------------------------------------------------------------------------
# GET-GPU-CAP branches
# ---------------------------------------------------------------------------

def test_first_interval_probes_down():
    ctl, p = make_ctl()
    ctl.period_s = 20.0
    cap = ctl.next_cap(253.0, 100.0, 253.0)
    assert cap == 253.0 - p.p_reduce_w
    assert not ctl.converged


def test_first_interval_without_probe_keeps_cap():
    ctl, _ = make_ctl(initial_probe=False)
    ctl.period_s = 20.0
    assert ctl.next_cap(253.0, 100.0, 253.0) == 253.0


def test_probe_respects_floor():
    ctl, _ = make_ctl()
    ctl.period_s = 20.0
    assert ctl.next_cap(120.0, 100.0, 253.0) == 100.0


def test_stable_period_converges():
    """|delta| <= 2 s -> converged, cap frozen (Quicksilver's fate)."""
    ctl, _ = make_ctl()
    ctl.period_s = 20.0
    cap = ctl.next_cap(253.0, 100.0, 253.0)  # probe
    ctl.period_s = 20.5  # essentially unchanged
    cap2 = ctl.next_cap(cap, 100.0, 253.0)
    assert ctl.converged
    assert cap2 == cap  # frozen at the probed value
    # Further calls never change the cap.
    ctl.period_s = 99.0
    assert ctl.next_cap(cap2, 100.0, 253.0) == cap2


def test_small_period_decrease_reduces_power():
    ctl, p = make_ctl()
    ctl.period_s = 20.0
    cap = ctl.next_cap(253.0, 100.0, 253.0)  # probe -> 203
    ctl.period_s = 16.5  # delta = -3.5: in (converge, change)
    cap2 = ctl.next_cap(cap, 100.0, 253.0)
    assert cap2 == cap - p.p_reduce_w
    assert not ctl.converged


def test_moderate_period_growth_restores_small_step():
    ctl, p = make_ctl()
    ctl.period_s = 20.0
    cap = ctl.next_cap(253.0, 100.0, 253.0)
    ctl.period_s = 23.0  # delta = +3: hurt a little
    cap2 = ctl.next_cap(cap, 100.0, 253.0)
    assert cap2 == cap + p.powercap_levels_w[0]


def test_large_period_growth_restores_biggest_step():
    ctl, p = make_ctl()
    ctl.period_s = 20.0
    cap = ctl.next_cap(253.0, 100.0, 253.0)
    ctl.period_s = 35.0  # delta = +15 -> index min(3,2)=2
    cap2 = ctl.next_cap(cap, 100.0, 253.0)
    assert cap2 == cap + p.powercap_levels_w[2]


def test_intermediate_growth_uses_middle_level():
    ctl, p = make_ctl()
    ctl.period_s = 20.0
    cap = ctl.next_cap(253.0, 100.0, 253.0)
    ctl.period_s = 27.0  # delta = +7 -> index 1
    cap2 = ctl.next_cap(cap, 100.0, 253.0)
    assert cap2 == cap + p.powercap_levels_w[1]


def test_restore_clamped_to_ceiling():
    ctl, _ = make_ctl()
    ctl.period_s = 20.0
    ctl.next_cap(253.0, 100.0, 253.0)
    ctl.period_s = 40.0
    assert ctl.next_cap(250.0, 100.0, 253.0) == 253.0


def test_none_period_treated_as_destabilised():
    """Flat-signal apps (GEMM): power is given back at the max step."""
    ctl, p = make_ctl()
    ctl.period_s = None
    cap = ctl.next_cap(253.0, 100.0, 253.0)  # probe happens first
    assert cap == 203.0
    ctl.period_s = None
    cap2 = ctl.next_cap(cap, 100.0, 253.0)
    assert cap2 == cap + p.powercap_levels_w[2]
    assert not ctl.converged


def test_delta_uses_consecutive_windows():
    ctl, _ = make_ctl()
    ctl.period_s = 20.0
    ctl.next_cap(253.0, 100.0, 253.0)
    ctl.period_s = 26.0  # +6 vs 20
    ctl.next_cap(203.0, 100.0, 253.0)
    ctl.period_s = 26.5  # +0.5 vs 26 -> converge
    ctl.next_cap(213.0, 100.0, 253.0)
    assert ctl.converged


# ---------------------------------------------------------------------------
# FFT buffer plumbing
# ---------------------------------------------------------------------------

def test_store_power_updates_period_every_30s():
    ctl, _ = make_ctl()
    # 20 s square wave sampled at 2 s: 15 samples = 30 s.
    for i in range(30):
        pos = (i * 2.0) % 20.0
        ctl.store_power(250.0 if pos < 6.0 else 60.0)
    assert ctl.period_s == pytest.approx(20.0, abs=3.0)


def test_reset_buffer_clears_samples():
    ctl, _ = make_ctl()
    for _ in range(20):
        ctl.store_power(100.0)
    ctl.reset_buffer()
    assert ctl.buffer == []


def test_describe_snapshot():
    ctl, _ = make_ctl()
    d = ctl.describe()
    assert d["gpu"] == 0 and d["converged"] is False
