"""The FPP rolling period evaluated on read equals the eager refresh.

``FPPGpuController`` records where each 30 s refresh fired and runs the
FFT only when something reads ``period_s`` (``describe()``,
``snapshot()``, a cap decision). These tests drive it and the eager
reference model (:mod:`tests.fpp_reference`) through the same seeded
traces — control ticks on and off the 90 s cadence, restores mid
interval, short restored buffers — and require identical observable
state. A cluster-level count guard checks that a run nobody inspects
runs no rolling FFT at all.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.manager.policies.fpp as fpp_module
from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.manager.policies.fpp import FPPGpuController, FPPParams
from tests.fpp_reference import EagerFPPController


def _signal(rng: np.random.Generator, n: int, dt: float) -> list:
    """A power trace switching between periodic, flat and noisy phases."""
    out = []
    while len(out) < n:
        length = int(rng.integers(5, 80))
        t = np.arange(length) * dt
        kind = int(rng.integers(4))
        if kind == 0:  # square wave, Quicksilver-like bursts
            period = float(rng.uniform(6.0, 40.0))
            seg = np.where((t % period) < period / 2, 280.0, 120.0)
        elif kind == 1:  # sine with noise
            period = float(rng.uniform(6.0, 40.0))
            seg = 200.0 + 60.0 * np.sin(2 * np.pi * t / period)
            seg = seg + rng.normal(0.0, 3.0, length)
        elif kind == 2:  # flat (GEMM-like)
            seg = np.full(length, float(rng.uniform(150.0, 300.0)))
        else:  # noise only
            seg = 220.0 + rng.normal(0.0, 8.0, length)
        out.extend(float(w) for w in seg)
    return out[:n]


def _same(lazy: FPPGpuController, eager: EagerFPPController) -> None:
    assert lazy.describe() == eager.describe()
    assert lazy.snapshot() == eager.snapshot()


def _drive(seed: int, dt: float, params: FPPParams, check_every_step: bool) -> None:
    rng = np.random.default_rng(seed)
    lazy = FPPGpuController(0, params, dt)
    eager = EagerFPPController(0, params, dt)
    trace = _signal(rng, 600, dt)
    ticks_every = max(1, int(round(params.powercap_time_s / dt)))
    cap = params.max_gpu_cap_w
    forced_tick = -1
    for step, watts in enumerate(trace, start=1):
        lazy.store_power(watts)
        eager.store_power(watts)
        early = rng.random() < 0.01 or step == forced_tick
        if step % ticks_every == 0 or early:
            # A control tick (on cadence, or early: a restore or a
            # policy that decides before the 90 s mark).
            lazy.refresh_period()
            eager.refresh_period()
            assert lazy.period_s == eager.period_s
            cap_l = lazy.next_cap(cap, 100.0, params.max_gpu_cap_w)
            cap_e = eager.next_cap(cap, 100.0, params.max_gpu_cap_w)
            assert cap_l == cap_e
            cap = cap_l
            lazy.reset_buffer()
            eager.reset_buffer()
        elif rng.random() < 0.005:
            # A bare buffer reset keeps the last refresh's period.
            lazy.reset_buffer()
            eager.reset_buffer()
        if rng.random() < 0.01:
            # Crash recovery mid-interval: both restore the artifact the
            # eager model would have written.
            state = eager.snapshot()
            if rng.random() < 0.5:
                # A short restored buffer whose refresh counter is far
                # ahead: the next refresh fires on fewer samples than
                # fft_update_s covers (a None estimate keeps the old
                # period), and an early tick right after it must not
                # drop that refresh unevaluated.
                window = int(params.fft_update_s / dt)
                keep = int(rng.integers(0, max(1, window - 1)))
                state["buffer"] = state["buffer"][:keep]
                state["samples_since_update"] = max(0, window - 1)
                forced_tick = step + int(rng.integers(2, 4))
            lazy = FPPGpuController(0, params, dt)
            eager = EagerFPPController(0, params, dt)
            lazy.restore(state)
            eager.restore(state)
        if check_every_step or rng.random() < 0.05:
            _same(lazy, eager)
    _same(lazy, eager)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("check_every_step", [True, False], ids=["each-step", "sparse"])
def test_lazy_period_matches_eager_reference(seed, check_every_step):
    _drive(seed, 2.0, FPPParams(), check_every_step)


@pytest.mark.parametrize(
    "dt, params",
    [
        (2.0, FPPParams(fft_update_s=7.0, powercap_time_s=20.0)),
        (0.5, FPPParams(fft_update_s=3.0, powercap_time_s=10.0)),
        (3.0, FPPParams()),
    ],
    ids=["off-grid-refresh", "fast-sampling", "coarse-sampling"],
)
@pytest.mark.parametrize("check_every_step", [True, False], ids=["each-step", "sparse"])
def test_lazy_period_matches_eager_reference_off_default_cadence(
    dt, params, check_every_step
):
    for seed in range(3):
        _drive(100 + seed, dt, params, check_every_step)


def test_early_tick_evaluates_a_short_pending_refresh():
    """A refresh on fewer samples than fft_update_s covers keeps the old
    period when it finds none, so a pending refresh before it must be
    evaluated, not dropped."""
    square = [280.0 if (i % 4) < 2 else 120.0 for i in range(9)]
    state = {"buffer": square, "period_s": None, "samples_since_update": 14}
    lazy = FPPGpuController(0, FPPParams(), 2.0)
    eager = EagerFPPController(0, FPPParams(), 2.0)
    for ctl in (lazy, eager):
        ctl.restore(state)
        ctl.store_power(280.0)  # refresh over 10 samples finds a period
        ctl.store_power(280.0)
        ctl.refresh_period()  # 11 samples: no period, the old one stays
    assert eager.period_s is not None
    _same(lazy, eager)


def _counting(monkeypatch) -> list:
    calls = []
    real = fpp_module.estimate_period

    def counted(values, dt, *args, **kwargs):
        calls.append(len(values))
        return real(values, dt, *args, **kwargs)

    monkeypatch.setattr(fpp_module, "estimate_period", counted)
    return calls


def test_rolling_refresh_runs_no_fft_until_read(monkeypatch):
    calls = _counting(monkeypatch)
    ctl = FPPGpuController(0, FPPParams(), 2.0)
    for i in range(100):  # refreshes fire at 15, 30, ..., 90 samples
        ctl.store_power(200.0 + 50.0 * ((i // 5) % 2))
    assert calls == []
    ctl.describe()
    assert calls == [90]  # only the newest refresh; it overwrites the rest
    ctl.describe()
    assert calls == [90]


def test_fft_runs_equal_control_tick_ffts_when_nothing_reads(monkeypatch):
    """A run that never calls describe()/snapshot() runs one FFT per
    controller per control tick and no rolling refresh."""
    calls = _counting(monkeypatch)
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=2,
        seed=14,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=2400.0, policy="fpp", static_node_cap_w=1950.0
        ),
    )
    cluster.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 20}))
    cluster.run_until_complete(timeout_s=1_000_000)
    runs = sum(
        s.value for s in cluster.telemetry_hub.metrics.series_for("fpp_fft_runs_total")
    )
    assert runs > 0
    assert len(calls) == runs


def test_idle_node_buffers_stay_empty():
    """An idle node feeds no samples to FPP: nothing decides on them and
    the next job's reset_job_state would discard them."""
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=2,
        seed=14,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=2400.0, policy="fpp", static_node_cap_w=1950.0
        ),
    )
    cluster.submit(Jobspec(app="quicksilver", nnodes=1, params={"work_scale": 40}))
    cluster.run_for(200.0)
    busy, idle = (cluster.manager.node_managers[r] for r in (0, 1))
    if not busy.job_present:
        busy, idle = idle, busy
    assert busy.job_present and not idle.job_present
    assert any(ctl.buffer for ctl in busy.policy.controllers)
    assert all(ctl.buffer == [] for ctl in idle.policy.controllers)
    assert all(
        c["buffer"] == [] for c in idle.snapshot_state()["policy"]["state"]["controllers"]
    )
