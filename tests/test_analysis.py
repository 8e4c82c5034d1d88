"""Unit + property tests for the analysis utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.energy import JobMetrics, combined_energy_kj, integrate_energy_j
from repro.analysis.stats import boxplot_stats, mean, percent_change, stdev
from repro.analysis.traces import ClusterPowerTrace
from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec


# ---------------------------------------------------------------------------
# Energy integration
# ---------------------------------------------------------------------------

def test_integrate_constant_power():
    series = [(0.0, 100.0), (10.0, 100.0)]
    assert integrate_energy_j(series) == pytest.approx(1000.0)


def test_integrate_ramp():
    series = [(0.0, 0.0), (10.0, 100.0)]
    assert integrate_energy_j(series) == pytest.approx(500.0)


def test_integrate_short_series_is_zero():
    assert integrate_energy_j([]) == 0.0
    assert integrate_energy_j([(0.0, 100.0)]) == 0.0


def test_integrate_rejects_backwards_time():
    with pytest.raises(ValueError):
        integrate_energy_j([(5.0, 1.0), (1.0, 1.0)])


@given(
    st.lists(
        st.tuples(st.floats(0, 1000), st.floats(0, 5000)),
        min_size=2,
        max_size=50,
    ).map(lambda pts: sorted(pts, key=lambda p: p[0]))
)
def test_integrate_matches_numpy_trapezoid(series):
    ours = integrate_energy_j(series)
    t = [p[0] for p in series]
    p = [p[1] for p in series]
    theirs = float(np.trapezoid(p, t))
    assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_mean_and_stdev():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert stdev([1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert stdev([5.0]) == 0.0


def test_mean_empty_raises():
    with pytest.raises(ValueError):
        mean([])


def test_percent_change_sign_convention():
    assert percent_change(110.0, 100.0) == pytest.approx(10.0)
    assert percent_change(90.0, 100.0) == pytest.approx(-10.0)
    with pytest.raises(ZeroDivisionError):
        percent_change(1.0, 0.0)


def test_boxplot_stats():
    b = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert b.minimum == 1.0 and b.maximum == 5.0
    assert b.median == 3.0
    assert b.q3 - b.q1 == pytest.approx(2.0)
    assert b.spread_pct == pytest.approx((5 - 1) / 3 * 100)


def test_boxplot_empty_raises():
    with pytest.raises(ValueError):
        boxplot_stats([])


@given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=50))
def test_boxplot_ordering_property(xs):
    b = boxplot_stats(xs)
    assert b.minimum <= b.q1 <= b.median <= b.q3 <= b.maximum


# ---------------------------------------------------------------------------
# JobMetrics
# ---------------------------------------------------------------------------

def test_job_metrics_row_formatting():
    m = JobMetrics(
        app="gemm",
        nnodes=6,
        runtime_s=548.0,
        max_node_power_w=1523.0,
        avg_node_power_w=1325.0,
        avg_node_energy_kj=726.0,
    )
    assert "gemm" in m.row()
    assert JobMetrics.header().split()[0] == "app"


def test_combined_energy_weights_by_nodes():
    a = JobMetrics("a", 6, 1.0, 1.0, 1.0, 100.0)
    b = JobMetrics("b", 2, 1.0, 1.0, 1.0, 50.0)
    assert combined_energy_kj([a, b]) == pytest.approx(700.0)


# ---------------------------------------------------------------------------
# ClusterPowerTrace
# ---------------------------------------------------------------------------

def test_trace_records_idle_and_load():
    inst = FluxInstance(platform="lassen", n_nodes=2, seed=1)
    trace = ClusterPowerTrace(inst, interval_s=2.0)
    inst.submit(Jobspec(app="laghos", nnodes=2))
    inst.run_until_complete()
    inst.run_for(4.0)
    trace.stop()
    series = trace.cluster_series()
    assert series[0][1] == pytest.approx(800.0)  # both idle at t=0
    assert trace.max_cluster_power_w() > 800.0


def test_trace_window_average():
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=1)
    trace = ClusterPowerTrace(inst, interval_s=1.0)
    inst.run_for(10.0)
    assert trace.avg_cluster_power_w() == pytest.approx(400.0)
    assert trace.avg_cluster_power_w(t_start=2.0, t_end=5.0) == pytest.approx(400.0)


def test_trace_subset_of_ranks():
    inst = FluxInstance(platform="lassen", n_nodes=4, seed=1)
    trace = ClusterPowerTrace(inst, interval_s=2.0, ranks=[1, 2])
    inst.run_for(4.0)
    assert set(trace.node_series) == {"lassen001", "lassen002"}


def test_trace_node_timeline_alignment():
    inst = FluxInstance(platform="lassen", n_nodes=2, seed=1)
    trace = ClusterPowerTrace(inst, interval_s=2.0)
    inst.run_for(6.0)
    tl = trace.node_timeline("lassen000")
    assert [t for t, _ in tl] == [0.0, 2.0, 4.0, 6.0]


def test_trace_empty_window_raises():
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=1)
    trace = ClusterPowerTrace(inst, interval_s=2.0)
    with pytest.raises(ValueError):
        trace.max_cluster_power_w()
