"""Integration tests: the observability hub wired into a managed run.

Two properties matter most and are pinned here:

1. the instrumented hot paths actually report (metric names exist,
   traces recorded, overhead attributed), and
2. telemetry is a pure observer — a run with it disabled produces
   byte-identical power timelines and job metrics.
"""

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster


def make_cluster(telemetry_enabled=True, policy="fpp", platform="lassen"):
    return PowerManagedCluster(
        platform=platform,
        n_nodes=8,
        seed=7,
        manager_config=ManagerConfig(
            global_cap_w=9600.0, policy=policy, static_node_cap_w=1950.0
        ),
        telemetry_enabled=telemetry_enabled,
    )


@pytest.fixture(scope="module")
def ran_cluster():
    cluster = make_cluster()
    cluster.submit(Jobspec(app="gemm", nnodes=4))
    cluster.submit(Jobspec(app="lammps", nnodes=4))
    cluster.run_until_complete()
    return cluster


def test_expected_metrics_present(ran_cluster):
    names = set(ran_cluster.telemetry_hub.metrics.names())
    expected = {
        "flux_rpc_requests_total",
        "flux_rpc_latency_seconds",
        "flux_messages_sent_total",
        "flux_events_published_total",
        "tbon_bytes_total",
        "tbon_hops_total",
        "monitor_samples_total",
        "monitor_buffer_occupancy",
        "manager_share_recomputes_total",
        "manager_job_limit_assignments_total",
        "manager_node_limit_updates_total",
        "manager_cap_update_latency_seconds",
        "manager_gpu_cap_sets_total",
        "fpp_control_ticks_total",
        "fpp_fft_runs_total",
        "overhead_seconds_total",
    }
    assert expected <= names, f"missing: {expected - names}"


def test_rpc_latency_measured(ran_cluster):
    h = ran_cluster.telemetry_hub.metrics.histogram(
        "flux_rpc_latency_seconds",
        labels={"topic": "power-manager.set-node-limit"},
    )
    assert h.count > 0
    # Control RPCs ride the ~100 us TBON path; round trips stay well
    # under a second on an 8-node tree.
    assert 0.0 < h.mean < 1.0


def test_cap_chain_latency_measured(ran_cluster):
    h = ran_cluster.telemetry_hub.metrics.histogram(
        "manager_cap_update_latency_seconds"
    )
    assert h.count > 0
    assert 0.0 < h.mean < 1.0  # one-way < round trip


def test_traces_recorded(ran_cluster):
    names = {e.name for e in ran_cluster.telemetry_hub.tracer.events()}
    assert "fpp.control_tick" in names
    assert any(n.startswith("rpc:") for n in names)


def test_monitor_overhead_below_threshold(ran_cluster):
    report = ran_cluster.overhead_report()
    pct = report.monitor_overhead_pct
    # Lassen steady state is 7 ms per 2 s sample = 0.35 %; the paper
    # reports 1.2 % on Lassen and 0.4 % average. Anything at or above
    # 1.2 % would mean the accounting (or the monitor) regressed.
    assert 0.0 < pct < 1.2
    assert report.paper_reference_pct() == 1.2
    assert report.pct("application") > 10.0


def test_overhead_categories_accounted(ran_cluster):
    acc = ran_cluster.telemetry_hub.accountant
    assert acc.seconds("monitor") > 0.0
    assert acc.seconds("manager") > 0.0
    # Mirrored into the registry for export.
    c = ran_cluster.telemetry_hub.metrics.counter(
        "overhead_seconds_total", labels={"category": "monitor"}
    )
    assert c.value == pytest.approx(acc.seconds("monitor"))


def test_tioga_overhead_is_much_lower():
    cluster = make_cluster(platform="tioga", policy="proportional")
    cluster.submit(Jobspec(app="gemm", nnodes=4))
    cluster.run_until_complete()
    # 0.8 ms per 2 s sample = 0.04 % — the paper's Tioga figure.
    assert cluster.overhead_report().monitor_overhead_pct == pytest.approx(
        0.04, abs=0.02
    )


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------
def _run_and_fingerprint(telemetry_enabled):
    cluster = make_cluster(telemetry_enabled=telemetry_enabled)
    cluster.submit(Jobspec(app="gemm", nnodes=4))
    cluster.submit(Jobspec(app="lammps", nnodes=4))
    t_end = cluster.run_until_complete()
    return (
        t_end,
        cluster.trace.to_csv(),
        {
            jid: (m.runtime_s, m.avg_node_power_w, m.avg_node_energy_kj)
            for jid, m in cluster.all_metrics().items()
        },
    )


def test_telemetry_on_off_byte_identical():
    on = _run_and_fingerprint(True)
    off = _run_and_fingerprint(False)
    assert on == off


def test_disabled_hub_records_nothing():
    cluster = make_cluster(telemetry_enabled=False)
    cluster.submit(Jobspec(app="gemm", nnodes=2))
    cluster.run_until_complete()
    hub = cluster.telemetry_hub
    assert not hub.enabled
    assert all(
        m.value == 0.0
        for name in hub.metrics.names()
        for m in hub.metrics.series_for(name)
        if hasattr(m, "value")
    )
    assert len(hub.tracer) == 0
    assert hub.accountant.categories() == []


def test_deferred_sampling_state_visible_to_direct_reads():
    """Reads that bypass the exporters still see deferred columnar state.

    Columnar rings defer their buffer gauges and ``monitor`` charges to
    a flush. ``names()``/``series_for()`` and the accountant's
    ``seconds()``/``categories()`` must flush first, and so read exactly
    what per-sample writes would have left: full gauges and the
    sequential sum of every sample's charge.
    """
    from repro.flux.instance import FluxInstance
    from repro.monitor.module import attach_monitor

    inst = FluxInstance(platform="lassen", n_nodes=4, seed=5)
    monitor = attach_monitor(inst, sample_interval_s=2.0)
    inst.run_for(9.0)  # ticks at 0, 2, 4, 6, 8
    tel = inst.telemetry
    assert "monitor_buffer_occupancy" in tel.metrics.names()
    assert [
        m.value for m in tel.metrics.series_for("monitor_buffer_occupancy")
    ] == [5.0] * 4
    assert tel.accountant.categories() == ["monitor"]
    expected = 0.0
    for _ in range(5 * 4):
        expected += monitor.node_agents[0]._charge_s
    assert expected > 0.0
    assert tel.accountant.seconds("monitor") == expected
