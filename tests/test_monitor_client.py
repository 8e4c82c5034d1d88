"""Unit tests for the telemetry client and its CSV artefact."""

import pytest

from repro.flux.instance import FluxInstance
from repro.flux.jobspec import Jobspec
from repro.monitor.client import CSV_HEADER, component_powers
from repro.monitor.module import attach_monitor


@pytest.fixture
def ran_job(lassen4):
    mon = attach_monitor(lassen4)
    rec = lassen4.submit(Jobspec(app="quicksilver", nnodes=2, params={"work_scale": 5}))
    lassen4.run_until_complete()
    lassen4.run_for(4.0)
    return lassen4, mon, rec


def test_fetch_returns_rows_for_job_nodes(ran_job):
    inst, mon, rec = ran_job
    data = mon.client.fetch(rec.jobid)
    assert data.jobid == rec.jobid
    assert data.hostnames == ["lassen000", "lassen001"]
    assert data.complete
    assert len(data.rows) > 10


def test_rows_cover_job_window_only(ran_job):
    inst, mon, rec = ran_job
    data = mon.client.fetch(rec.jobid)
    for r in data.rows:
        assert rec.t_start <= r["timestamp"] <= rec.t_end


def test_csv_format(ran_job):
    _, mon, rec = ran_job
    csv = mon.client.fetch(rec.jobid).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert first[0] == str(rec.jobid)
    assert first[1] in ("lassen000", "lassen001")
    assert first[-1] == "complete"
    assert len(first) == len(CSV_HEADER.split(","))


def test_csv_write_to_file(ran_job, tmp_path):
    _, mon, rec = ran_job
    data = mon.client.fetch(rec.jobid)
    path = tmp_path / "job.csv"
    data.write_csv(str(path))
    assert path.read_text().startswith(CSV_HEADER)


def test_aggregates(ran_job):
    _, mon, rec = ran_job
    data = mon.client.fetch(rec.jobid)
    assert 400.0 <= data.mean("node_w") <= 1000.0
    assert data.hostnames == ["lassen000", "lassen001"]
    assert data.max_node_power_w() <= 952.0 + 1.0


def test_fetch_unknown_job_raises(ran_job):
    inst, mon, _ = ran_job
    with pytest.raises(KeyError):
        mon.client.fetch(9999)


def test_fetch_unstarted_job_raises(lassen4):
    mon = attach_monitor(lassen4)
    a = lassen4.submit(Jobspec(app="gemm", nnodes=4))
    b = lassen4.submit(Jobspec(app="gemm", nnodes=4))  # queued behind a
    lassen4.run_for(1.0)
    with pytest.raises(RuntimeError):
        mon.client.fetch(b.jobid)
    lassen4.run_until_complete()


def test_partial_flag_when_buffer_wrapped():
    """A tiny buffer wraps during the job -> partial data flag."""
    inst = FluxInstance(platform="lassen", n_nodes=1, seed=5)
    mon = attach_monitor(inst, buffer_capacity=5)
    rec = inst.submit(Jobspec(app="quicksilver", nnodes=1, params={"work_scale": 10}))
    inst.run_until_complete()
    data = mon.client.fetch(rec.jobid)
    assert not data.complete
    assert "partial" in data.to_csv()


def test_component_powers_prefers_per_gpu_keys():
    sample = {
        "power_node_watts": 1000.0,
        "power_cpu_watts_socket_0": 100.0,
        "power_cpu_watts_socket_1": 100.0,
        "power_mem_watts_socket_0": 50.0,
        "power_gpu_watts_gpu_0": 200.0,
        "power_gpu_watts_gpu_1": 200.0,
        "power_gpu_watts_socket_0": 400.0,  # aggregate; must not double count
    }
    parts = component_powers(sample)
    assert parts["gpu_w"] == 400.0
    assert parts["cpu_w"] == 200.0
    assert parts["mem_w"] == 50.0


def test_component_powers_falls_back_to_oam():
    sample = {
        "power_node_watts": 700.0,
        "power_cpu_watts_socket_0": 100.0,
        "power_gpu_watts_oam_0": 150.0,
        "power_gpu_watts_oam_1": 150.0,
    }
    assert component_powers(sample)["gpu_w"] == 300.0


def test_tioga_telemetry_end_to_end(tioga2):
    mon = attach_monitor(tioga2)
    rec = tioga2.submit(Jobspec(app="laghos", nnodes=2))
    tioga2.run_until_complete()
    tioga2.run_for(4.0)
    data = mon.client.fetch(rec.jobid)
    # Tioga: no memory domain; node power is the conservative sum.
    assert data.mean("mem_w") == 0.0
    assert data.mean("node_w") == pytest.approx(
        data.mean("cpu_w") + data.mean("gpu_w"), rel=0.01
    )


def test_csv_partial_marker_row_for_sampleless_node():
    """A node with zero in-window rows gets an explicit marker row."""
    from repro.monitor.client import JobPowerData

    data = JobPowerData(jobid=7)
    data.node_complete["alive0"] = True
    data.rows.append(
        {"hostname": "alive0", "timestamp": 4.0, "node_w": 900.0,
         "cpu_w": 300.0, "mem_w": 100.0, "gpu_w": 500.0}
    )
    data.node_complete["dead1"] = False
    data.node_error["dead1"] = "rpc timed out"
    lines = data.to_csv().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert "7,dead1,,,,,,partial" in lines
    # Every line still has the full column count.
    assert all(line.count(",") == CSV_HEADER.count(",") for line in lines)
    assert data.node_error == {"dead1": "rpc timed out"}
    assert not data.complete
