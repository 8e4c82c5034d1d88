"""Monitor sizing and telemetry-path microbenchmarks.

Section III-A: the default circular buffer stores 100,000 Variorum JSON
samples in 43.4 MiB. This bench verifies the sizing arithmetic against
real serialised samples and times the ring every node agent samples
into — a :class:`~repro.columnar.store.ColumnarRing` of that capacity
over a :class:`~repro.columnar.store.TickLog`: the per-sample hot path
(one Variorum read + tick + segment push) and the window query.
"""

import pytest
from conftest import emit, run_once

from repro import variorum
from repro.experiments import calibration as cal
from repro.columnar.store import ColumnarRing, TickLog
from repro.hardware.platforms.lassen import make_lassen_node
from repro.monitor.buffer import DEFAULT_CAPACITY, DEFAULT_SAMPLE_BYTES


def _ring(granularity_s: float) -> ColumnarRing:
    """An empty paper-capacity ring over a fresh one-member tick log."""
    log = TickLog()
    log.ensure_granularity(granularity_s)
    return ColumnarRing(log, granularity_s, capacity=DEFAULT_CAPACITY, start=0)


def test_buffer_sizing_matches_paper(benchmark):
    node = make_lassen_node("n0")

    def measure():
        samples = [variorum.get_node_power_json(node, float(t)) for t in range(200)]
        return sum(variorum.sample_bytes_estimate(s) for s in samples) / len(samples)

    avg_bytes = run_once(benchmark, measure)
    projected_mib = avg_bytes * cal.MONITOR_BUFFER_SAMPLES / (1024 * 1024)
    nominal_mib = (
        DEFAULT_SAMPLE_BYTES * cal.MONITOR_BUFFER_SAMPLES / (1024 * 1024)
    )
    emit(
        "Monitor buffer sizing (Section III-A)",
        [
            f"measured avg serialised sample: {avg_bytes:.0f} B",
            f"projected buffer ({cal.MONITOR_BUFFER_SAMPLES} samples): "
            f"{projected_mib:.1f} MiB (paper: {cal.MONITOR_BUFFER_MB} MiB)",
            f"nominal accounting constant: {nominal_mib:.1f} MiB",
        ],
    )
    assert nominal_mib == pytest.approx(cal.MONITOR_BUFFER_MB, abs=0.1)
    # Real serialised samples are the same order of magnitude.
    assert 200 <= avg_bytes <= 700


def test_sampling_hot_path(benchmark):
    """Time the per-sample work a node agent does every 2 s.

    The worst case: a fresh Variorum read and a new segment on every
    tick, as for a node on a noisy sensor.
    """
    node = make_lassen_node("n0")
    buf = _ring(node.sensors.granularity_s)
    log = buf.log
    clock = iter(range(10_000_000))

    def one_sample():
        t = float(next(clock))
        log.tick(t)
        buf.push_segment(
            log.n - 1, node.power_rev, variorum.get_node_power_json(node, t)
        )

    benchmark(one_sample)
    assert len(buf) > 0


def test_range_bisect_vs_linear_scan(benchmark):
    """Window query on a full 100k ring: bisect vs an O(n) scan.

    The node agent answers every aggregation query through
    ``ColumnarRing.range``, a bisection over the tick log's timestamp
    column; a scan would walk all 100k retained samples for a narrow
    window (a short job on a long-lived agent).
    """
    buf = _ring(1.0)
    log = buf.log
    for t in range(buf.capacity + 5_000):  # force a wrap too
        log.tick(float(t))
        buf.push_segment(log.n - 1, t, {"t": t})
    t0, t1 = 100_000.0, 100_060.0  # 61-sample window in retained history

    def linear_scan():
        return [
            (ts, s)
            for ts, s in buf.snapshot()
            if t0 <= ts <= t1
        ]

    expected = linear_scan()
    got = run_once(benchmark, buf.range, t0, t1)
    samples, complete = got
    assert [s["t"] for s in samples] == [s["t"] for _, s in expected]
    assert len(samples) == 61 and complete

    import time

    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        buf.range(t0, t1)
    bisect_s = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    scan = linear_scan()
    scan_s = time.perf_counter() - start
    emit(
        "ColumnarRing.range on a full 100k ring (61-sample window)",
        [
            f"bisect-backed range: {bisect_s * 1e6:8.1f} us",
            f"full linear scan:    {scan_s * 1e6:8.1f} us",
            f"speedup:             {scan_s / max(bisect_s, 1e-12):8.0f}x",
        ],
    )
    assert len(scan) == 61
    assert bisect_s < scan_s
