"""Byte-identity golden tests pinning the hot-path overhaul (ISSUE 3).

The fixtures in ``tests/golden/`` were produced by the pre-overhaul
engine (dataclass heap events, one sample timer per node, payload sizes
re-walked per hop). The optimized path must emit *byte-identical* CSV
telemetry and Prometheus metric exports for the same seeds — including
runs with a crash/restart fault whose restart lands exactly on the
sampling grid, and both aggregation strategies. The run samples through
the columnar store (the monitor's only sampling path), so its deferred
gauges, bulk charge replay and implicit rings are pinned here too.
"""

from __future__ import annotations

import pytest

from tests.golden_scenarios import SCENARIOS, fixture_paths, run_scenario


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_byte_identity(name):
    spec = SCENARIOS[name]
    csv_blob, prom = run_scenario(spec["strategy"], spec["faults"])
    csv_path, prom_path = fixture_paths(name)
    with open(csv_path) as fh:
        assert csv_blob == fh.read(), f"CSV output diverged from golden {name}"
    with open(prom_path) as fh:
        assert prom == fh.read(), f"metrics export diverged from golden {name}"

