"""Smoke test: ``repro bench --quick`` writes a schema-valid artifact.

Runs the real CLI entry point end to end (reduced sizes) and validates
the ``BENCH_<name>.json`` it writes against the ``repro-bench/1``
schema — the same validation the committed baseline/after artifacts at
the repo root pass. The full-size suite is exercised by the ``bench``
marked benchmarks, which tier-1 excludes.
"""

from __future__ import annotations

import json

from repro.bench import validate_report
from repro.cli import main


def test_bench_quick_writes_schema_valid_artifact(tmp_path, capsys):
    rc = main(
        ["bench", "--quick", "--name", "smoke", "--out", str(tmp_path)]
    )
    assert rc == 0
    path = tmp_path / "BENCH_smoke.json"
    data = json.loads(path.read_text())
    validate_report(data)
    assert data["quick"] is True
    assert data["name"] == "smoke"
    assert data["repeats"] == 1
    names = {r["benchmark"] for r in data["results"]}
    # Every suite member reports at least one result.
    assert {
        "engine_prescheduled",
        "engine_periodic",
        "engine_cancel_churn",
        "scalability_fanout",
        "scalability_tree",
        "scalability_sweep",
        "table4_policy",
        "sweep_10k",
        "sweep_100k",
    } <= names
    sweeps = {
        r["benchmark"]: r for r in data["results"]
        if r["benchmark"].startswith("sweep_")
    }
    assert all(r["metric"] == "node_samples_per_s" for r in sweeps.values())
    (policy,) = [r for r in data["results"] if r["benchmark"] == "table4_policy"]
    assert policy["params"]["n_jobs"] > 0
    # The artifact is plain JSON (round-trips through json module).
    assert json.loads(path.read_text())["schema"] == "repro-bench/1"
    out = capsys.readouterr().out
    assert "benchmark" in out  # table header printed to stdout


def test_bench_only_filter_rejects_unknown(tmp_path, capsys):
    rc = main(
        ["bench", "--quick", "--only", "nosuchbench", "--out", str(tmp_path)]
    )
    assert rc == 2


def test_bench_repeats_recorded(tmp_path):
    rc = main(
        [
            "bench", "--quick", "--only", "engine_prescheduled",
            "--repeats", "2", "--name", "rep", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    data = json.loads((tmp_path / "BENCH_rep.json").read_text())
    validate_report(data)
    assert data["repeats"] == 2


def test_bench_out_dir_is_created(tmp_path):
    out = tmp_path / "not" / "yet"
    rc = main(
        [
            "bench", "--quick", "--only", "engine_prescheduled",
            "--name", "mk", "--out", str(out),
        ]
    )
    assert rc == 0
    validate_report(json.loads((out / "BENCH_mk.json").read_text()))
