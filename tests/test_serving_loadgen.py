"""The deterministic load harness: traces, digests, goldens, the CLI.

The contracts under test, in order of importance:

1. **Trace byte-identity** — same seed + profile → byte-identical JSONL
   trace (and different seeds diverge).
2. **Response byte-identity** — replaying one trace against two fresh
   identically-seeded worlds yields the same ``response_digest``, with
   zero errors (payloads are valid by construction).
3. **Golden pin** — the fixture under ``tests/golden/serving_smoke.json``
   (regenerate via ``python tests/golden_serving.py --write``).
4. **Non-perturbation** — a 500-client query storm fired mid-run leaves
   a simtest scenario's digest byte-identical (the ISSUE's acceptance
   criterion for the serving tier).
5. The bench artifact is schema-valid and the CLI gates on errors/p99.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.bench import validate_report
from repro.cli import main
from repro.serving import (
    DEFAULT_OP_MIX,
    ClusterRegistry,
    LoadProfile,
    PowerService,
    generate_trace,
    run_loadtest,
    trace_lines,
    trace_sha256,
)
from repro.simtest.harness import run_scenario
from repro.simtest.invariants import default_checkers
from repro.simtest.scenario import generate_scenario

sys.path.insert(0, os.path.dirname(__file__))
from golden_serving import GOLDEN_PATH, PROFILE, SEED, build_service, run_smoke  # noqa: E402

QUICK = LoadProfile(clients=12, requests_per_client=3, warmup_jobs=2,
                    advance_every=10)


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------


def test_same_seed_same_trace_bytes():
    a = generate_trace(3, QUICK)
    b = generate_trace(3, QUICK)
    assert trace_lines(a) == trace_lines(b)
    assert trace_sha256(a) == trace_sha256(b)


def test_different_seeds_diverge():
    assert trace_sha256(generate_trace(3, QUICK)) != \
        trace_sha256(generate_trace(4, QUICK))


def test_trace_is_open_loop_and_well_formed():
    trace = generate_trace(1, QUICK)
    assert len(trace) == QUICK.total_requests
    assert [r.seq for r in trace] == list(range(len(trace)))
    times = [r.t_arrival for r in trace]
    assert times == sorted(times)
    assert all(0 <= r.client < QUICK.clients for r in trace)
    ops = {r.op for r in trace}
    assert ops <= {name for name, _w in DEFAULT_OP_MIX}


def test_trace_targets_only_jobs_known_to_exist():
    """Valid-by-construction payloads: no request names a future jobid."""
    known = QUICK.warmup_jobs
    for req in generate_trace(5, QUICK):
        if req.op in ("get_job", "job_output"):
            jobid = int(req.path.split("/jobs/")[1].split("/")[0])
            assert 1 <= jobid <= known
        elif req.op == "submit_job":
            known += 1


def test_bad_profiles_are_rejected():
    with pytest.raises(ValueError, match=">= 1 client"):
        generate_trace(1, LoadProfile(clients=0))
    with pytest.raises(ValueError, match="sum to 1"):
        generate_trace(1, LoadProfile(op_mix=(("health", 0.5),)))


# ---------------------------------------------------------------------------
# Execution determinism
# ---------------------------------------------------------------------------


def test_fresh_worlds_same_seed_identical_responses():
    results = []
    for _ in range(2):
        service, driver = build_service()
        results.append(run_loadtest(11, QUICK, service, driver))
    first, second = results
    assert first.errors == 0, first.status_counts
    assert first.trace_sha256 == second.trace_sha256
    assert first.response_digest == second.response_digest
    assert first.status_counts == second.status_counts
    assert first.op_counts == second.op_counts


def test_different_seed_different_responses():
    service, driver = build_service()
    a = run_loadtest(11, QUICK, service, driver)
    service, driver = build_service()
    b = run_loadtest(12, QUICK, service, driver)
    assert a.response_digest != b.response_digest


def test_latency_percentiles_nearest_rank():
    service, driver = build_service()
    result = run_loadtest(11, QUICK, service, driver)
    # Surgery on the samples: known ladder, known answers.
    result.latencies_s = [i / 1000.0 for i in range(1, 101)]
    assert result.percentile_ms(50) == pytest.approx(50.0)
    assert result.percentile_ms(95) == pytest.approx(95.0)
    assert result.percentile_ms(99) == pytest.approx(99.0)
    assert result.percentile_ms(100) == pytest.approx(100.0)
    result.latencies_s = []
    assert result.p99_ms == 0.0


# ---------------------------------------------------------------------------
# Golden pin
# ---------------------------------------------------------------------------


def test_golden_smoke_fixture_matches():
    with open(GOLDEN_PATH) as fh:
        pinned = json.load(fh)
    fresh = run_smoke()
    assert fresh["trace_sha256"] == pinned["trace_sha256"], (
        "trace generation changed — if intentional, regenerate with "
        "`python tests/golden_serving.py --write`"
    )
    assert fresh["response_digest"] == pinned["response_digest"], (
        "service responses changed — if intentional, regenerate with "
        "`python tests/golden_serving.py --write`"
    )
    assert fresh == pinned


def test_golden_campaign_is_clean_and_covers_the_mix():
    with open(GOLDEN_PATH) as fh:
        pinned = json.load(fh)
    assert pinned["errors"] == 0
    assert pinned["n_requests"] == PROFILE.total_requests
    assert pinned["seed"] == SEED
    # Every op of the default mix actually occurs in the pinned trace.
    assert set(pinned["op_counts"]) == {name for name, _w in DEFAULT_OP_MIX}


# ---------------------------------------------------------------------------
# Non-perturbation: the storm-vs-digest pin
# ---------------------------------------------------------------------------

#: Read-only mix for storms fired into a foreign simulation: no submits,
#: so the storm cannot legitimately change anything.
READ_ONLY_MIX = (
    ("cluster_power", 0.30),
    ("list_jobs", 0.25),
    ("get_job", 0.15),
    ("nodes", 0.10),
    ("queue", 0.10),
    ("job_output", 0.05),
    ("health", 0.05),
)


def test_500_client_query_storm_leaves_simtest_digest_unchanged():
    """The ISSUE's acceptance pin: serving reads never perturb a run.

    The same generated scenario runs twice; the second run schedules a
    mid-run storm of 500 clients' requests straight into a PowerService
    over the live cluster. Every response must be non-5xx and the run
    digest must not move by a byte.
    """
    scenario = generate_scenario(2)
    assert scenario.serving is None  # keep the two runs' scenarios identical
    base = run_scenario(scenario, checkers=default_checkers())
    assert base.ok, base.summary()

    profile = LoadProfile(
        clients=500, requests_per_client=1, warmup_jobs=0,
        op_mix=READ_ONLY_MIX, advance_every=0,
    )
    storm_trace = generate_trace(9, profile, n_nodes=scenario.n_nodes)
    statuses = []

    def setup(cluster, sim):
        service = PowerService(
            ClusterRegistry.from_cluster(cluster, name="default"))

        def storm():
            for req in storm_trace:
                resp = service.handle(req.method, req.path, req.params,
                                      req.body)
                statuses.append(resp.status)

        sim.schedule_at(5.0, storm)

    stormy = run_scenario(generate_scenario(2), checkers=default_checkers(),
                          setup=setup)
    assert len(statuses) == 500
    assert all(s < 500 for s in statuses)
    assert stormy.digest == base.digest


# ---------------------------------------------------------------------------
# Bench artifact + CLI
# ---------------------------------------------------------------------------


def test_loadtest_report_is_schema_valid():
    service, driver = build_service()
    result = run_loadtest(11, QUICK, service, driver)
    report = result.to_report(name="unit", quick=True)
    validate_report(report.to_dict())
    metrics = {r.metric for r in report.results}
    assert metrics == {"requests_per_s", "latency_p50_ms", "latency_p95_ms",
                       "latency_p99_ms", "errors"}
    by_metric = {r.metric: r.value for r in report.results}
    assert by_metric["errors"] == 0.0
    assert by_metric["requests_per_s"] > 0


def test_cli_loadtest_writes_artifact_and_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code = main([
        "loadtest", "--clients", "10", "--requests-per-client", "2",
        "--warmup-jobs", "1", "--seed", "1", "--nodes", "8",
        "--name", "citest", "--out", str(tmp_path), "--quick",
        "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace_sha256=" in out and "response_digest=" in out
    artifact = json.loads((tmp_path / "BENCH_citest.json").read_text())
    assert artifact["schema"] == "repro-bench/1"
    assert {r["metric"] for r in artifact["results"]} >= {"latency_p99_ms"}
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 20
    assert json.loads(lines[0])["seq"] == 0


def test_cli_loadtest_out_dir_is_created(tmp_path, capsys):
    out = tmp_path / "not" / "yet"
    code = main([
        "loadtest", "--clients", "5", "--requests-per-client", "2",
        "--seed", "1", "--nodes", "8", "--name", "mk", "--out", str(out),
        "--quick",
    ])
    assert code == 0
    artifact = json.loads((out / "BENCH_mk.json").read_text())
    assert artifact["schema"] == "repro-bench/1"


def test_cli_loadtest_same_seed_same_digest_lines(tmp_path, capsys):
    argv = ["loadtest", "--clients", "10", "--requests-per-client", "2",
            "--seed", "4", "--nodes", "8", "--out", str(tmp_path), "--quick"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def digest_lines(text):
        return [l for l in text.splitlines()
                if l.startswith(("trace_sha256=", "response_digest="))]

    assert digest_lines(first) == digest_lines(second)


def test_cli_loadtest_p99_gate_fails(tmp_path, capsys):
    code = main([
        "loadtest", "--clients", "5", "--requests-per-client", "2",
        "--seed", "1", "--nodes", "8", "--out", str(tmp_path), "--quick",
        "--p99-max", "0.000001",
    ])
    assert code == 1
    assert "exceeds bound" in capsys.readouterr().err


def test_cli_serve_smoke(tmp_path, capsys):
    code = main(["serve", "--nodes", "8", "--seed", "1", "--port", "0",
                 "--smoke"])
    assert code == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out
