"""Tests for the federated simtest tier (ISSUE 5 satellites).

Smoke coverage runs in tier-1; the 100-seed federated batch sits behind
``REPRO_SIMTEST_DEEP=1`` with the ``federation`` marker, mirroring the
single-cluster deep batch.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.simtest import run_batch
from repro.simtest.federation import (
    FEDERATED_TIER,
    ClusterScenario,
    FederatedGeneratorConfig,
    FederatedScenario,
    generate_federated_scenario,
    run_federated_scenario,
)
from repro.simtest.invariants import site_checkers
from repro.simtest.shrink import load_reproducer

DEEP = os.environ.get("REPRO_SIMTEST_DEEP") == "1"


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic():
    assert generate_federated_scenario(5) == generate_federated_scenario(5)
    assert generate_federated_scenario(5) != generate_federated_scenario(6)


def test_generator_respects_bounds():
    cfg = FederatedGeneratorConfig()
    for seed in range(25):
        sc = generate_federated_scenario(seed, cfg)
        assert cfg.min_clusters <= len(sc.clusters) <= cfg.max_clusters
        names = [c.name for c in sc.clusters]
        assert len(set(names)) == len(names)
        total_floor = 0.0
        for c in sc.clusters:
            assert cfg.min_nodes <= c.n_nodes <= cfg.max_nodes
            assert c.platform in cfg.platforms
            assert c.policy in cfg.policies
            assert cfg.min_jobs <= len(c.jobs) <= cfg.max_jobs
            assert c.min_share_w >= 0.0
            if c.max_share_w is not None:
                assert c.max_share_w >= c.min_share_w
            total_floor += c.min_share_w
            # outages and rank faults are mutually exclusive by design
            assert not (c.outages and c.fault_events)
            for j in c.jobs:
                assert 1 <= j.nnodes <= c.n_nodes
        assert total_floor <= sc.site_budget_w
        for _t, w in sc.site_budget_schedule:
            assert w >= total_floor
        assert sc.rebalance_epoch_s in cfg.epochs_s


def test_generator_covers_outages_and_faults():
    kinds = {"outage": 0, "faults": 0, "retune": 0}
    for seed in range(40):
        sc = generate_federated_scenario(seed)
        if any(c.outages for c in sc.clusters):
            kinds["outage"] += 1
        if any(c.fault_events for c in sc.clusters):
            kinds["faults"] += 1
        if sc.site_budget_schedule:
            kinds["retune"] += 1
    assert all(v > 0 for v in kinds.values()), kinds


def test_scenario_json_roundtrip():
    for seed in range(10):
        sc = generate_federated_scenario(seed)
        blob = json.dumps(sc.to_dict(), sort_keys=True)
        assert FederatedScenario.from_dict(json.loads(blob)) == sc


def test_reproducer_with_retired_sharded_key_still_loads():
    """Artifacts written while the site had a sharded twin carry a
    ``sharded`` key; it is ignored, so they still replay."""
    sc = generate_federated_scenario(3)
    for flag in (True, False):
        legacy = json.loads(json.dumps(dict(sc.to_dict(), sharded=flag)))
        assert FederatedScenario.from_dict(legacy) == sc
    assert "sharded" not in sc.to_dict()


def test_describe_mentions_every_cluster():
    sc = generate_federated_scenario(1)
    text = sc.describe()
    for c in sc.clusters:
        assert c.name in text
    assert f"seed={sc.seed}" in text


def test_outage_fault_plan_crashes_every_crashable_rank():
    sc = FederatedScenario(
        seed=0, site_budget_w=10_000.0,
        clusters=(
            ClusterScenario(name="c0", n_nodes=4, outages=((20.0, 10.0),)),
        ),
    )
    plan = sc.clusters[0].fault_plan()
    assert plan is not None
    assert sorted(ev.rank for ev in plan.events) == [1, 2, 3]
    assert all(ev.kind == "crash" and ev.duration_s == 10.0 for ev in plan.events)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def test_run_digest_is_replayable():
    a = FEDERATED_TIER.run_seed(1)
    b = FEDERATED_TIER.run_seed(1)
    assert a.digest == b.digest
    assert a.ok, a.summary()


def test_smoke_batch_is_clean():
    report = run_batch(range(3), tier=FEDERATED_TIER)
    assert report.ok, report.summary()
    assert len(report.results) == 3
    assert all(r.digest for r in report.results)


def test_outage_scenario_reports_federation_counters():
    # seed 2 carries a whole-cluster outage (pinned by the generator
    # test above being deterministic); run it and check the digest
    # includes a rebalance count.
    found = None
    for seed in range(20):
        sc = generate_federated_scenario(seed)
        if any(c.outages for c in sc.clusters):
            found = sc
            break
    assert found is not None
    result = run_federated_scenario(found, checkers=site_checkers())
    assert result.ok, result.summary()
    assert result.n_rebalances > 0


def test_reproducer_artifact_roundtrip(tmp_path):
    sc = generate_federated_scenario(4)
    path = tmp_path / "repro.json"
    with open(path, "w") as fh:
        json.dump({"scenario": sc.to_dict(), "violations": []}, fh)
    loaded = load_reproducer(str(path), FederatedScenario)
    assert loaded == sc
    result = FEDERATED_TIER.run(loaded)
    assert result.digest == run_federated_scenario(sc).digest


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_federate_single_seed(capsys):
    rc = main(["federate", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out and "digest=" in out


def test_cli_federate_expect_digest(capsys):
    digest = FEDERATED_TIER.run_seed(1).digest
    assert main(["federate", "--seed", "1", "--expect-digest", digest]) == 0
    capsys.readouterr()
    # the printed 12-char prefix is accepted back verbatim
    assert main(["federate", "--seed", "1", "--expect-digest", digest[:12]]) == 0
    capsys.readouterr()
    assert main(["federate", "--seed", "1", "--expect-digest", "deadbeef"]) == 2
    capsys.readouterr()
    # short strings never prefix-match, even if they happen to be one
    assert main(["federate", "--seed", "1", "--expect-digest", digest[:8]]) == 2


def test_cli_federate_batch(capsys):
    rc = main(["federate", "--seeds", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 scenario(s)" in out


def test_cli_federate_demo(tmp_path, capsys):
    out_csv = tmp_path / "timeline.csv"
    rc = main(["federate", "--demo", "--output", str(out_csv)])
    assert rc == 0
    text = out_csv.read_text()
    assert text.startswith("t_s,reason,live,")
    assert "outage" in text and "recovery" in text and "retune" in text


# ----------------------------------------------------------------------
# Deep batch (REPRO_SIMTEST_DEEP=1)
# ----------------------------------------------------------------------
@pytest.mark.federation
@pytest.mark.simtest
@pytest.mark.slow
@pytest.mark.skipif(not DEEP, reason="set REPRO_SIMTEST_DEEP=1 for the deep batch")
def test_deep_federated_batch_100_seeds():
    """The ISSUE 5 acceptance batch: 100 federated seeds, 0 violations."""
    report = run_batch(range(100), tier=FEDERATED_TIER)
    assert len(report.results) == 100
    assert report.ok, report.summary()


@pytest.mark.parametrize(
    "payload", ['{"foo": 1}', '{"scenario": {"seed": 1}}', "not json"]
)
def test_cli_federate_replay_malformed_artifact_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert main(["federate", "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err
    assert captured.out == ""


def test_unshrunk_federated_reproducer_roundtrip(tmp_path, capsys):
    """A violating federated run is written in the shared reproducer
    format (unshrunk) and replays through ``repro federate --replay``."""
    from repro.simtest.harness import SimtestResult
    from repro.simtest.invariants import Violation
    from repro.simtest.shrink import write_reproducer

    sc = generate_federated_scenario(4)
    finding = Violation(invariant="site_budget", t=1.0, message="planted")
    result = SimtestResult(scenario=sc, violations=[finding], digest="d" * 64)
    path = tmp_path / "federate-seed4-site_budget.json"
    write_reproducer(str(path), result)
    payload = json.loads(path.read_text())
    assert payload["simtest_reproducer"] == 1
    assert payload["invariant"] == "site_budget"
    assert payload["violations"] == [finding.to_dict()]
    assert "original_scenario" not in payload
    assert load_reproducer(str(path), FederatedScenario) == sc
    assert main(["federate", "--replay", str(path)]) == 0
    assert capsys.readouterr().out.startswith("OK   seed=4 ")
