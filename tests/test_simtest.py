"""The deterministic simulation-testing subsystem (repro.simtest).

Four layers of coverage:

* generator — same seed, same scenario; JSON round-trip is lossless;
  generated scenarios respect the configured bounds;
* harness — a smoke batch of fuzzed seeds runs with zero violations
  and the digest is byte-replayable (same seed twice → same digest);
* shrinker — pass mechanics against a synthetic oracle, plus the
  **plant-a-bug self-check**: an off-by-one deliberately monkeypatched
  into the job-level equal split must be caught by the invariant layer
  and shrunk to a ≤ 4-node / ≤ 2-job reproducer that re-triggers when
  replayed from its JSON artifact;
* CLI — ``repro simtest`` batch / single-seed / artifact-replay modes.

The deep batches live behind the ``simtest`` marker (deselected from
tier-1 by default duration; run with ``-m simtest``).
"""

import json
import os
from dataclasses import replace

import pytest

from repro.cli import main
from repro.manager.job_level import JobPowerState
from repro.simtest import (
    GeneratorConfig,
    Scenario,
    default_checkers,
    generate_scenario,
    load_reproducer,
    run_batch,
    run_scenario,
    shrink_scenario,
    write_reproducer,
)
from repro.simtest.shrink import make_oracle
from repro.simtest.invariants import Violation

SMOKE_SEEDS = range(3)


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic():
    a = generate_scenario(7)
    b = generate_scenario(7)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_generator_seeds_differ():
    scenarios = {generate_scenario(s).describe() for s in range(10)}
    assert len(scenarios) > 5  # seeds explore the space, not one corner


def test_generator_respects_bounds():
    cfg = GeneratorConfig(min_nodes=4, max_nodes=8, min_jobs=1, max_jobs=2)
    for seed in range(20):
        s = generate_scenario(seed, cfg)
        assert 4 <= s.n_nodes <= 8
        assert 1 <= len(s.jobs) <= 2
        assert s.platform in cfg.platforms
        for job in s.jobs:
            assert 1 <= job.nnodes <= s.n_nodes
            assert job.submit_t >= 0.0
        for ev in s.fault_events:
            assert 1 <= ev.rank < s.n_nodes  # rank 0 never crashes


def test_scenario_json_roundtrip():
    for seed in range(10):
        s = generate_scenario(seed)
        blob = json.dumps(s.to_dict(), sort_keys=True)
        restored = Scenario.from_dict(json.loads(blob))
        assert restored == s


def test_reproducer_with_retired_columnar_key_still_loads():
    """Artifacts written while the monitor had a columnar switch carry
    a ``columnar`` key; it is ignored, so they still replay."""
    s = generate_scenario(3)
    for flag in (True, False):
        legacy = json.loads(json.dumps(dict(s.to_dict(), columnar=flag)))
        assert Scenario.from_dict(legacy) == s
    assert "columnar" not in s.to_dict()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def test_smoke_batch_has_no_violations():
    report = run_batch(SMOKE_SEEDS, shrink=False)
    assert report.ok, report.summary()
    assert len(report.results) == len(SMOKE_SEEDS)
    assert all(r.digest for r in report.results)


def test_same_seed_same_digest():
    first = run_scenario(generate_scenario(1), checkers=default_checkers())
    second = run_scenario(generate_scenario(1), checkers=default_checkers())
    assert first.digest == second.digest
    assert first.ok


def test_different_seeds_different_digests():
    a = run_scenario(generate_scenario(0), checkers=default_checkers())
    b = run_scenario(generate_scenario(1), checkers=default_checkers())
    assert a.digest != b.digest


def test_harness_counts_ticks_and_events():
    result = run_scenario(generate_scenario(1), checkers=default_checkers())
    assert result.n_ticks > 0
    assert result.events_processed > 0
    assert result.makespan_s is not None and result.makespan_s > 0


@pytest.mark.simtest
@pytest.mark.skipif(
    not os.environ.get("REPRO_SIMTEST_DEEP"),
    reason="deep fuzz batch (~25 s); set REPRO_SIMTEST_DEEP=1 or use tools/verify.sh",
)
def test_deep_batch_has_no_violations():
    report = run_batch(range(50), shrink=False)
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Shrinker mechanics (synthetic oracle: no cluster runs, pure logic)
# ----------------------------------------------------------------------
def _always_fails(scenario):
    return Violation(invariant="synthetic", t=0.0, message="always")


def _fails_if_big(scenario):
    if scenario.n_nodes > 4 or len(scenario.jobs) > 1:
        return Violation(invariant="synthetic", t=0.0, message="big")
    return None


def test_shrink_reaches_floor_with_trivial_oracle():
    scenario = generate_scenario(0, GeneratorConfig(min_jobs=3, max_jobs=5))
    seed_violation = _always_fails(scenario)
    report = shrink_scenario(scenario, seed_violation, oracle=_always_fails)
    assert len(report.minimal.jobs) == 1
    assert report.minimal.n_nodes == 2
    assert not report.minimal.fault_events
    assert report.runs > 0


def test_shrink_stops_at_oracle_boundary():
    scenario = generate_scenario(0, GeneratorConfig(min_jobs=3, max_jobs=5))
    report = shrink_scenario(scenario, _fails_if_big(scenario), oracle=_fails_if_big)
    # The oracle passes (stops failing) once the scenario is small, so
    # the shrinker must keep the last still-failing candidate.
    assert _fails_if_big(report.minimal) is not None


def test_shrink_respects_run_budget():
    scenario = generate_scenario(0, GeneratorConfig(min_jobs=3, max_jobs=5))
    report = shrink_scenario(
        scenario, _always_fails(scenario), oracle=_always_fails, max_runs=3
    )
    assert report.runs <= 3


def test_clamp_keeps_scenario_valid():
    from repro.simtest.shrink import _clamp_to_cluster

    scenario = generate_scenario(4)  # tioga, 21 nodes, 3 crashes
    small = _clamp_to_cluster(scenario, 4)
    assert small.n_nodes == 4
    assert all(j.nnodes <= 4 for j in small.jobs)
    assert all(ev.rank < 4 for ev in small.fault_events)
    small.fault_plan().validate(small.n_nodes)  # must stay injectable


# ----------------------------------------------------------------------
# Plant-a-bug self-check: the subsystem must catch a seeded regression
# ----------------------------------------------------------------------
@pytest.fixture
def planted_split_bug(monkeypatch):
    """Off-by-one in the equal split: divide by n-1 instead of n."""

    def buggy(self):
        if self.job_limit_w is None:
            return None
        return self.job_limit_w / max(1, len(self.ranks) - 1)

    monkeypatch.setattr(JobPowerState, "node_limit_w", property(buggy))


def _first_share_split_failure(max_seed=30):
    for seed in range(max_seed):
        scenario = generate_scenario(seed)
        result = run_scenario(
            scenario, checkers=default_checkers(), stop_on_first=True
        )
        hits = [v for v in result.violations if v.invariant == "share_split"]
        if hits:
            return scenario, hits[0], result
    raise AssertionError("planted bug never detected — invariant layer broken")


def test_planted_bug_is_caught_shrunk_and_replayable(planted_split_bug, tmp_path):
    scenario, violation, result = _first_share_split_failure()
    assert "node share x ranks" in violation.message

    report = shrink_scenario(scenario, violation, max_runs=120)
    assert report.minimal.n_nodes <= 4
    assert len(report.minimal.jobs) <= 2

    path = tmp_path / "reproducer.json"
    write_reproducer(str(path), report, result)
    payload = json.loads(path.read_text())
    assert payload["invariant"] == "share_split"
    assert payload["scenario"] == report.minimal.to_dict()

    replayed = run_scenario(
        load_reproducer(str(path)), checkers=default_checkers(),
        stop_on_first=True,
    )
    assert any(v.invariant == "share_split" for v in replayed.violations)


def test_planted_bug_reproducer_is_clean_on_fixed_code(tmp_path):
    """The minimal reproducer from the planted bug passes on real code."""
    scenario = replace(
        generate_scenario(0),
        jobs=generate_scenario(0).jobs[:1],
    )
    result = run_scenario(scenario, checkers=default_checkers())
    assert result.ok, result.summary()


def test_make_oracle_matches_only_target_invariant(planted_split_bug):
    scenario, violation, _ = _first_share_split_failure()
    assert make_oracle("share_split")(scenario) is not None
    assert make_oracle("no_such_invariant")(scenario) is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_simtest_batch(capsys):
    assert main(["simtest", "--seeds", "2", "--no-shrink"]) == 0
    out = capsys.readouterr().out
    assert "2 scenario(s), 2 ok, 0 violating" in out


def test_cli_simtest_single_seed(capsys):
    assert main(["simtest", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK   seed=1 ")
    digest = out.split("digest=")[1].split()[0]
    assert len(digest) == 12


def test_cli_simtest_expect_digest(capsys):
    main(["simtest", "--seed", "2"])
    # The summary truncates; recompute the full digest for the check.
    full = run_scenario(generate_scenario(2), checkers=default_checkers()).digest
    capsys.readouterr()
    assert main(["simtest", "--seed", "2", "--expect-digest", full]) == 0
    assert main(["simtest", "--seed", "2", "--expect-digest", "0" * 64]) == 2


def test_cli_simtest_replays_artifact(planted_split_bug, tmp_path, capsys):
    scenario, violation, result = _first_share_split_failure()
    report = shrink_scenario(scenario, violation, max_runs=60)
    path = tmp_path / "bug.json"
    write_reproducer(str(path), report, result)
    rc = main(["simtest", "--replay", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "share_split" in out


def test_cli_simtest_batch_writes_artifacts(planted_split_bug, tmp_path, capsys):
    # With the planted bug, a small batch must fail, shrink, and leave
    # a reproducer artifact behind.
    rc = main(
        ["simtest", "--seeds", "1", "--artifacts", str(tmp_path)]
    )
    capsys.readouterr()
    assert rc == 1
    artifacts = list(tmp_path.glob("simtest-seed*.json"))
    assert artifacts, "no reproducer artifact written"
    payload = json.loads(artifacts[0].read_text())
    assert payload["simtest_reproducer"] == 1
