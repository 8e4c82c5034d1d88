"""Cluster snapshot/restore round trips and policy continuation state.

Covers the artifact layer end to end — snapshot → JSON → wipe →
restore leaves management state bit-identical — plus the safety
wrapper's recovery contract: damper last-actuation memory and exit
counters survive a restore (the recovery-path bug a naive restore that
drops the policy section reintroduces).
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import PowerManagedCluster
from repro.flux.jobspec import Jobspec
from repro.lifecycle.snapshot import (
    SCHEMA_VERSION,
    SnapshotError,
    diff_snapshots,
    load_snapshot,
    restore_cluster,
    save_snapshot,
    snapshot_cluster,
    wipe_cluster_state,
)
from repro.manager.cluster_manager import ManagerConfig
from repro.manager.policies.safety import PolicySafetyWrapper
from repro.simtest.scenario import Scenario


def _managed_cluster(policy: str, seed: int = 3, n_nodes: int = 4):
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=n_nodes,
        seed=seed,
        manager_config=ManagerConfig(
            global_cap_w=1200.0 * n_nodes,
            policy=policy,
            static_node_cap_w=1950.0,
        ),
    )
    cluster.submit(Jobspec(app="gemm", nnodes=n_nodes, params={"work_scale": 6.0}))
    return cluster


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_snapshot_json_round_trips_and_is_self_consistent():
    cluster = _managed_cluster("pi")
    cluster.run_for(30.0)
    snap = snapshot_cluster(cluster)
    assert snap["schema_version"] == SCHEMA_VERSION
    assert snap["kind"] == "cluster"
    # Everything in the artifact is plain JSON.
    rehydrated = json.loads(json.dumps(snap, sort_keys=True))
    assert diff_snapshots(snap, rehydrated) == []
    # Taking it twice at the same instant is deterministic.
    assert diff_snapshots(snap, snapshot_cluster(cluster)) == []


def test_wipe_then_restore_is_identity():
    cluster = _managed_cluster("pi")
    cluster.run_for(30.0)
    before = snapshot_cluster(cluster)
    root = cluster.manager.cluster
    assert root.job_level.jobs  # the run is mid-flight

    wipe_cluster_state(cluster)
    assert root.job_level.jobs == {}
    assert root.share_log == []
    nm = cluster.manager.node_managers[1]
    assert nm.node_limit_w is None
    assert len(cluster.monitor.node_agents[1].buffer) == 0

    restore_cluster(cluster, json.loads(json.dumps(before)))
    assert diff_snapshots(before, snapshot_cluster(cluster)) == []


def test_restore_rejects_incompatible_artifacts():
    cluster = _managed_cluster("pi")
    cluster.run_for(10.0)
    snap = snapshot_cluster(cluster)

    wrong_version = dict(snap, schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(SnapshotError, match="schema version"):
        restore_cluster(cluster, wrong_version)

    wrong_kind = dict(snap, kind="site")
    with pytest.raises(SnapshotError, match="kind"):
        restore_cluster(cluster, wrong_kind)

    wrong_policy = json.loads(json.dumps(snap))
    wrong_policy["manager"]["config"]["policy"] = "ecoshift"
    with pytest.raises(SnapshotError, match="policy"):
        restore_cluster(cluster, wrong_policy)


def test_save_load_round_trip(tmp_path):
    cluster = _managed_cluster("proportional")
    cluster.run_for(20.0)
    snap = snapshot_cluster(cluster)
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    assert diff_snapshots(snap, load_snapshot(path)) == []


def test_diff_reports_dotted_paths():
    a = {"x": {"y": 1, "z": [1, 2]}, "w": "s"}
    b = {"x": {"y": 2, "z": [1, 2]}, "q": "t"}
    diffs = diff_snapshots(a, b)
    assert any(d.startswith("x.y:") for d in diffs)
    assert any("only in first" in d for d in diffs)
    assert any("only in second" in d for d in diffs)
    assert diff_snapshots(a, a) == []


def test_dead_ranks_are_skipped():
    from repro.faults import FaultEvent, FaultPlan

    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=3,
        manager_config=ManagerConfig(global_cap_w=4800.0, policy="proportional"),
        fault_plan=FaultPlan([FaultEvent(t=10.0, kind="crash", rank=2)]),
    )
    cluster.submit(Jobspec(app="gemm", nnodes=4, params={"work_scale": 6.0}))
    cluster.run_for(20.0)
    snap = snapshot_cluster(cluster)
    assert "2" not in snap["node_managers"]
    assert "2" not in snap["agents"]
    assert "1" in snap["node_managers"]
    # Restoring onto the same topology (rank 2 still dead) is a no-op
    # for the dead rank and exact for the survivors.
    restore_cluster(cluster, snap)
    assert diff_snapshots(snap, snapshot_cluster(cluster)) == []


# ----------------------------------------------------------------------
# Safety-wrapper continuation state (recovery-path fix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["pi", "ecoshift", "checkpoint"])
def test_wrapper_damper_memory_and_counters_survive_restore(policy):
    cluster = _managed_cluster(policy, seed=7)
    cluster.run_for(40.0)
    nm = cluster.manager.node_managers[1]
    wrapper = nm.policy
    assert isinstance(wrapper, PolicySafetyWrapper)
    intents_before = dict(wrapper._intents)
    counters_before = (
        wrapper.damperexits, wrapper.slowdownexits, dict(wrapper.clamps),
    )
    assert intents_before, "the zoo policy should have actuated by t=40"

    snap = snapshot_cluster(cluster)
    wipe_cluster_state(cluster)
    assert wrapper._intents == {}
    assert wrapper.damperexits == 0

    restore_cluster(cluster, json.loads(json.dumps(snap)))
    assert wrapper._intents == intents_before
    assert (
        wrapper.damperexits, wrapper.slowdownexits, dict(wrapper.clamps),
    ) == counters_before


@pytest.mark.parametrize("policy", ["pi", "ecoshift", "checkpoint"])
def test_restore_then_step_matches_uninterrupted_run(policy):
    """The pinned satellite regression: restore-then-step equivalence.

    Two identical seeded clusters run side by side; one is crashed
    (snapshot → wipe → restore) mid-job. From there on, every control
    decision — wrapper exit counters, assignment log, installed caps —
    must match the uninterrupted twin. A naive restore that drops the
    wrapper section (modelled below) fails this: the damper loses its
    last-actuation memory and the exit counters reset, so the twins'
    describe() output splits.
    """
    base = _managed_cluster(policy, seed=11)
    crashed = _managed_cluster(policy, seed=11)
    base.run_for(40.0)
    crashed.run_for(40.0)

    snap = snapshot_cluster(crashed)
    wipe_cluster_state(crashed)
    restore_cluster(crashed, json.loads(json.dumps(snap)))

    base.run_until_complete(timeout_s=1_000_000)
    crashed.run_until_complete(timeout_s=1_000_000)

    for rank in range(len(base.manager.node_managers)):
        b = base.manager.node_managers[rank]
        c = crashed.manager.node_managers[rank]
        assert b.policy.describe() == c.policy.describe()
        assert b._last_caps["gpu"] == c._last_caps["gpu"]
        assert b.node_limit_w == c.node_limit_w
    assert (
        base.manager.cluster.job_level.assignment_log
        == crashed.manager.cluster.job_level.assignment_log
    )


def test_naive_restore_without_policy_state_loses_damper_memory():
    """Demonstrates the pre-fix failure the wrapper snapshot prevents.

    Stripping the policy section from the artifact (what a restore
    predating the fix carried) leaves the restored wrapper amnesiac:
    empty damper memory and zeroed exit counters — the double-count /
    spurious-first-step behaviour the satellite pins against.
    """
    cluster = _managed_cluster("pi", seed=7)
    cluster.run_for(40.0)
    nm = cluster.manager.node_managers[1]
    wrapper = nm.policy
    assert wrapper._intents

    snap = json.loads(json.dumps(snapshot_cluster(cluster)))
    for nm_state in snap["node_managers"].values():
        nm_state["policy"]["state"] = {}
    wipe_cluster_state(cluster)
    restore_cluster(cluster, snap)
    assert wrapper._intents == {}
    assert wrapper.damperexits == 0


# ----------------------------------------------------------------------
# The ``repro lifecycle`` front refuses bad artifacts before any run
# ----------------------------------------------------------------------
def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if the CLI starts a simulation."""
    import repro.simtest

    def _refuse(*_args, **_kwargs):
        raise AssertionError("a bad artifact must be refused before any run")

    monkeypatch.setattr(repro.simtest, "run_scenario", _refuse)


@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"scenario": {"seed": 1}, "t": 1}, "no schema_version"),
        (
            {"schema_version": 1, "kind": "cluster", "t": 1.0,
             "scenario": Scenario(seed=1).to_dict()},
            "schema version 1",
        ),
        ({"schema_version": SCHEMA_VERSION, "kind": "site", "t": 1.0}, "kind"),
        (
            {"schema_version": SCHEMA_VERSION, "kind": "cluster", "t": 1.0,
             "scenario": {"seed": 1}},
            "KeyError",
        ),
        (
            {"schema_version": SCHEMA_VERSION, "kind": "cluster", "t": 1.0},
            "embeds no scenario",
        ),
        ([1, 2], "JSON object"),
    ],
    ids=["bare", "v1", "site", "bad-scenario", "no-scenario", "list"],
)
def test_cli_restore_refuses_bad_artifacts(tmp_path, capsys, no_runs, payload, reason):
    from repro.cli import main

    path = _write(tmp_path / "bad.json", payload)
    assert main(["lifecycle", "--restore", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot restore: {path}: ")
    assert reason in err


def test_cli_restore_refuses_unreadable_file(tmp_path, capsys, no_runs):
    from repro.cli import main

    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["lifecycle", "--restore", str(path)]) == 2
    assert "cannot read snapshot" in capsys.readouterr().err


def test_cli_restore_refuses_a_policy_mismatch_before_any_run(
    tmp_path, capsys, no_runs
):
    from repro.cli import main

    cluster = _managed_cluster("pi")
    cluster.run_for(10.0)
    snap = json.loads(json.dumps(snapshot_cluster(cluster)))
    snap["manager"]["config"]["policy"] = "ecoshift"
    snap["scenario"] = Scenario(seed=1, policy="pi").to_dict()
    path = _write(tmp_path / "mismatch.json", snap)
    assert main(["lifecycle", "--restore", path]) == 2
    assert capsys.readouterr().err == (
        f"cannot restore: {path}: snapshot policy 'ecoshift' != deployed 'pi'\n"
    )


def test_cli_diff_validates_both_envelopes(tmp_path, capsys):
    from repro.cli import main

    foo = _write(tmp_path / "foo.json", {"foo": 1})
    assert main(["lifecycle", "--diff", foo, foo]) == 2
    assert capsys.readouterr().err.startswith(f"cannot diff: {foo}: not a snapshot")

    cluster = _managed_cluster("proportional")
    cluster.run_for(10.0)
    snap = snapshot_cluster(cluster)
    good = str(tmp_path / "good.json")
    save_snapshot(snap, good)
    old = _write(tmp_path / "old.json", dict(snap, schema_version=1))
    assert main(["lifecycle", "--diff", good, old]) == 2
    assert "schema version 1" in capsys.readouterr().err

    assert main(["lifecycle", "--diff", good, good]) == 0
    assert capsys.readouterr().out.strip() == "0 difference(s)"


@pytest.mark.parametrize("at", ["3.0", "-0.5", "0", "1.5", "nan"])
def test_cli_refuses_a_crash_fraction_outside_the_run(
    tmp_path, capsys, no_runs, at
):
    from repro.cli import main

    path = tmp_path / "snap.json"
    for argv in (
        ["lifecycle", "--at", at, "--snapshot", str(path)],
        ["lifecycle", "--seed", "1", "--nodes", "4", "--at", at],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "(0, 1]" in capsys.readouterr().err
    assert not path.exists()


def test_cli_snapshot_then_restore_round_trips(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "snap.json"
    argv = ["lifecycle", "--seed", "8", "--nodes", "2", "--at", "1"]
    assert main(argv + ["--snapshot", str(path)]) == 0
    assert f"wrote {path}: seed=8 " in capsys.readouterr().err
    snap = load_snapshot(str(path), kind="cluster")
    assert Scenario.from_dict(snap["scenario"]).seed == 8

    assert main(["lifecycle", "--restore", str(path)]) == 0
    assert capsys.readouterr().out.endswith("restore equivalence: OK\n")

    late = _write(tmp_path / "late.json", dict(snap, t=1e9))
    assert main(["lifecycle", "--restore", late]) == 2
    assert "is past the end of the run" in capsys.readouterr().err
