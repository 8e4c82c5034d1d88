"""Integration tests for the policy zoo and its head-to-head campaign.

Pins the four claims docs/policies.md makes about the zoo:

* the head-to-head campaign covers exactly the policy registry;
* quick-mode output at the documented seed is byte-identical to the
  committed fixture ``tests/golden/policy_head_to_head.csv`` (the same
  fixture ``tools/verify.sh``'s ``policies`` stage diffs);
* a deliberately mis-tuned high-gain PI controller stays inside the
  device cap box *only because* the safety wrapper clamps it — the
  pinned wrapper regression;
* the checkpoint-aware policy actually detects checkpoint windows on
  the HACC proxy (the behaviour its table row depends on).
"""

from __future__ import annotations

import os

import pytest

from repro import Jobspec, ManagerConfig, PowerManagedCluster
from repro.experiments.table4_policies import (
    HEAD_TO_HEAD_POLICIES,
    run_policy_head_to_head,
)
from repro.manager.module import attach_manager
from repro.manager.policies import POLICY_FACTORIES, PolicySafetyWrapper
from repro.manager.policies.pi import PIParams, PIPolicy

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "policy_head_to_head.csv")


def test_head_to_head_covers_the_whole_registry():
    assert set(HEAD_TO_HEAD_POLICIES) == set(POLICY_FACTORIES)


def test_quick_head_to_head_matches_golden_fixture():
    result = run_policy_head_to_head(seed=1, quick=True)
    with open(GOLDEN) as fh:
        assert result.to_csv() == fh.read(), (
            "head-to-head output diverged from tests/golden/"
            "policy_head_to_head.csv — if the change is intentional, "
            "regenerate with: python -m repro.cli policies --compare "
            "--seed 1 -o tests/golden/policy_head_to_head.csv "
            "and refresh the table in docs/policies.md"
        )


def test_head_to_head_rejects_unknown_policy():
    with pytest.raises(ValueError):
        run_policy_head_to_head(seed=1, quick=True, policies=("nope",))


def _run_wrapped_misconfigured_pi():
    """An absurdly hot PI (kp=50, ki=5) behind the wrapper, no damper."""
    factory = lambda: PolicySafetyWrapper(
        PIPolicy(PIParams(kp=50.0, ki=5.0)), damper=0.0, slowdown=1.5
    )
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=7,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=4800.0, policy="static", static_node_cap_w=1950.0
        ),
    )
    cluster.manager.detach()
    cluster.manager = attach_manager(
        cluster.instance,
        ManagerConfig(global_cap_w=4800.0, policy="proportional",
                      static_node_cap_w=1950.0),
        policy_factory=factory,
    )
    cluster.submit(Jobspec(app="gemm", nnodes=4, params={"work_scale": 0.5}))
    cluster.run_until_complete(timeout_s=200_000)
    return cluster


def test_wrapper_contains_misconfigured_high_gain_pi():
    cluster = _run_wrapped_misconfigured_pi()
    tried_to_escape = 0
    for nm in cluster.manager.node_managers:
        lo, hi = nm.cap_range("gpu")
        wrapper = nm.policy
        desc = wrapper.describe()
        assert desc["policy"] == "safe-pi"
        # Every cap the node actually installed stayed inside the box.
        for cap in nm._last_caps["gpu"]:
            if cap is not None:
                assert lo <= cap <= hi
        # And the wrapper demonstrably had to intervene: the raw
        # controller output was clamped at the budget ceiling / box —
        # remove the wrapper and these writes would have escaped.
        clamps = desc["clamps"]
        tried_to_escape += sum(clamps.values())
    assert tried_to_escape > 0, (
        "mis-tuned PI never hit a guard — the regression no longer "
        "exercises the wrapper"
    )


def test_checkpoint_policy_sees_hacc_windows():
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=4,
        seed=11,
        trace=False,
        manager_config=ManagerConfig(
            global_cap_w=4800.0, policy="checkpoint", static_node_cap_w=1950.0
        ),
    )
    cluster.submit(Jobspec(app="hacc", nnodes=4, params={"work_scale": 1.5}))
    cluster.run_until_complete(timeout_s=200_000)
    windows = cluster.telemetry_hub.metrics.counter(
        "policy_checkpoint_windows_total"
    ).value
    assert windows > 0, "checkpoint policy never detected a HACC window"


def test_head_to_head_is_byte_stable_across_runs():
    a = run_policy_head_to_head(seed=2, quick=True, policies=("pi", "ecoshift"))
    b = run_policy_head_to_head(seed=2, quick=True, policies=("pi", "ecoshift"))
    assert a.to_csv() == b.to_csv()
