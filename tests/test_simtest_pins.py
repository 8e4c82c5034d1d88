"""Literal digest pins for generated simtest seeds.

The other simtest tests compare a run against its own re-run, which
cannot notice a change that shifts both runs alike. These pin the
digests themselves: one seed per campaign shape of the single-cluster
tier (plain, rank faults, serving, tenancy with admission), one
tenant-forced seed, two federated seeds (one with a whole-cluster
outage) and one crash-restore digest. A changed pin means the
scenario draw, the run loop or the digest layout changed.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.lifecycle.recovery import RECOVERY_TIER, run_with_recovery
from repro.simtest import SINGLE_TIER, GeneratorConfig, run_batch
from repro.simtest.federation import FEDERATED_TIER

SINGLE_PINS = {
    # lassen x17, static policy, one job, no faults
    8: "30a49e9ed917d54a4343728b2d9ea075400829891854e0517dae0e3f35b186d8",
    # lassen x8, two rank faults
    9: "b7664494f701f9395a9aa94ef22dd1a8669f2de4240a477047d0fa98e2a206a1",
    # lassen x6 with a serving client mix
    3: "09cfec4195d4f0408f72c91db84909013705a09b5a30ee2bf98ee395636c0876",
    # lassen x16, tenant mix with admission, faults + link window
    5: "15b7ddf28ea4c583714fb8a09cce59328be46f1c12eb0fda78e309c21d7095eb",
}

#: ``repro tenants`` seed 3: GeneratorConfig(p_tenancy=1.0).
TENANT_PIN = (3, "a8b8027b41e90c3c87090d56c681db18e66b33cce034261f4b3b3dd9bf7ffb75")

FEDERATED_PINS = {
    # two clusters, no outage, one site retune
    4: ("163c6fe32ec51992679f31e543a6bf6e51e7907f6111da38e9c3ea92bd53771f", 75),
    # two clusters, c0 suffers a whole-cluster outage
    2: ("0deb95b4c18389fa2c4d7b5d6619af09e790f18f79c31b101e7d53461d5d3366", 16),
}

#: ``repro lifecycle --seed 1 --nodes 16``: the crashed run's digest
#: (equal to the uninterrupted run's, or the result carries a
#: ``restore_equivalence`` violation).
RECOVERY_PIN = "6034ed5678e6c71825fa68b7e578ff861d2ea98c40348344e163bb283b30bf3e"


@pytest.mark.parametrize("seed", sorted(SINGLE_PINS))
def test_single_tier_seed_digest_is_pinned(seed):
    result = SINGLE_TIER.run_seed(seed)
    assert result.ok, result.summary()
    assert result.digest == SINGLE_PINS[seed]
    assert result.n_rebalances is None


def test_tenant_forced_seed_digest_is_pinned():
    seed, digest = TENANT_PIN
    result = SINGLE_TIER.run_seed(seed, GeneratorConfig(p_tenancy=1.0))
    assert result.ok, result.summary()
    assert result.scenario.tenancy is not None
    assert result.digest == digest


@pytest.mark.parametrize("seed", sorted(FEDERATED_PINS))
def test_federated_seed_digest_is_pinned(seed):
    digest, n_rebalances = FEDERATED_PINS[seed]
    result = FEDERATED_TIER.run_seed(seed)
    assert result.ok, result.summary()
    assert result.digest == digest
    assert result.n_rebalances == n_rebalances


def test_federated_pins_cover_an_outage():
    outages = {
        seed: any(c.outages for c in FEDERATED_TIER.generate(seed, None).clusters)
        for seed in FEDERATED_PINS
    }
    assert outages == {4: False, 2: True}


def test_recovery_base_digest_is_pinned():
    scenario = SINGLE_TIER.generate(1, GeneratorConfig(min_nodes=16, max_nodes=16))
    result = run_with_recovery(scenario, 0.5)
    assert result.violations == [], result.summary()
    assert result.digest == RECOVERY_PIN


def test_batch_summary_labels_follow_the_tier():
    assert run_batch([8]).summary() == "simtest: 1 scenario(s), 1 ok, 0 violating"
    assert run_batch([4], tier=FEDERATED_TIER).summary() == (
        "federate: 1 scenario(s), 1 ok, 0 violating"
    )
    assert run_batch([8], tier=RECOVERY_TIER, shrink=False).summary() == (
        "lifecycle: 1 scenario(s), 1 ok, 0 violating"
    )


@pytest.mark.parametrize(
    "command, seed, digest",
    [
        ("simtest", 9, SINGLE_PINS[9]),
        ("federate", 2, FEDERATED_PINS[2][0]),
    ],
)
def test_cli_expect_digest_accepts_the_pin(capsys, command, seed, digest):
    assert main([command, "--seed", str(seed), "--expect-digest", digest]) == 0
    assert capsys.readouterr().out.startswith(f"OK   seed={seed} ")
