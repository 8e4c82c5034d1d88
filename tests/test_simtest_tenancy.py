"""Simtest tenancy dimension: generation, byte-identity, fuzzing, and
the plant-a-bug self-check for the tenant invariant checkers.

The critical contract pinned here (ISSUE 10): switching tenancy OFF
(``p_tenancy=0``) produces scenarios that are byte-identical — dict
for dict, key for key — to what the generator produced before the
tenancy dimension existed. The tenant mix draws from its own
``simtest/tenancy`` substream, so topologies, job mixes, faults and
budgets of every historical seed are untouched.
"""

from __future__ import annotations

import os

import pytest

from repro.simtest.fuzzer import run_batch
from repro.simtest.harness import run_scenario
from repro.simtest.invariants import default_checkers
from repro.simtest.scenario import GeneratorConfig, Scenario, TenantMix, generate_scenario
from repro.simtest.shrink import make_oracle, shrink_scenario
from repro.tenancy.coordinator import TenancyCoordinator

TENANTED = GeneratorConfig(p_tenancy=1.0)
ANONYMOUS = GeneratorConfig(p_tenancy=0.0)


def _strip_tenancy(d: dict) -> dict:
    """Remove every tenancy-related key a tenanted scenario adds."""
    out = dict(d)
    out.pop("tenancy", None)
    out["jobs"] = [
        {k: v for k, v in job.items() if k != "user"} for job in d["jobs"]
    ]
    return out


def test_tenancy_off_scenarios_are_byte_identical():
    """p_tenancy=0 emits exactly the pre-tenancy scenario dicts: no
    ``tenancy`` key, no ``user`` keys, and every other dimension equal
    to the tenanted draw of the same seed (substream isolation)."""
    for seed in range(10):
        anon = generate_scenario(seed, ANONYMOUS).to_dict()
        assert "tenancy" not in anon
        assert all("user" not in job for job in anon["jobs"])
        tenanted = generate_scenario(seed, TENANTED).to_dict()
        assert "tenancy" in tenanted
        assert _strip_tenancy(tenanted) == anon


def test_tenanted_scenario_roundtrip_exact():
    for seed in range(8):
        scenario = generate_scenario(seed, TENANTED)
        assert scenario.tenancy is not None
        payload = scenario.to_dict()
        again = Scenario.from_dict(payload)
        assert again == scenario
        assert again.to_dict() == payload
        assert isinstance(again.tenancy, TenantMix)


def test_generator_draws_admission_only_under_cap():
    """Admission control needs a budget to defend: a tenant mix with
    admission on implies the scenario carries a global cap."""
    seen_admission = False
    for seed in range(40):
        scenario = generate_scenario(
            seed, GeneratorConfig(p_tenancy=1.0, p_admission=1.0)
        )
        if scenario.tenancy.admission:
            seen_admission = True
            assert scenario.global_cap_w is not None
    assert seen_admission


def test_tenant_checkers_registered():
    names = {c.name for c in default_checkers()}
    assert {
        "tenant_conservation",
        "tenant_no_starvation",
        "tenant_admission",
    } <= names


def test_tenanted_run_is_deterministic():
    scenario = generate_scenario(3, TENANTED)
    r1 = run_scenario(scenario, checkers=default_checkers())
    r2 = run_scenario(scenario, checkers=default_checkers())
    assert r1.ok, [str(v) for v in r1.violations]
    assert r1.digest == r2.digest


def test_smoke_batch_forced_tenancy_clean():
    report = run_batch(list(range(6)), config=TENANTED, shrink=False)
    assert report.ok, report.summary()


def test_planted_fairshare_bug_is_caught_and_shrunk(monkeypatch):
    """Self-check: a deliberately biased weight source on the manager
    (one project's weight inflated after the checker's own snapshot)
    trips the tenant_conservation invariant, and the shrinker hands back
    a smaller scenario that still reproduces it."""
    install = TenancyCoordinator.__init__

    def install_biased_weights(self, cluster, config):
        install(self, cluster, config)

        def biased(job_nodes):
            weights = self.job_weights(job_nodes)
            if weights:
                first = sorted(weights)[0]
                weights[first] = weights[first] + 1.0
            return weights

        root = self._root()
        if root is not None:
            root.job_weights = biased

    monkeypatch.setattr(TenancyCoordinator, "__init__", install_biased_weights)
    violation = None
    scenario = None
    for seed in range(8):
        scenario = generate_scenario(seed, TENANTED)
        result = run_scenario(
            scenario, checkers=default_checkers(), stop_on_first=True
        )
        for v in result.violations:
            if v.invariant == "tenant_conservation":
                violation = v
                break
        if violation is not None:
            break
    assert violation is not None, "planted bug was never detected"

    report = shrink_scenario(scenario, violation, max_runs=60)
    assert len(report.minimal.jobs) <= len(scenario.jobs)
    assert report.minimal.tenancy is not None  # the bug needs tenants
    # The minimal scenario still reproduces the same invariant.
    assert make_oracle("tenant_conservation")(report.minimal) is not None


@pytest.mark.tenants
@pytest.mark.simtest
@pytest.mark.skipif(
    not os.environ.get("REPRO_SIMTEST_DEEP"),
    reason="deep tenant-mix batch only with REPRO_SIMTEST_DEEP=1",
)
def test_deep_tenant_mix_batch():
    """ISSUE 10 acceptance: 100 forced-tenancy seeds, zero violations."""
    report = run_batch(list(range(100)), config=TENANTED, shrink=False)
    assert report.ok, report.summary()
