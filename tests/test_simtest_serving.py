"""Simtest ``serving`` campaign mode + the ``serving_view`` invariant.

A generated scenario can now carry a :class:`ServingMix` (p≈0.2, drawn
off the ``simtest/serving`` substream): the harness then stands up a
:class:`PowerService` over the scenario's cluster, replays a seeded
read-only client mix at every check tick, and the ``serving_view``
checker cross-checks API job views against the job-manager books and
the power manager's share split.

The backwards-compatibility pins matter most here: scenarios *without*
a mix serialize without a ``serving`` key (historical digests stay
valid), and attaching a campaign to a run changes nothing physical —
same makespan, same job metrics.
"""

from __future__ import annotations

from dataclasses import replace

from repro.simtest.harness import SimtestContext, run_scenario
from repro.simtest.invariants import ServingViewChecker, default_checkers
from repro.simtest.scenario import (
    GeneratorConfig,
    Scenario,
    ServingMix,
    generate_scenario,
)


def _serving_seed(limit=40):
    for seed in range(1, limit):
        if generate_scenario(seed).serving is not None:
            return seed
    raise AssertionError("no serving scenario in the first seeds")


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


def test_serving_mix_roundtrips_through_dict():
    mix = ServingMix(clients=12, requests_per_tick=5, page_limit=3)
    assert ServingMix.from_dict(mix.to_dict()) == mix


def test_scenario_dict_omits_serving_when_absent():
    scenario = generate_scenario(2)
    assert scenario.serving is None
    d = scenario.to_dict()
    assert "serving" not in d  # historical digest preservation
    assert Scenario.from_dict(d).serving is None


def test_scenario_dict_roundtrips_serving():
    seed = _serving_seed()
    scenario = generate_scenario(seed)
    d = scenario.to_dict()
    assert "serving" in d
    assert Scenario.from_dict(d).serving == scenario.serving
    assert "serving" in scenario.describe()


def test_generator_is_deterministic_and_mixes():
    seeds = range(1, 40)
    first = [generate_scenario(s).serving for s in seeds]
    second = [generate_scenario(s).serving for s in seeds]
    assert first == second
    with_mix = [m for m in first if m is not None]
    assert with_mix and len(with_mix) < len(first)
    for mix in with_mix:
        assert 4 <= mix.clients <= 32
        assert 2 <= mix.requests_per_tick <= 8
        assert 2 <= mix.page_limit <= 5


def test_p_serving_zero_disables_the_campaign():
    cfg = GeneratorConfig(p_serving=0.0)
    assert all(generate_scenario(s, cfg).serving is None
               for s in range(1, 15))


def test_serving_draw_does_not_perturb_the_rest_of_the_scenario():
    """The ``simtest/serving`` substream is independent: toggling the
    campaign probability must not change topology/jobs/faults."""
    seed = _serving_seed()
    with_mix = generate_scenario(seed)
    without = generate_scenario(seed, GeneratorConfig(p_serving=0.0))
    a, b = with_mix.to_dict(), without.to_dict()
    a.pop("serving")
    assert a == b


# ---------------------------------------------------------------------------
# The campaign under the harness
# ---------------------------------------------------------------------------


def test_campaign_runs_clean_and_replays():
    seed = _serving_seed()
    first = run_scenario(generate_scenario(seed), checkers=default_checkers())
    assert first.ok, first.summary()
    second = run_scenario(generate_scenario(seed), checkers=default_checkers())
    assert first.digest == second.digest


def test_campaign_does_not_change_the_physics():
    """Same scenario, with and without the campaign attached: identical
    makespan and job metrics — the API reads are free."""
    seed = _serving_seed()
    scenario = generate_scenario(seed)
    plain = replace(scenario, serving=None)
    with_campaign = run_scenario(scenario, checkers=default_checkers())
    without = run_scenario(plain, checkers=default_checkers())
    assert with_campaign.ok and without.ok
    assert with_campaign.makespan_s == without.makespan_s
    assert with_campaign.events_processed == without.events_processed


def test_harness_attaches_service_and_counts_requests():
    seed = _serving_seed()
    scenario = generate_scenario(seed)
    captured = {}

    class Spy(ServingViewChecker):
        def check(self, ctx):
            captured["service"] = getattr(ctx, "service", None)
            captured["requests"] = getattr(ctx, "serving_requests", 0)
            return super().check(ctx)

    result = run_scenario(scenario, checkers=default_checkers() + [Spy()])
    assert result.ok, result.summary()
    assert captured["service"] is not None
    assert captured["requests"] > 0


# ---------------------------------------------------------------------------
# The serving_view checker
# ---------------------------------------------------------------------------


def _checked_context(seed=31):
    """A live cluster with a service attached, mid-run."""
    from repro.cluster import PowerManagedCluster
    from repro.flux.jobspec import Jobspec
    from repro.manager.cluster_manager import ManagerConfig
    from repro.serving import ClusterRegistry, PowerService

    cluster = PowerManagedCluster(
        platform="lassen", n_nodes=4, seed=seed,
        manager_config=ManagerConfig(global_cap_w=5_000.0,
                                     policy="proportional",
                                     static_node_cap_w=1950.0),
    )
    for _ in range(3):
        cluster.submit(Jobspec(app="gemm", nnodes=2,
                               params={"work_scale": 0.5}))
    cluster.run_for(6.0)
    scenario = replace(
        generate_scenario(1),
        serving=ServingMix(clients=4, requests_per_tick=2, page_limit=2),
    )
    ctx = SimtestContext(cluster, scenario)
    ctx.service = PowerService(
        ClusterRegistry.from_cluster(cluster, name="default"))
    return ctx


def test_serving_view_checker_passes_on_a_consistent_world():
    ctx = _checked_context()
    assert ServingViewChecker().check(ctx) == []


def test_serving_view_checker_is_noop_without_a_service():
    ctx = _checked_context()
    ctx.service = None
    assert ServingViewChecker().check(ctx) == []


def test_serving_view_checker_flags_share_divergence(monkeypatch):
    """Plant a lie between the API view and the manager's books."""
    from repro.serving.registry import ClusterBackend

    ctx = _checked_context()
    monkeypatch.setattr(ClusterBackend, "job_power_state",
                        lambda self, jobid: None)
    violations = ServingViewChecker().check(ctx)
    assert violations
    assert all(v.invariant == "serving_view" for v in violations)
    assert any("manager shares" in v.message for v in violations)


def test_serving_view_checker_flags_listing_divergence(monkeypatch):
    """Drop a job from the API listing: the id-set check must fire."""
    from repro.serving.service import PowerService

    ctx = _checked_context()
    real = PowerService.handle

    def lossy(self, method, path, params=None, body=None):
        resp = real(self, method, path, params, body)
        if path.endswith("/jobs") and resp.status == 200 and resp.body["jobs"]:
            resp.body["jobs"] = resp.body["jobs"][:-1]
            resp.body["next_offset"] = None
        return resp

    monkeypatch.setattr(PowerService, "handle", lossy)
    violations = ServingViewChecker().check(ctx)
    assert any("disagrees with job-manager books" in v.message
               for v in violations)
