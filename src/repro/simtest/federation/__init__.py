"""repro.simtest.federation — the site tier of the simulation tests.

Extends :mod:`repro.simtest` one level up the hierarchy: seeded
federated scenarios (2–4 clusters, mixed platforms, per-cluster fault
campaigns and whole-cluster outages) and the harness running them under
both the site-level checkers (``site_budget``, ``floor_ceiling``) and
one fresh set of every single-cluster checker per member cluster. The
scenario draws, run loop, result, batch driver and reproducer format
are the single-cluster tier's: :data:`FEDERATED_TIER` plugs the site
scenario and harness into :func:`repro.simtest.run_batch` (``repro
federate``). See docs/federation.md.
"""

from __future__ import annotations

from repro.simtest.federation.scenario import (
    ClusterScenario,
    FederatedGeneratorConfig,
    FederatedScenario,
    generate_federated_scenario,
)
from repro.simtest.federation.harness import (
    FEDERATED_TIER,
    FederatedSimtestContext,
    run_federated_scenario,
)

__all__ = [
    "ClusterScenario",
    "FederatedGeneratorConfig",
    "FederatedScenario",
    "generate_federated_scenario",
    "FederatedSimtestContext",
    "run_federated_scenario",
    "FEDERATED_TIER",
]
