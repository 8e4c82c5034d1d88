"""repro.simtest — deterministic simulation testing.

The paper claims the framework is *production-grade*: it must survive
arbitrary job mixes, budget changes and node failures, not just the
hand-written scenarios the rest of the suite pins. This package
explores that state space automatically, in the style of the
FoundationDB / TigerBeetle simulation-testing harnesses:

* :mod:`~repro.simtest.scenario` — a seeded **scenario generator**
  composing random topologies, job arrival mixes from the application
  registry, budget schedules, policy assignments and fault plans. All
  randomness comes from ``simkernel.rng`` substreams, so one integer
  seed replays the whole scenario byte for byte.
* :mod:`~repro.simtest.invariants` — pluggable **invariant checkers**
  evaluated on a periodic in-simulation tick and at end of run: the
  paper's implicit safety properties (budget never exceeded, equal
  split exact, caps inside the device range, ring-buffer timestamps
  monotonic, no orphaned shares after node death, telemetry counters
  never decreasing) as machine-checked predicates.
* :mod:`~repro.simtest.harness` — runs one scenario under the checkers
  and produces a :class:`~repro.simtest.harness.SimtestResult` with a
  replayable digest. Its run loop (:func:`~repro.simtest.harness.run_checked`:
  invariant tick, liveness, drain, end-of-run telemetry fetch) is the
  one every tier uses.
* :mod:`~repro.simtest.shrink` — on violation, bisects the scenario
  (fewer jobs → fewer faults → smaller cluster → shorter horizon) to a
  minimal reproducer; also the one reproducer format
  (:func:`~repro.simtest.shrink.write_reproducer` /
  :func:`~repro.simtest.shrink.load_reproducer`) for every tier.
* :mod:`~repro.simtest.fuzzer` — the batch driver behind ``repro
  simtest``, ``repro tenants``, ``repro federate`` and ``repro
  lifecycle --fuzz``: a :class:`~repro.simtest.fuzzer.Tier` says how
  a seed becomes a scenario and a checked run; also behind the
  ``simtest`` pytest marker.
* :mod:`~repro.simtest.federation` — the site tier: federated scenarios
  and their harness, driven through the same core.

See docs/testing.md for the workflow (including how to replay a seed).
"""

from __future__ import annotations

from repro.simtest.scenario import (
    GeneratorConfig,
    JobEntry,
    Scenario,
    generate_scenario,
)
from repro.simtest.invariants import (
    InvariantChecker,
    Violation,
    default_checkers,
    site_checkers,
)
from repro.simtest.harness import SimtestResult, run_scenario
from repro.simtest.shrink import (
    load_reproducer,
    shrink_scenario,
    write_reproducer,
)
from repro.simtest.fuzzer import SINGLE_TIER, BatchReport, Tier, run_batch

__all__ = [
    "Scenario",
    "JobEntry",
    "GeneratorConfig",
    "generate_scenario",
    "InvariantChecker",
    "Violation",
    "default_checkers",
    "SimtestResult",
    "run_scenario",
    "shrink_scenario",
    "write_reproducer",
    "load_reproducer",
    "BatchReport",
    "Tier",
    "SINGLE_TIER",
    "run_batch",
    "site_checkers",
]
