"""Batch driver: N seeds in, violations (shrunk to reproducers) out.

One driver for every fuzz tier — ``repro simtest``, ``repro tenants``,
``repro federate`` and ``repro lifecycle --fuzz`` — and the
``simtest``/``federation`` pytest markers. A :class:`Tier` names how a
seed becomes a scenario and a checked run: :data:`SINGLE_TIER` here,
``FEDERATED_TIER`` beside the site harness and ``RECOVERY_TIER`` (the
crash-restore oracle) in :mod:`repro.lifecycle.recovery`, which
imports this module. Each seed is fully independent — its own
scenario, its own cluster or site, its own checker instances — so a
batch is just a loop, and any seed from a batch replays alone with
:meth:`Tier.run_seed`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.simtest.harness import SimtestResult, run_scenario
from repro.simtest.scenario import Scenario, generate_scenario
from repro.simtest.shrink import ShrinkReport, shrink_scenario, write_reproducer


@dataclass(frozen=True)
class Tier:
    """One fuzz tier: seed → scenario → run under its default checkers."""

    #: Batch-summary label and reproducer file-name prefix.
    name: str
    #: What :func:`~repro.simtest.shrink.load_reproducer` rebuilds.
    scenario_cls: type
    #: ``generate(seed, config)`` draws the seed's scenario.
    generate: Callable[[int, Optional[Any]], Any]
    #: ``run(scenario)`` executes it under the tier's default checkers.
    run: Callable[[Any], SimtestResult]
    #: ``shrinker(scenario, violation)``; None leaves failures unshrunk.
    shrinker: Optional[Callable[..., ShrinkReport]] = None

    def run_seed(self, seed: int, config: Optional[Any] = None) -> SimtestResult:
        """Generate and run the scenario for one seed."""
        return self.run(self.generate(seed, config))


#: The single-cluster tier (``repro simtest`` and ``repro tenants``).
SINGLE_TIER = Tier(
    name="simtest",
    scenario_cls=Scenario,
    generate=generate_scenario,
    run=run_scenario,
    shrinker=shrink_scenario,
)


@dataclass
class BatchReport:
    """Aggregate outcome of a fuzz batch."""

    label: str = "simtest"
    seeds: List[int] = field(default_factory=list)
    results: List[SimtestResult] = field(default_factory=list)
    shrink_reports: List[ShrinkReport] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[SimtestResult]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        n_fail = len(self.failures)
        lines = [
            f"{self.label}: {len(self.results)} scenario(s), "
            f"{len(self.results) - n_fail} ok, {n_fail} violating"
        ]
        for r in self.failures:
            lines.append("  " + r.summary())
        for path in self.artifacts:
            lines.append(f"  reproducer: {path}")
        return "\n".join(lines)


def run_batch(
    seeds: Sequence[int],
    config: Optional[Any] = None,
    shrink: bool = True,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[SimtestResult], None]] = None,
    tier: Tier = SINGLE_TIER,
) -> BatchReport:
    """Run every seed; shrink failures and write reproducer artifacts.

    A violating seed is shrunk when ``shrink`` is set and the tier has
    a shrinker; with ``artifact_dir`` it leaves a reproducer behind
    either way (the unshrunk scenario when nothing was shrunk).
    ``progress`` (if given) is called with each :class:`SimtestResult`
    as it completes — the CLI uses it for live per-seed output.
    """
    report = BatchReport(label=tier.name)
    for seed in seeds:
        scenario = tier.generate(seed, config)
        result = tier.run(scenario)
        report.seeds.append(seed)
        report.results.append(result)
        if progress is not None:
            progress(result)
        if result.ok:
            continue
        shrunk = None
        if shrink and tier.shrinker is not None:
            shrunk = tier.shrinker(scenario, result.violations[0])
            report.shrink_reports.append(shrunk)
        if artifact_dir is not None:
            violation = shrunk.violation if shrunk is not None else result.violations[0]
            os.makedirs(artifact_dir, exist_ok=True)
            path = os.path.join(
                artifact_dir,
                f"{tier.name}-seed{seed}-{violation.invariant}.json",
            )
            write_reproducer(path, result, shrunk)
            report.artifacts.append(path)
    return report
