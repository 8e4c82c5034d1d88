"""Failure shrinking: violation → minimal runnable reproducer.

When a fuzzed scenario violates an invariant, replaying the full thing
(dozens of nodes, five jobs, a fault campaign, budget retunes) is a
miserable debugging artifact. :func:`shrink_scenario` greedily bisects
the scenario while preserving *the same invariant violation*:

1. **fewer jobs** — drop jobs one at a time while the violation holds;
2. **fewer faults** — drop fault events, then the link-fault window,
   then budget retunes;
3. **smaller cluster** — halve ``n_nodes`` (clamping job widths and
   discarding faults aimed at amputated ranks) down to a floor;
4. **shorter horizon** — zero the submit spread, shrink work scales
   and the drain window;
5. **simpler tenancy** — drop the tenant mix entirely (and the job
   users with it), else just switch admission control off.

Passes repeat until a full sweep removes nothing (a fixpoint) or the
run budget is exhausted. The result is emitted as a JSON artifact that
``repro simtest --replay`` (or :func:`load_reproducer` +
:func:`~repro.simtest.harness.run_scenario`) turns back into the
failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Type

from repro.simtest.harness import SimtestResult, run_scenario
from repro.simtest.invariants import Violation, default_checkers
from repro.simtest.scenario import Scenario

ARTIFACT_VERSION = 1

#: Default cap on shrink-time scenario executions. Each candidate run
#: is stop-on-first, so failed candidates are cheap; this bounds the
#: pathological case where nothing ever reproduces.
DEFAULT_MAX_RUNS = 200
#: Smallest cluster the shrinker's halving pass reaches.
MIN_NODES = 2

Oracle = Callable[[Scenario], Optional[Violation]]


def make_oracle(invariant: str) -> Oracle:
    """Build the shrink predicate: does the scenario still break ``invariant``?

    A fresh checker set per run (checkers are stateful); the first
    violation of the *target* invariant counts — a shrink step that
    swaps one failure mode for a different one is rejected, so the
    reproducer stays faithful to the original finding.
    """

    def oracle(scenario: Scenario) -> Optional[Violation]:
        result = run_scenario(
            scenario, checkers=default_checkers(), stop_on_first=True
        )
        for v in result.violations:
            if v.invariant == invariant:
                return v
        return None

    return oracle


@dataclass
class ShrinkReport:
    """What the shrinker did and where it ended."""

    original: Scenario
    minimal: Scenario
    violation: Violation
    runs: int
    passes: int

    def reduction(self) -> str:
        o, m = self.original, self.minimal
        return (
            f"jobs {len(o.jobs)}→{len(m.jobs)}, "
            f"faults {len(o.fault_events)}→{len(m.fault_events)}, "
            f"nodes {o.n_nodes}→{m.n_nodes}, "
            f"runs={self.runs}"
        )


def _clamp_to_cluster(scenario: Scenario, n_nodes: int) -> Scenario:
    """Shrink the cluster, keeping the scenario injectable/runnable."""
    jobs = tuple(
        replace(j, nnodes=min(j.nnodes, n_nodes)) for j in scenario.jobs
    )
    events = tuple(ev for ev in scenario.fault_events if ev.rank < n_nodes)
    link = scenario.link_faults
    if link is not None and link.ranks is not None:
        kept = {r for r in link.ranks if r < n_nodes}
        link = replace(link, ranks=kept) if kept else None
    return replace(
        scenario, n_nodes=n_nodes, jobs=jobs, fault_events=events, link_faults=link
    )


def shrink_scenario(
    scenario: Scenario,
    violation: Violation,
    oracle: Optional[Oracle] = None,
    max_runs: int = DEFAULT_MAX_RUNS,
) -> ShrinkReport:
    """Greedy multi-pass shrink preserving ``violation.invariant``."""
    if oracle is None:
        oracle = make_oracle(violation.invariant)
    runs = 0
    passes = 0

    def still_fails(candidate: Scenario) -> Optional[Violation]:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        try:
            return oracle(candidate)
        except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
            return None

    current = scenario
    best_violation = violation
    changed = True
    while changed and runs < max_runs:
        changed = False
        passes += 1

        # Pass 1: fewer jobs (keep at least one).
        i = 0
        while len(current.jobs) > 1 and i < len(current.jobs):
            candidate = replace(
                current, jobs=current.jobs[:i] + current.jobs[i + 1 :]
            )
            v = still_fails(candidate)
            if v is not None:
                current, best_violation, changed = candidate, v, True
            else:
                i += 1

        # Pass 2: fewer faults (events, then link window, then retunes).
        i = 0
        while i < len(current.fault_events):
            candidate = replace(
                current,
                fault_events=current.fault_events[:i]
                + current.fault_events[i + 1 :],
            )
            v = still_fails(candidate)
            if v is not None:
                current, best_violation, changed = candidate, v, True
            else:
                i += 1
        if current.link_faults is not None:
            candidate = replace(current, link_faults=None)
            v = still_fails(candidate)
            if v is not None:
                current, best_violation, changed = candidate, v, True
        i = 0
        while i < len(current.budget_schedule):
            candidate = replace(
                current,
                budget_schedule=current.budget_schedule[:i]
                + current.budget_schedule[i + 1 :],
            )
            v = still_fails(candidate)
            if v is not None:
                current, best_violation, changed = candidate, v, True
            else:
                i += 1

        # Pass 3: smaller cluster (halving, floor MIN_NODES).
        while current.n_nodes > MIN_NODES:
            target = max(MIN_NODES, current.n_nodes // 2)
            candidate = _clamp_to_cluster(current, target)
            v = still_fails(candidate)
            if v is None:
                break
            current, best_violation, changed = candidate, v, True

        # Pass 4: shorter horizon (arrivals at t=0, minimal work, short drain).
        for candidate in (
            replace(
                current,
                jobs=tuple(replace(j, submit_t=0.0) for j in current.jobs),
            ),
            replace(
                current,
                jobs=tuple(
                    replace(j, work_scale=min(j.work_scale, 0.5))
                    for j in current.jobs
                ),
            ),
            replace(current, drain_s=min(current.drain_s, 2.0)),
        ):
            if candidate == current:
                continue
            v = still_fails(candidate)
            if v is not None:
                current, best_violation, changed = candidate, v, True

        # Pass 5: simpler tenancy (drop the mix, else just admission).
        if current.tenancy is not None:
            candidate = replace(
                current,
                tenancy=None,
                jobs=tuple(replace(j, user=None) for j in current.jobs),
            )
            v = still_fails(candidate)
            if v is not None:
                current, best_violation, changed = candidate, v, True
            elif current.tenancy.admission:
                candidate = replace(
                    current, tenancy=replace(current.tenancy, admission=False)
                )
                v = still_fails(candidate)
                if v is not None:
                    current, best_violation, changed = candidate, v, True

    return ShrinkReport(
        original=scenario,
        minimal=current,
        violation=best_violation,
        runs=runs,
        passes=passes,
    )


# ----------------------------------------------------------------------
# Reproducer artifacts
# ----------------------------------------------------------------------
def reproducer_dict(
    result: SimtestResult, shrunk: Optional[ShrinkReport] = None
) -> Dict[str, Any]:
    """JSON-safe reproducer payload (what ``--replay`` consumes).

    One format for every tier: ``scenario`` is what replays — the
    shrunk minimum when ``shrunk`` is given, else the run's own
    scenario — and a shrunk artifact also records the
    ``original_scenario`` and the ``reduction``.
    """
    violation = shrunk.violation if shrunk is not None else result.violations[0]
    payload: Dict[str, Any] = {
        "simtest_reproducer": ARTIFACT_VERSION,
        "seed": result.scenario.seed,
        "invariant": violation.invariant,
        "violation": violation.to_dict(),
        "violations": [v.to_dict() for v in result.violations],
        "scenario": (
            shrunk.minimal if shrunk is not None else result.scenario
        ).to_dict(),
        "digest": result.digest,
    }
    if shrunk is not None:
        payload["original_scenario"] = shrunk.original.to_dict()
        payload["reduction"] = shrunk.reduction()
    return payload


def write_reproducer(
    path: str, result: SimtestResult, shrunk: Optional[ShrinkReport] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reproducer_dict(result, shrunk), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_reproducer(path: str, scenario_cls: Type = Scenario):
    """Reload the scenario to replay from a reproducer artifact.

    ``scenario_cls`` is the tier's scenario type (anything with a
    ``from_dict``). Any artifact carrying a ``scenario`` object loads,
    including the bare ``{"scenario": ...}`` shape. A file that cannot
    be read or holds no valid scenario raises :class:`ValueError`
    naming ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read reproducer: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("scenario"), dict
    ):
        raise ValueError(f"{path} is not a simtest reproducer artifact")
    try:
        return scenario_cls.from_dict(payload["scenario"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(
            f"{path}: malformed reproducer scenario: {exc!r}"
        ) from exc
