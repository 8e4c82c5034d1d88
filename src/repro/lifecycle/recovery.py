"""Crash recovery on one path: the restore-equivalence oracle.

The snapshot artifact's contract is *equivalence*: a manager that
crashes mid-run and is restored from its artifact must produce exactly
the telemetry the uninterrupted run would have. This module turns that
contract into an executable oracle, in three pieces:

* :func:`crash_restore_setup` — the one harness hook: at the crash
  instant, snapshot → JSON round-trip (catching unserialisable state)
  → **wipe** every component to its amnesiac fresh-boot state →
  restore. ``repro lifecycle --snapshot`` and ``--restore`` use it too.
* :func:`run_with_recovery` — runs a scenario uninterrupted and again
  with the crash, and returns the crashed run's
  :class:`~repro.simtest.harness.SimtestResult`: any state the artifact
  fails to carry (a PI integral, a dead-rank set, a ring buffer)
  shifts caps or telemetry flags, the digests split, and the result
  gains a ``restore_equivalence`` violation.
* :data:`RECOVERY_TIER` — the oracle as a campaign tier, so
  ``repro lifecycle --fuzz`` is :func:`~repro.simtest.fuzzer.run_batch`
  like every other fuzz command. Crash instants are drawn per seed from
  a dedicated RNG substream (fractions of the uninterrupted makespan),
  so batches are replayable.

The wipe step is what gives the oracle teeth: without it, state left
behind in live objects would mask snapshot gaps.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.lifecycle.snapshot import (
    restore_cluster,
    snapshot_cluster,
    wipe_cluster_state,
)
from repro.simkernel.rng import RandomStreams
from repro.simtest.fuzzer import Tier
from repro.simtest.harness import SimtestResult, run_scenario
from repro.simtest.invariants import Violation
from repro.simtest.scenario import Scenario, generate_scenario

#: Crash instants are drawn from this substream, one per seed —
#: independent of every scenario-generation stream, so adding recovery
#: fuzz to a campaign never perturbs the scenarios themselves.
CRASH_STREAM = "lifecycle/crash"

#: Keep the crash strictly inside the run: too early and the books are
#: trivially empty, too late and the drain window hides divergence.
CRASH_FRACTION_RANGE = (0.15, 0.85)


def crash_restore_setup(
    crash_t: float,
    scenario: Optional[Scenario] = None,
    artifact: Optional[dict] = None,
    taken: Optional[list] = None,
):
    """Build a harness ``setup`` hook that crashes the manager at ``crash_t``.

    At the instant: snapshot (embedding ``scenario``) → JSON round-trip
    → amnesiac wipe → restore. With ``artifact`` the hook restores from
    it instead of its own snapshot. ``taken``, when given, receives the
    artifact the crash restored from — so an empty ``taken`` after the
    run means the crash instant was never reached.
    """

    def _setup(cluster, sim) -> None:
        def _crash_and_recover() -> None:
            snap = artifact
            if snap is None:
                blob = json.dumps(snapshot_cluster(cluster, scenario), sort_keys=True)
                snap = json.loads(blob)
            if taken is not None:
                taken.append(snap)
            wipe_cluster_state(cluster)
            restore_cluster(cluster, snap)

        sim.schedule_at(crash_t, _crash_and_recover)

    return _setup


def run_with_recovery(
    scenario: Scenario, crash_fraction: float, taken: Optional[list] = None
) -> SimtestResult:
    """Run ``scenario`` crashed at ``crash_fraction`` of its makespan.

    Returns the crashed run's result. It gains a ``crash_unreached``
    violation when the run ended before the crash instant, and a
    ``restore_equivalence`` violation (both digests in its details)
    when it does not land on the uninterrupted run's digest. ``taken``
    collects the artifact, as in :func:`crash_restore_setup`.
    """
    base = run_scenario(scenario)
    crash_t = round(float(crash_fraction) * (base.makespan_s or 1.0), 3)
    taken = [] if taken is None else taken
    result = run_scenario(
        scenario, setup=crash_restore_setup(crash_t, scenario, taken=taken)
    )
    if not taken:
        result.violations.append(
            Violation(
                invariant="crash_unreached", t=crash_t,
                message=(
                    f"crash at t={crash_t:.3f} never fired: the run ended "
                    "first, so nothing was restored"
                ),
                details={"crash_t": crash_t},
            )
        )
    elif result.digest != base.digest:
        result.violations.append(
            Violation(
                invariant="restore_equivalence", t=crash_t,
                message=(
                    f"digest split: base {base.digest} != "
                    f"recovered {result.digest}"
                ),
                details={
                    "crash_t": crash_t,
                    "base_digest": base.digest,
                    "recovered_digest": result.digest,
                },
            )
        )
    return result


def _run_seeded_crash(scenario: Scenario) -> SimtestResult:
    """:func:`run_with_recovery` at the seed's :data:`CRASH_STREAM` draw."""
    lo, hi = CRASH_FRACTION_RANGE
    rng = RandomStreams(seed=int(scenario.seed)).get(CRASH_STREAM)
    return run_with_recovery(scenario, lo + float(rng.random()) * (hi - lo))


#: The crash-recovery tier (``repro lifecycle --fuzz``). Unshrunk: a
#: failing seed is replayed whole, at the same crash instant.
RECOVERY_TIER = Tier(
    name="lifecycle",
    scenario_cls=Scenario,
    generate=generate_scenario,
    run=_run_seeded_crash,
)
