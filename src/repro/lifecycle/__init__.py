"""Node/cluster lifecycle and crash-recoverable manager state.

Three pieces (see docs/lifecycle.md):

* :mod:`repro.lifecycle.machine` — the guarded enroll → available →
  degraded / maintenance → retired state machine the managers book
  against;
* :mod:`repro.lifecycle.snapshot` — the schema-versioned JSON artifact
  carrying manager + monitor + policy + federation state across a
  manager crash;
* :mod:`repro.lifecycle.recovery` — the one crash → restore hook, the
  restore-equivalence oracle built on it and its campaign tier.
"""

from repro.lifecycle.machine import (
    AVAILABLE,
    DEGRADED,
    ENROLL,
    MAINTENANCE,
    RETIRED,
    STATES,
    TRANSITIONS,
    LifecycleError,
    LifecycleRegistry,
)
from repro.lifecycle.snapshot import (
    SCHEMA_FIELDS,
    SCHEMA_FINGERPRINTS,
    SCHEMA_VERSION,
    SnapshotError,
    diff_snapshots,
    load_snapshot,
    restore_cluster,
    restore_site,
    save_snapshot,
    schema_fingerprint,
    schema_lint,
    snapshot_cluster,
    snapshot_site,
    wipe_cluster_state,
    wipe_site_state,
)

__all__ = [
    "AVAILABLE",
    "DEGRADED",
    "ENROLL",
    "MAINTENANCE",
    "RETIRED",
    "STATES",
    "TRANSITIONS",
    "LifecycleError",
    "LifecycleRegistry",
    "RECOVERY_TIER",
    "SCHEMA_FIELDS",
    "SCHEMA_FINGERPRINTS",
    "SCHEMA_VERSION",
    "SnapshotError",
    "crash_restore_setup",
    "diff_snapshots",
    "load_snapshot",
    "restore_cluster",
    "restore_site",
    "run_with_recovery",
    "save_snapshot",
    "schema_fingerprint",
    "schema_lint",
    "snapshot_cluster",
    "snapshot_site",
    "wipe_cluster_state",
    "wipe_site_state",
]

#: Recovery re-exports resolve lazily (PEP 562): the oracle imports
#: the simtest stack, which imports the managers, which import this
#: package — an eager import here would be circular.
_RECOVERY_EXPORTS = ("RECOVERY_TIER", "crash_restore_setup", "run_with_recovery")


def __getattr__(name):
    if name in _RECOVERY_EXPORTS:
        from repro.lifecycle import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
