"""Versioned snapshot/restore of manager + monitor state.

A crashed power manager loses its books: job shares, per-rank caps,
dead-rank sets, policy controller state, federation allocations. This
module serialises all of it into one schema-versioned JSON artifact so
a manager restarted mid-run continues enforcing exactly where the dead
one stopped — without re-deriving caps (and therefore without the
re-fanned RPC storm and cap churn a cold re-derivation causes).

Layering: every stateful component owns a ``snapshot_state()`` /
``restore_state()`` pair (total: ``restore_state({})`` is the amnesiac
wipe); this module only composes them into an envelope, validates the
schema, and round-trips JSON. The restore contract is **equivalence**:
``wipe → restore`` at any instant leaves the run's remaining telemetry
byte-identical to never having crashed (fuzzed across seeds by
:mod:`repro.lifecycle.recovery`). That forces two properties on every
component: restores mutate state *in place* (replacing modules, policy
objects or timers would shift event phases) and restores are *silent*
(no metrics, traces, or cap writes).

Schema versioning: :data:`SCHEMA_FIELDS` is the exhaustive key-set per
section, fingerprinted into :data:`SCHEMA_FINGERPRINTS`. Changing any
section's fields without bumping :data:`SCHEMA_VERSION` (and appending
the new fingerprint) fails :func:`schema_lint` — wired into
``tools/verify.sh`` so the artifact format cannot drift silently.
Restores refuse artifacts from a different schema version; see
docs/lifecycle.md for the compatibility rules.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional

#: Bump when any SCHEMA_FIELDS section changes, and append the new
#: fingerprint to SCHEMA_FINGERPRINTS (keep the old ones: they document
#: which key-sets historical artifacts carry).
SCHEMA_VERSION = 3

#: Exhaustive key-set of every snapshot section. Producers are checked
#: against this at snapshot time (exact match); consumers stay lenient
#: (``.get``-based) so tests can strip sections to model naive restores.
SCHEMA_FIELDS: Dict[str, tuple] = {
    "cluster_envelope": (
        "schema_version",
        "kind",
        "t",
        "scenario",
        "manager",
        "node_managers",
        "agents",
    ),
    "site_envelope": ("schema_version", "kind", "t", "site", "clusters"),
    "manager": ("config", "lifecycle", "share_log", "jobs", "assignment_log"),
    "job": ("jobid", "ranks", "job_limit_w"),
    "node_manager": (
        "rank",
        "node_limit_w",
        "current_jobid",
        "recent_non_gpu",
        "recent_non_cpu",
        "recent_mem",
        "last_gpu_caps",
        "last_socket_caps",
        "cap_request_failures",
        "policy",
    ),
    "policy": ("name", "state"),
    "monitor": ("rank", "t_loaded", "samples_taken", "buffer"),
    "buffer": ("capacity", "total_appended", "entries"),
    "lifecycle": ("entity_kind", "states", "log"),
    "site": (
        "site_budget_w",
        "assigned_shares",
        "expected_total_w",
        "last_rebalance_t",
        "budget_log",
        "expected_jobs",
        "event_down_ranks",
        "lifecycle",
    ),
}

#: version -> sha256 of the canonical SCHEMA_FIELDS encoding. The lint
#: recomputes the live fingerprint and demands it appear here under the
#: current SCHEMA_VERSION.
SCHEMA_FINGERPRINTS: Dict[int, str] = {
    1: "783b7fc1d6b61f386320e2a3c8396799f031de4964f12e9c2ca1ba65c8047cca",
    # v2: node_manager drops the write-only non_*_est_w EMAs and the
    # 64-entry ``recent`` tuple history.
    2: "603590bff71e21d7b345f5fbe6b89035b9dbf96a563a1caf20e2d03864570921",
    # v3: site drops ``cluster_down``; the cluster-grain ``lifecycle``
    # (degraded = down) is the one liveness record.
    3: "518e1b312b1d7f6c89f326be66869dd7596fa11bbc6e86586f1e380300b410c6",
}


def schema_fingerprint(fields: Optional[Mapping[str, tuple]] = None) -> str:
    """Canonical digest of the schema's section -> key-set map."""
    fields = SCHEMA_FIELDS if fields is None else fields
    canon = json.dumps(
        {section: sorted(keys) for section, keys in fields.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def schema_lint() -> List[str]:
    """Problems with the schema-version bookkeeping (empty = clean)."""
    problems: List[str] = []
    live = schema_fingerprint()
    pinned = SCHEMA_FINGERPRINTS.get(SCHEMA_VERSION)
    if pinned is None:
        problems.append(
            f"SCHEMA_VERSION {SCHEMA_VERSION} has no entry in SCHEMA_FINGERPRINTS"
        )
    elif pinned != live:
        problems.append(
            "SCHEMA_FIELDS changed without a version bump: fingerprint "
            f"{live} != pinned {pinned} for version {SCHEMA_VERSION}; "
            "bump SCHEMA_VERSION and append the new fingerprint"
        )
    if max(SCHEMA_FINGERPRINTS) != SCHEMA_VERSION:
        problems.append(
            f"SCHEMA_VERSION {SCHEMA_VERSION} is not the newest fingerprint "
            f"entry ({max(SCHEMA_FINGERPRINTS)})"
        )
    return problems


class SnapshotError(RuntimeError):
    """A malformed, incompatible, or inapplicable snapshot artifact."""


def _validate_keys(section: str, payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """Exact key-set check at *production* time.

    Catches a component growing state without the schema (and its
    version) following — the failure mode the lint exists for — while
    leaving restore lenient for deliberately stripped test artifacts.
    """
    expected = set(SCHEMA_FIELDS[section])
    actual = set(payload)
    if actual != expected:
        raise SnapshotError(
            f"snapshot section {section!r} key mismatch: "
            f"missing={sorted(expected - actual)} extra={sorted(actual - expected)}"
        )
    return payload


def _module_live(broker, module) -> bool:
    """True when *this* module object is the one loaded on the broker.

    A crashed broker unloads its modules; a restarted one loads fresh
    objects. Either way the stale handle in the deployment list must
    not be snapshotted or restored into.
    """
    return (
        module is not None
        and module.name in broker.modules
        and broker.modules[module.name] is module
    )


# ----------------------------------------------------------------------
# Cluster snapshots
# ----------------------------------------------------------------------
def snapshot_cluster(cluster, scenario=None) -> Dict[str, Any]:
    """Serialise one cluster's management state into an envelope.

    Dead ranks are skipped (their state died with the broker — the
    restored run must believe exactly what the crashed manager knew).
    ``scenario`` optionally embeds the generating scenario's dict so an
    on-disk artifact is self-describing for the CLI restore path.
    """
    manager_state = None
    node_managers: Dict[str, Any] = {}
    if cluster.manager is not None:
        root = cluster.manager.cluster
        if _module_live(root.broker, root):
            manager_state = _validate_keys("manager", root.snapshot_state())
            for job in manager_state["jobs"]:
                _validate_keys("job", job)
            _validate_keys("lifecycle", manager_state["lifecycle"])
        for rank, nm in enumerate(cluster.manager.node_managers):
            if not _module_live(cluster.instance.brokers[rank], nm):
                continue
            nm_state = _validate_keys("node_manager", nm.snapshot_state())
            _validate_keys("policy", nm_state["policy"])
            node_managers[str(rank)] = nm_state
    agents: Dict[str, Any] = {}
    if cluster.monitor is not None:
        for rank, agent in enumerate(cluster.monitor.node_agents):
            if not _module_live(cluster.instance.brokers[rank], agent):
                continue
            agent_state = _validate_keys("monitor", agent.snapshot_state())
            _validate_keys("buffer", agent_state["buffer"])
            agents[str(rank)] = agent_state
    return _validate_keys(
        "cluster_envelope",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "cluster",
            "t": cluster.sim.now,
            "scenario": scenario.to_dict() if scenario is not None else None,
            "manager": manager_state,
            "node_managers": node_managers,
            "agents": agents,
        },
    )


#: Every envelope ``kind`` an artifact can carry.
ENVELOPE_KINDS = ("cluster", "site")


def _check_envelope(snap: Mapping[str, Any], kind: Optional[str] = None) -> None:
    """Refuse anything but a current-schema envelope of ``kind``
    (any :data:`ENVELOPE_KINDS` member when ``kind`` is None)."""
    if "schema_version" not in snap:
        raise SnapshotError("not a snapshot artifact: no schema_version")
    version = snap["schema_version"]
    if version != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema version {version!r} != supported {SCHEMA_VERSION}"
        )
    kinds = ENVELOPE_KINDS if kind is None else (kind,)
    if snap.get("kind") not in kinds:
        raise SnapshotError(
            f"snapshot kind {snap.get('kind')!r} is not a "
            f"{' or '.join(kinds)} artifact"
        )


def restore_cluster(cluster, snap: Mapping[str, Any]) -> None:
    """Rehydrate a cluster's live management modules from an envelope.

    The cluster must be deployment-compatible with the artifact: same
    schema version and (when both run a manager) the same policy name —
    restoring a PI integral into an EcoShift controller is a config
    error, not a recovery. Ranks that died since the snapshot are
    skipped; live modules absent from the artifact are wiped (the
    artifact is the complete truth about the crashed manager).
    """
    _check_envelope(snap, "cluster")
    manager_state = snap.get("manager")
    if cluster.manager is not None:
        root = cluster.manager.cluster
        if manager_state is not None:
            snap_policy = (manager_state.get("config") or {}).get("policy")
            if snap_policy is not None and snap_policy != root.config.policy:
                raise SnapshotError(
                    f"snapshot policy {snap_policy!r} != deployed "
                    f"{root.config.policy!r}"
                )
        if _module_live(root.broker, root):
            root.restore_state(dict(manager_state or {}))
        saved_nms = snap.get("node_managers") or {}
        for rank, nm in enumerate(cluster.manager.node_managers):
            if not _module_live(cluster.instance.brokers[rank], nm):
                continue
            nm.restore_state(dict(saved_nms.get(str(rank)) or {}))
    saved_agents = snap.get("agents") or {}
    if cluster.monitor is not None:
        for rank, agent in enumerate(cluster.monitor.node_agents):
            if not _module_live(cluster.instance.brokers[rank], agent):
                continue
            agent.restore_state(dict(saved_agents.get(str(rank)) or {}))


def wipe_cluster_state(cluster) -> None:
    """Amnesiac wipe: what a restarted manager with no artifact knows.

    Every live component resets to its fresh-boot state (empty books,
    all-available lifecycle, empty rings). The crash-recovery fuzz uses
    wipe → restore to prove the artifact alone carries continuation.
    """
    if cluster.manager is not None:
        root = cluster.manager.cluster
        if _module_live(root.broker, root):
            root.restore_state({})
        for rank, nm in enumerate(cluster.manager.node_managers):
            if _module_live(cluster.instance.brokers[rank], nm):
                nm.restore_state({})
    if cluster.monitor is not None:
        for rank, agent in enumerate(cluster.monitor.node_agents):
            if _module_live(cluster.instance.brokers[rank], agent):
                agent.restore_state({})


# ----------------------------------------------------------------------
# Site snapshots
# ----------------------------------------------------------------------
def snapshot_site(site) -> Dict[str, Any]:
    """Serialise a federated site: its bookkeeping + every member cluster."""
    return _validate_keys(
        "site_envelope",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "site",
            "t": site.sim.now,
            "site": _validate_keys("site", site.snapshot_state()),
            "clusters": {
                name: snapshot_cluster(cluster)
                for name, cluster in sorted(site.clusters.items())
            },
        },
    )


def restore_site(site, snap: Mapping[str, Any]) -> None:
    _check_envelope(snap, "site")
    saved = snap.get("clusters") or {}
    unknown = set(saved) - set(site.clusters)
    if unknown:
        raise SnapshotError(f"snapshot names unknown clusters: {sorted(unknown)}")
    site.restore_state(dict(snap.get("site") or {}))
    for name, cluster in sorted(site.clusters.items()):
        cluster_snap = saved.get(name)
        if cluster_snap is None:
            wipe_cluster_state(cluster)
        else:
            restore_cluster(cluster, cluster_snap)


def wipe_site_state(site) -> None:
    site.restore_state({})
    for cluster in site.clusters.values():
        wipe_cluster_state(cluster)


# ----------------------------------------------------------------------
# Artifact I/O and diffing
# ----------------------------------------------------------------------
def save_snapshot(snap: Mapping[str, Any], path) -> None:
    """Write an artifact as canonical JSON (sorted keys, trailing NL)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_snapshot(path, kind: Optional[str] = None) -> Dict[str, Any]:
    """Read an artifact and check its envelope (see :func:`_check_envelope`).

    Every failure — unreadable file, bad JSON, not a current-schema
    envelope — raises :class:`SnapshotError`; the message does not
    repeat ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            snap = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc
    if not isinstance(snap, dict):
        raise SnapshotError("snapshot artifact must be a JSON object")
    _check_envelope(snap, kind)
    return snap


def diff_snapshots(
    a: Mapping[str, Any], b: Mapping[str, Any], prefix: str = ""
) -> List[str]:
    """Dotted paths where two artifacts disagree (empty = identical).

    Values are compared exactly — Python floats round-trip JSON
    losslessly, so exact equality is the right bar for an artifact
    whose contract is byte-identical continuation.
    """
    diffs: List[str] = []
    keys = sorted(set(a) | set(b))
    for key in keys:
        path = f"{prefix}.{key}" if prefix else str(key)
        if key not in a:
            diffs.append(f"{path}: only in second")
        elif key not in b:
            diffs.append(f"{path}: only in first")
        else:
            va, vb = a[key], b[key]
            if isinstance(va, Mapping) and isinstance(vb, Mapping):
                diffs.extend(diff_snapshots(va, vb, path))
            elif va != vb:
                diffs.append(f"{path}: {_summarise(va)} != {_summarise(vb)}")
    return diffs


def _summarise(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."
