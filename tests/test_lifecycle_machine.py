"""Lifecycle state machine and snapshot schema bookkeeping.

Unit-level: the guarded transition graph, the registry queries, the
silent snapshot/restore round trip, and the schema-version lint that
keeps artifact compatibility honest.
"""

from __future__ import annotations

import pytest

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
    schema_fingerprint,
    schema_lint,
)


# ----------------------------------------------------------------------
# Transition graph
# ----------------------------------------------------------------------
def test_happy_path_walks_every_operational_state():
    reg = LifecycleRegistry([1], "node")
    assert reg.state_of(1) == ENROLL
    for state in (AVAILABLE, DEGRADED, AVAILABLE, MAINTENANCE, AVAILABLE, RETIRED):
        reg.transition(1, state, reason="walk", t=1.0)
    assert reg.state_of(1) == RETIRED
    assert [entry[3] for entry in reg.transition_log] == [
        AVAILABLE, DEGRADED, AVAILABLE, MAINTENANCE, AVAILABLE, RETIRED,
    ]


def test_retired_is_terminal():
    reg = LifecycleRegistry([1], "node")
    reg.transition(1, AVAILABLE)
    reg.transition(1, RETIRED)
    for state in (AVAILABLE, DEGRADED, MAINTENANCE, ENROLL):
        with pytest.raises(LifecycleError):
            reg.transition(1, state)


def test_illegal_edges_raise():
    reg = LifecycleRegistry([1], "node")
    with pytest.raises(LifecycleError):
        reg.transition(1, DEGRADED)  # enroll -> degraded is not an edge
    reg.transition(1, AVAILABLE)
    with pytest.raises(LifecycleError):
        reg.transition(1, ENROLL)  # nothing returns to enroll
    with pytest.raises(LifecycleError):
        reg.transition(1, "melted")  # unknown state
    with pytest.raises(LifecycleError):
        reg.transition(99, AVAILABLE)  # unknown entity


def test_maintenance_crash_degrades():
    # Broker events outrank operator intent: a node that dies while in
    # maintenance is degraded, not still "held for service".
    reg = LifecycleRegistry([1], "node")
    reg.transition(1, AVAILABLE)
    reg.transition(1, MAINTENANCE)
    reg.transition(1, DEGRADED, reason="broker.down")
    assert reg.state_of(1) == DEGRADED


def test_transition_graph_is_closed_over_states():
    assert set(TRANSITIONS) == set(STATES)
    for targets in TRANSITIONS.values():
        assert set(targets) <= set(STATES)


def test_ensure_is_idempotent():
    reg = LifecycleRegistry([1, 2], "node")
    assert reg.ensure(1, AVAILABLE) is True
    assert reg.ensure(1, AVAILABLE) is False
    assert len(reg.transition_log) == 1


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_queries_and_counts():
    reg = LifecycleRegistry(range(4), "node")
    for rank in range(4):
        reg.transition(rank, AVAILABLE)
    reg.transition(0, DEGRADED)
    reg.transition(1, MAINTENANCE)
    assert reg.is_available(2) and reg.is_available(3)
    assert not reg.is_available(0)
    assert reg.in_state(DEGRADED) == [0]
    assert reg.in_state(AVAILABLE) == [2, 3]
    assert reg.counts() == {
        ENROLL: 0, AVAILABLE: 2, DEGRADED: 1, MAINTENANCE: 1, RETIRED: 0,
    }
    assert 0 in reg and 99 not in reg
    with pytest.raises(LifecycleError):
        reg.in_state("melted")


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------
def test_snapshot_round_trip_preserves_states_and_log():
    reg = LifecycleRegistry(range(3), "node")
    for rank in range(3):
        reg.transition(rank, AVAILABLE, reason="enroll", t=0.0)
    reg.transition(1, DEGRADED, reason="broker.down", t=5.0)
    snap = reg.snapshot()

    other = LifecycleRegistry(range(3), "node")
    other.restore(snap)
    assert other.state_of(0) == AVAILABLE
    assert other.state_of(1) == DEGRADED
    assert other.transition_log == reg.transition_log
    # Integer entity keys survive the str() round trip.
    assert all(isinstance(e, int) for e in other.entities())


def test_restore_none_is_amnesiac_wipe():
    reg = LifecycleRegistry(range(3), "node")
    for rank in range(3):
        reg.transition(rank, AVAILABLE)
    reg.transition(1, RETIRED)
    reg.restore(None)
    assert all(reg.state_of(r) == AVAILABLE for r in range(3))
    assert reg.transition_log == []


def test_restore_rejects_unknown_entities_and_states():
    reg = LifecycleRegistry([0, 1], "node")
    with pytest.raises(LifecycleError):
        reg.restore({"states": {"7": AVAILABLE}})
    with pytest.raises(LifecycleError):
        reg.restore({"states": {"0": "melted"}})


def test_string_entities_round_trip():
    reg = LifecycleRegistry(["east", "west"], "cluster")
    reg.transition("east", AVAILABLE)
    reg.transition("west", AVAILABLE)
    reg.transition("west", DEGRADED, reason="outage", t=3.0)
    other = LifecycleRegistry(["east", "west"], "cluster")
    other.restore(reg.snapshot())
    assert other.state_of("west") == DEGRADED
    assert other.entities() == ["east", "west"]


# ----------------------------------------------------------------------
# Schema lint
# ----------------------------------------------------------------------
def test_schema_lint_is_clean():
    assert schema_lint() == []
    assert SCHEMA_FINGERPRINTS[SCHEMA_VERSION] == schema_fingerprint()


def test_fingerprint_moves_when_fields_change():
    # The property the verify stage relies on: any key-set edit --
    # adding a field, renaming one, adding a section -- changes the
    # fingerprint, so an un-bumped SCHEMA_VERSION fails the lint.
    mutated = {k: tuple(v) for k, v in SCHEMA_FIELDS.items()}
    mutated["node_manager"] = mutated["node_manager"] + ("new_field",)
    assert schema_fingerprint(mutated) != schema_fingerprint()
    renamed = {k: tuple(v) for k, v in SCHEMA_FIELDS.items()}
    renamed["policy"] = ("name", "blob")
    assert schema_fingerprint(renamed) != schema_fingerprint()
    assert schema_fingerprint(dict(SCHEMA_FIELDS)) == schema_fingerprint()
