"""Explicit node/cluster lifecycle state machine.

Managers previously tracked liveness with an ad-hoc dead-rank set; this
module replaces that with the provisioning-style state machine the
production-lifecycle roadmap item calls for (the way Ironic models
bare-metal nodes):

    enroll ──► available ◄──► degraded
                  │  ▲            │
                  ▼  └────────────┤
              maintenance ────────┤
                  │               ▼
                  └─────────► retired

* **enroll** — known to the manager but not yet managed (pre-load).
* **available** — healthy: may be booked into job power shares.
* **degraded** — the event stream says the management plane is down
  (``broker.down``); excluded from new bookings, drained from old ones.
* **maintenance** — operator-held: drained and excluded, but expected
  back. A broker event overrides the operator's intent (a node that
  crashes in maintenance is degraded — the event stream is the ground
  truth for health, maintenance only records intent).
* **retired** — terminal; never booked again.

Transitions are guarded (:data:`TRANSITIONS`); an illegal edge raises
:class:`LifecycleError`. The registry is a **pure observer** of the
simulation: it sends no messages, draws no randomness and schedules no
events, so attaching it cannot perturb a run — it only emits
``lifecycle_*`` metrics and trace instants (and those are gated by the
telemetry hub's enabled flag like every other series).

Snapshot/restore (see :mod:`repro.lifecycle.snapshot`) serialises the
state map and transition log; restore is silent (no metrics/trace
emission) so rehydrating a manager never double-counts transitions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

Entity = Union[int, str]

ENROLL = "enroll"
AVAILABLE = "available"
DEGRADED = "degraded"
MAINTENANCE = "maintenance"
RETIRED = "retired"

STATES: Tuple[str, ...] = (ENROLL, AVAILABLE, DEGRADED, MAINTENANCE, RETIRED)

#: Legal edges. ``maintenance -> degraded`` exists because broker
#: events outrank operator intent (see module docstring); ``retired``
#: is terminal.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    ENROLL: (AVAILABLE, RETIRED),
    AVAILABLE: (DEGRADED, MAINTENANCE, RETIRED),
    DEGRADED: (AVAILABLE, MAINTENANCE, RETIRED),
    MAINTENANCE: (AVAILABLE, DEGRADED, RETIRED),
    RETIRED: (),
}


class LifecycleError(RuntimeError):
    """An illegal lifecycle transition (or malformed snapshot state)."""


class LifecycleRegistry:
    """Guarded lifecycle states for a set of entities (ranks or names).

    Parameters
    ----------
    entities:
        The managed population — node ranks for a cluster manager,
        cluster names for a site manager. All start in ``enroll``.
    entity_kind:
        Label value for the ``lifecycle_*`` metric families
        (``"node"`` / ``"cluster"``).
    telemetry:
        The run's :class:`~repro.telemetry.Telemetry` hub, or None for
        a silent registry (unit tests).
    """

    def __init__(
        self,
        entities: Iterable[Entity],
        entity_kind: str = "node",
        telemetry=None,
    ) -> None:
        self.entity_kind = str(entity_kind)
        self._states: Dict[Entity, str] = {e: ENROLL for e in entities}
        self._telemetry = telemetry
        #: (t, entity, from, to, reason) — the auditable history.
        self.transition_log: List[Tuple[float, Entity, str, str, str]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, entity: Entity) -> bool:
        return entity in self._states

    def entities(self) -> List[Entity]:
        return sorted(self._states)

    def state_of(self, entity: Entity) -> str:
        try:
            return self._states[entity]
        except KeyError:
            raise LifecycleError(f"unknown {self.entity_kind}: {entity!r}")

    def is_available(self, entity: Entity) -> bool:
        return self._states.get(entity) == AVAILABLE

    def in_state(self, state: str) -> List[Entity]:
        if state not in STATES:
            raise LifecycleError(f"unknown state: {state!r}")
        return sorted(e for e, s in self._states.items() if s == state)

    def counts(self) -> Dict[str, int]:
        out = {s: 0 for s in STATES}
        for s in self._states.values():
            out[s] += 1
        return out

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def transition(
        self, entity: Entity, new_state: str, reason: str = "", t: float = 0.0
    ) -> None:
        """Move ``entity`` along a guarded edge; illegal edges raise."""
        if new_state not in STATES:
            raise LifecycleError(f"unknown state: {new_state!r}")
        old = self.state_of(entity)
        if new_state not in TRANSITIONS[old]:
            raise LifecycleError(
                f"{self.entity_kind} {entity!r}: illegal transition "
                f"{old} -> {new_state} (reason: {reason or 'unspecified'})"
            )
        self._states[entity] = new_state
        self.transition_log.append((float(t), entity, old, new_state, reason))
        self._emit(entity, old, new_state, reason)

    def ensure(
        self, entity: Entity, state: str, reason: str = "", t: float = 0.0
    ) -> bool:
        """Transition unless already there; returns True when it moved."""
        if self.state_of(entity) == state:
            return False
        self.transition(entity, state, reason=reason, t=t)
        return True

    # ------------------------------------------------------------------
    # Telemetry (pure observer: counters, gauges, trace instants)
    # ------------------------------------------------------------------
    def _emit(self, entity: Entity, old: str, new: str, reason: str) -> None:
        tel = self._telemetry
        if tel is None:
            return
        tel.metrics.counter(
            "lifecycle_transitions_total",
            labels={"entity": self.entity_kind, "from": old, "to": new},
            help="guarded lifecycle transitions, by entity kind and edge",
        ).inc()
        counts = self.counts()
        for state in (old, new):
            tel.metrics.gauge(
                "lifecycle_entities",
                labels={"entity": self.entity_kind, "state": state},
                help="entities currently in each lifecycle state",
            ).set(counts[state])
        tel.tracer.instant(
            "lifecycle.transition", "lifecycle",
            entity=str(entity), kind=self.entity_kind,
            old=old, new=new, reason=reason,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (silent: no metrics, no trace)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-able state (entity keys stringified; ints round-trip)."""
        return {
            "entity_kind": self.entity_kind,
            "states": {str(e): s for e, s in self._states.items()},
            "log": [list(entry) for entry in self.transition_log],
        }

    def restore(self, state: Optional[Mapping]) -> None:
        """Rehydrate from :meth:`snapshot` output.

        ``restore(None)`` / ``restore({})`` is the amnesiac-wipe: every
        entity resets to ``available`` (what a freshly booted manager
        that lost its state would believe) and the log clears. Entities
        present in the snapshot must be a subset of the registry's
        population; unknown states raise.
        """
        if not state:
            self._states = {e: AVAILABLE for e in self._states}
            self.transition_log = []
            return
        states = state.get("states") or {}
        restored: Dict[Entity, str] = {}
        for key, value in states.items():
            entity: Entity = int(key) if str(key).lstrip("-").isdigit() else key
            if entity not in self._states:
                raise LifecycleError(
                    f"snapshot names unknown {self.entity_kind}: {entity!r}"
                )
            if value not in STATES:
                raise LifecycleError(f"snapshot holds unknown state: {value!r}")
            restored[entity] = value
        for entity in self._states:
            self._states[entity] = restored.get(entity, AVAILABLE)
        self.transition_log = [
            (float(t), int(e) if str(e).lstrip("-").isdigit() else e,
             str(old), str(new), str(reason))
            for t, e, old, new, reason in (state.get("log") or [])
        ]
