"""The node-level manager (Section III-B).

Present on every node. Responsibilities:

* install the configured *static* node-level cap (IBM OPAL) at load
  time, where the platform supports one,
* accept *node-level power limits* over RPC from the job-level manager
  and record which job they belong to,
* track node and per-device power in a periodic sampling loop (a
  separate thread in the real module), keeping a recent-peak estimate of
  the power *outside* each cappable device class, used to derive device
  budgets,
* host the pluggable dynamic policy (static / proportional / FPP / the
  policy zoo) and forward limits, samples and ``job-state.*`` events to
  it.

Every cap dial takes a *domain* — ``"gpu"`` or ``"socket"`` (the keys
of :data:`CAP_CLASSES`) — so GPUs and CPU sockets share one path:
``device_count``, ``cap_range``, ``other_power_w``, ``derive_share``,
``set_cap``, ``clear_caps`` and the tracker's per-device readings
``device_w``. An unknown domain
raises :class:`ValueError`.

Units at this interface are uniform: every power quantity is **watts**
— node limits (whole node), device caps (one GPU / one socket), and
the ``other_power_w`` estimates (whole node minus the named device
class). The safety wrapper's ``damper`` (fraction of a device's
capping span) and ``slowdown`` (dimensionless ratio >= 1) are the only
non-watt control knobs; see :mod:`repro.manager.policies.safety`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro import variorum
from repro.flux.broker import Broker
from repro.flux.message import Message
from repro.flux.module import Module
from repro.hardware.firmware import CappingError
from repro.manager.policies.base import PowerPolicy
from repro.telemetry import MANAGER_TRACK_COST_S

SET_LIMIT_TOPIC = "power-manager.set-node-limit"
JOB_DEPARTED_TOPIC = "power-manager.job-departed"
STATUS_TOPIC = "power-manager.status"

#: Window (samples) for the conservative peak estimates used to derive
#: device budgets. Mean-based estimates under-reserve during the high
#: phase of a periodic app, producing sustained share overshoot; a
#: recent-peak estimate keeps the node under its limit at the cost of
#: slightly smaller device budgets.
PEAK_WINDOW = 16


def _write_gpu_cap(node, index: int, watts: float) -> None:
    if node.nvml is not None:
        node.nvml.set_power_limit(index, watts)
    elif node.esmi is not None:
        # OAM domains are the cappable unit on AMD.
        node.esmi.set_oam_power_cap(index, watts)
    else:
        raise CappingError("no GPU capping driver on this platform")


def _clear_gpu_caps(node) -> None:
    if node.nvml is not None:
        node.nvml.clear_all()


def _write_socket_cap(node, index: int, watts: float) -> None:
    if node.rapl is not None:
        node.rapl.set_socket_power_cap(index, watts)
    elif node.esmi is not None:
        node.esmi.set_socket_power_cap(index, watts)
    elif node.cpu_domains:
        # IBM path: socket caps through the service processor.
        node.cpu_domains[index].set_cap("socket-manager", watts)
    else:
        raise CappingError("no CPU capping driver on this platform")


def _clear_socket_caps(node) -> None:
    for dom in node.cpu_domains:
        dom.set_cap("socket-manager", None)
        if node.rapl is not None:
            dom.set_cap(node.rapl.CAP_SOURCE, None)


@dataclass(frozen=True)
class CapClass:
    """Everything that differs between two cappable device classes."""

    #: The node's domains of this class, in driver index order.
    devices: Callable
    #: Activity margin (W) over the idle floor of the other-power
    #: estimate before any measurement arrives.
    idle_margin_w: float
    #: ``write(node, index, watts)`` through the platform driver;
    #: raises :class:`CappingError` when the platform refuses.
    write: Callable
    #: ``clear(node)``: drop every cap this class's writes installed.
    clear: Callable
    #: Counter of successful writes, and its help text.
    metric: str
    metric_help: str
    #: Snapshot key of the recent other-power window.
    window_key: str


#: Cap domain -> its class. Iteration order is the tracking order.
CAP_CLASSES: Dict[str, CapClass] = {
    "gpu": CapClass(
        devices=attrgetter("gpu_domains"),
        idle_margin_w=150.0,
        write=_write_gpu_cap,
        clear=_clear_gpu_caps,
        metric="manager_gpu_cap_sets_total",
        metric_help="GPU power-cap writes through the platform drivers",
        window_key="recent_non_gpu",
    ),
    "socket": CapClass(
        devices=attrgetter("cpu_domains"),
        idle_margin_w=30.0,
        write=_write_socket_cap,
        clear=_clear_socket_caps,
        metric="manager_socket_cap_sets_total",
        metric_help="CPU socket power-cap writes through the platform drivers",
        window_key="recent_non_cpu",
    ),
}


def _lookup(table: dict, domain: str):
    """``table[domain]`` for a cap-domain-keyed table; unknown domains
    raise :class:`ValueError`."""
    try:
        return table[domain]
    except KeyError:
        raise ValueError(
            f"unknown cap domain {domain!r} (expected one of "
            f"{sorted(CAP_CLASSES)})"
        ) from None


class NodeManagerModule(Module):
    """Per-node power enforcement + dynamic policy host."""

    name = "power-manager"

    def __init__(
        self,
        broker: Broker,
        policy_factory: Callable[[], PowerPolicy],
        sample_interval_s: float = 2.0,
        static_node_cap_w: Optional[float] = None,
    ) -> None:
        if broker.node is None:
            raise ValueError("node manager needs hardware attached to the broker")
        super().__init__(broker)
        self.policy_factory = policy_factory
        self.policy = policy_factory()
        self.sample_interval_s = float(sample_interval_s)
        self.static_node_cap_w = static_node_cap_w

        self.node_limit_w: Optional[float] = None
        self.current_jobid: Optional[int] = None
        #: Per domain: the node's devices (fixed for the node's life).
        self._device_lists = {
            d: cls.devices(broker.node) for d, cls in CAP_CLASSES.items()
        }
        #: Per domain: recent node power outside that device class.
        self._recent_other = {d: deque(maxlen=PEAK_WINDOW) for d in CAP_CLASSES}
        self._recent_mem = deque(maxlen=PEAK_WINDOW)
        #: Per domain: each device's draw (W) at the latest tracking
        #: tick — the readings ``policy.on_sample`` is called with.
        self.device_w: Dict[str, List[float]] = {d: [] for d in CAP_CLASSES}
        #: Per domain: the last cap written to each device (None: none).
        self._last_caps: Dict[str, List[Optional[float]]] = {
            d: [None] * len(devices) for d, devices in self._device_lists.items()
        }
        self.cap_request_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_load(self) -> None:
        node = self.broker.node
        self.register_service(SET_LIMIT_TOPIC, self._handle_set_limit)
        self.register_service(JOB_DEPARTED_TOPIC, self._handle_job_departed)
        self.register_service(STATUS_TOPIC, self._handle_status)
        if self.static_node_cap_w is not None:
            # Best effort: on Lassen this installs the OPAL node cap
            # (whose firmware derives its conservative GPU caps); on
            # Intel/AMD it splits across sockets; Tioga refuses.
            try:
                variorum.cap_best_effort_node_power_limit(
                    node, self.static_node_cap_w
                )
            except variorum.VariorumError:
                self.cap_request_failures += 1
        # State-aware policies (checkpoint) learn which application is
        # arriving from the job manager's existing job-state events —
        # no new message traffic, just a subscription.
        self.subscribe("job-state.", self._on_job_state)
        self.add_timer(self.sample_interval_s, self._track, start_delay=0.0)
        self.policy.attach(self)

    def on_unload(self) -> None:
        self.policy.detach()
        for domain in CAP_CLASSES:
            self.clear_caps(domain)

    # ------------------------------------------------------------------
    # Hardware accessors used by policies (one per dial, keyed by domain)
    # ------------------------------------------------------------------
    def _devices(self, domain: str) -> list:
        return _lookup(self._device_lists, domain)

    def device_count(self, domain: str) -> int:
        return len(self._devices(domain))

    def cap_range(self, domain: str) -> Tuple[float, float]:
        """(min, max) cap of one device of ``domain``, watts."""
        devices = self._devices(domain)
        if not devices:
            return (0.0, 0.0)
        spec = devices[0].spec
        return (spec.min_cap_w or 0.0, spec.max_cap_w or spec.max_w)

    @property
    def job_present(self) -> bool:
        return self.current_jobid is not None

    def other_power_w(self, domain: str) -> float:
        """Conservative estimate of node power outside ``domain``'s devices.

        The *recent peak* over the tracking window, not the mean: a
        phase-swinging workload's other draw must be reserved at its
        high-phase level or the derived device budgets push the node
        over its share during every high phase. Before any measurement
        arrives, fall back to the idle floor outside the class plus an
        activity margin — also conservative, so initial budgets never
        overshoot while the estimate warms up.
        """
        cls = _lookup(CAP_CLASSES, domain)
        window = self._recent_other[domain]
        if window:
            return max(window)
        idle_other = self.broker.node.idle_power_w() - sum(
            d.spec.idle_w for d in self._devices(domain)
        )
        return idle_other + cls.idle_margin_w

    def mem_power_w(self) -> float:
        """Conservative (recent-peak) memory-domain power estimate.

        Memory domains are the node's *uncappable* draw: a policy that
        splits the node limit across the cappable CPU and GPU domains
        (EcoShift) must reserve this much off the top. Watts; falls
        back to the memory idle floor plus a small activity margin
        before any measurement arrives.
        """
        if self._recent_mem:
            return max(self._recent_mem)
        node = self.broker.node
        return sum(d.spec.idle_w for d in node.memory_domains) + 20.0

    def derive_share(self, domain: str, node_limit_w: float) -> float:
        """Uniform per-device cap that fits the node limit, given the
        power outside the class."""
        n = self.device_count(domain)
        if n == 0:
            return 0.0
        lo, hi = self.cap_range(domain)
        per_device = (node_limit_w - self.other_power_w(domain)) / n
        return float(min(max(per_device, lo), hi))

    # ------------------------------------------------------------------
    # Cap dials
    # ------------------------------------------------------------------
    def set_cap(self, domain: str, index: int, watts: float) -> None:
        """Set one device's cap (watts) through the platform driver.

        Clamped into the device capping range; idempotent (repeat
        writes of the installed value are not re-issued to the driver).
        """
        cls = _lookup(CAP_CLASSES, domain)
        lo, hi = self.cap_range(domain)
        watts = min(max(watts, lo), hi)
        last = self._last_caps[domain]
        if last[index] == watts:
            return
        try:
            cls.write(self.broker.node, index, watts)
            last[index] = watts
            self.broker.telemetry.metrics.counter(
                cls.metric, help=cls.metric_help
            ).inc()
        except CappingError:
            self.cap_request_failures += 1
            self.broker.telemetry.metrics.counter(
                "manager_cap_failures_total",
                help="failed device cap requests (NVML faults, no driver)",
            ).inc()

    def clear_caps(self, domain: str) -> None:
        _lookup(CAP_CLASSES, domain).clear(self.broker.node)
        self._last_caps[domain] = [None] * self.device_count(domain)

    def enforce_limit_via_gpus(self, node_limit_w: float) -> None:
        """Uniformly cap all GPUs so the node fits its limit."""
        per_gpu = self.derive_share("gpu", node_limit_w)
        for i in range(self.device_count("gpu")):
            self.set_cap("gpu", i, per_gpu)

    # ------------------------------------------------------------------
    # Power tracking loop
    # ------------------------------------------------------------------
    def _track(self, _timer) -> None:
        node = self.broker.node
        node_w = node.total_power_w()
        self.device_w = {
            domain: [d.actual_w for d in devices]
            for domain, devices in self._device_lists.items()
        }
        # Idle samples would poison the other-power estimates with a
        # value far below what a running workload draws, making the
        # first device budgets overshoot the node limit. Only learn
        # from samples where something is actually drawing power.
        if node_w > node.idle_power_w() + 5.0:
            for domain, window in self._recent_other.items():
                window.append(node_w - sum(self.device_w[domain]))
            self._recent_mem.append(
                sum(d.actual_w for d in node.memory_domains)
            )
        self.broker.telemetry.accountant.charge("manager", MANAGER_TRACK_COST_S)
        self.policy.on_sample(self.sim.now, node_w, self.device_w["gpu"])

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def _handle_set_limit(self, broker: Broker, msg: Message) -> None:
        """Install a node-level limit pushed down the cap-decision chain."""
        limit = msg.payload.get("limit_w")
        jobid = msg.payload.get("jobid")
        t_assigned = msg.payload.get("t_assigned")
        tel = broker.telemetry
        tel.metrics.counter(
            "manager_node_limit_updates_total",
            help="node-level limit updates applied by node managers",
        ).inc()
        if t_assigned is not None:
            # One-way latency of the cluster→job→node cap chain — the
            # "policy loop" the paper's responsiveness rests on.
            tel.metrics.histogram(
                "manager_cap_update_latency_seconds",
                help="cap-chain propagation, share decision to node apply",
            ).observe(self.sim.now - float(t_assigned))
            tel.tracer.span(
                "manager.cap_update", "manager", float(t_assigned),
                rank=broker.rank, jobid=jobid, limit_w=limit,
            )
        if limit is not None:
            try:
                limit = float(limit)
            except (TypeError, ValueError):
                broker.respond(msg, errnum=22, errmsg="bad limit_w")
                return
            if limit <= 0:
                broker.respond(msg, errnum=22, errmsg="limit_w must be positive")
                return
        if jobid is not None and jobid != self.current_jobid:
            # New job on this node: dynamic policy state and the power
            # estimates start fresh (the previous job's draw profile is
            # stale information).
            self.current_jobid = jobid
            self._clear_estimates()
            reset = getattr(self.policy, "reset_job_state", None)
            if reset is not None:
                reset()
        self.node_limit_w = limit
        self.policy.on_node_limit(limit)
        broker.respond(msg, {"limit_w": limit, "rank": broker.rank})

    def _handle_job_departed(self, broker: Broker, msg: Message) -> None:
        self.current_jobid = None
        self.node_limit_w = None
        self._clear_estimates()
        for domain in CAP_CLASSES:
            self.clear_caps(domain)
        self.policy.detach()
        self.policy = self.policy_factory()
        self.policy.attach(self)
        broker.respond(msg, {"rank": broker.rank})

    def _clear_estimates(self) -> None:
        for window in self._recent_other.values():
            window.clear()
        self._recent_mem.clear()

    def _on_job_state(self, msg: Message) -> None:
        """Forward job-state events that involve this node to the policy."""
        ranks = msg.payload.get("ranks") or []
        if self.broker.rank not in ranks:
            return
        _, _, state = msg.topic.partition(".")
        self.policy.on_job_state(state, msg.payload)

    # ------------------------------------------------------------------
    # Crash recovery (see repro.lifecycle.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-able continuation state for this node's manager.

        Captures the assigned limit, the learned power estimates and the
        policy's controller state — everything a restored manager needs
        to continue enforcing without re-deriving caps. Installed device
        caps (``last_<domain>_caps``) ride along so the restored
        idempotence check doesn't re-issue writes the hardware already
        holds.
        """
        state = {
            "rank": self.broker.rank,
            "node_limit_w": self.node_limit_w,
            "current_jobid": self.current_jobid,
            "recent_mem": list(self._recent_mem),
            "cap_request_failures": self.cap_request_failures,
            "policy": {"name": self.policy.name, "state": self.policy.snapshot()},
        }
        for domain, cls in CAP_CLASSES.items():
            state[cls.window_key] = list(self._recent_other[domain])
            state[f"last_{domain}_caps"] = list(self._last_caps[domain])
        return state

    def restore_state(self, state: dict) -> None:
        """Rehydrate from :meth:`snapshot_state`; ``{}`` wipes to fresh.

        Mutates in place — module registration, timers and the policy
        object survive, so the event schedule is untouched. Never
        touches the hardware: installed caps are environment, not
        manager state.
        """
        limit = state.get("node_limit_w")
        self.node_limit_w = None if limit is None else float(limit)
        self.current_jobid = state.get("current_jobid")
        self._recent_mem.clear()
        self._recent_mem.extend(float(w) for w in state.get("recent_mem") or [])
        for domain, cls in CAP_CLASSES.items():
            window = self._recent_other[domain]
            window.clear()
            window.extend(float(w) for w in state.get(cls.window_key) or [])
            caps = state.get(f"last_{domain}_caps")
            if caps is None:
                caps = [None] * self.device_count(domain)
            self._last_caps[domain] = [
                None if c is None else float(c) for c in caps
            ]
        self.cap_request_failures = int(state.get("cap_request_failures", 0))
        policy_state = state.get("policy") or {}
        self.policy.restore(policy_state.get("state") or {})

    def _handle_status(self, broker: Broker, msg: Message) -> None:
        broker.respond(
            msg,
            {
                "rank": broker.rank,
                "node_limit_w": self.node_limit_w,
                "jobid": self.current_jobid,
                "non_gpu_w": self.other_power_w("gpu"),
                "gpu_caps_w": list(self._last_caps["gpu"]),
                "cap_failures": self.cap_request_failures,
                "policy": self.policy.describe(),
            },
        )
