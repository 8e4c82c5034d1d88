"""Sharded federation: one simulation engine per member cluster.

The classic :class:`~repro.federation.site.FederatedSite` runs every
cluster through one global event loop — simple and exact, but a site
of N large clusters serializes N clusters' events through one heap and
one Python thread. This module shards the site: each cluster gets a
private :class:`~repro.simkernel.Simulator` (its *shard*), shards run
independently between site-level synchronization points, and the site
manager becomes a coordinator that stitches them together at
**epoch-synchronized rebalance barriers**.

Determinism contract
--------------------
Each cluster's seed is derived exactly as in the single-engine site
(``RandomStreams(site_seed).fork("federation/<name>")``), so a shard's
private event stream is byte-identical to that cluster's restriction of
the single-engine run — *provided budget installs land at the same
position in the shard's event order*. Two mechanisms guarantee that:

* **Epoch markers.** Every shard schedules its own periodic marker with
  the same period, start delay and re-arm discipline as the site's
  single epoch event. When a marker fires the shard pauses; once every
  shard is paused the coordinator reads demands, splits the budget with
  the same :func:`~repro.federation.rebalance.split_site_budget`, and
  installs each share at the shard's paused position — the exact
  sequence-number slot the global epoch event occupies in the
  single-engine run (same creation order, same re-arm-before-callback
  timing).
* **Transition hand-off (inline backend).** Whole-cluster outage and
  recovery rebalances fire *inside* a ``broker.down``/``up`` delivery
  on the detecting shard. The coordinator advances every sibling shard
  to the delivery instant (``run(until=t)``) and rebalances
  synchronously, then the detecting shard's delivery continues. Sibling
  shards therefore see the install after their own events at that
  instant — identical to the global run whenever no sibling has an
  event at *exactly* the transition time (the *no-collision contract*;
  transition instants carry TBON transport-delay offsets, so grid-
  aligned traffic never collides with them).

The site digest (:mod:`repro.federation.digest`) is the stable
combination of per-shard digests, and equals the single-engine
``FederatedSite.site_digest()`` for the same config and seed —
``tests/test_sharded_federation.py`` pins this for fault-free,
retuned and faulted runs.

Backends
--------
``backend="inline"``
    All shards in this process, interleaved in global time order via
    :meth:`~repro.simkernel.Simulator.peek_time`. Full semantics
    (faults, dynamic submits, exact ``run_until_complete``).
``backend="process"``
    One :mod:`multiprocessing` worker per shard; between barriers each
    worker free-runs its own engine, so the site scales with cores.
    Cross-shard synchronization exists only at barriers, so cluster
    fault campaigns (which need mid-epoch hand-off) are rejected, and
    the workload (submits, scheduled retunes) must be declared before
    the first ``run_*`` call.

Site-tier ``federation_*`` metrics remain a single-engine feature —
each shard keeps its own telemetry hub, and the coordinator pins
behaviour through the budget log and the site digest instead.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster import PowerManagedCluster
from repro.faults import FaultPlan
from repro.federation.digest import (
    cluster_shard_summary,
    combine_site_digest,
    shard_digest,
)
from repro.federation.rebalance import (
    cluster_demand_w,
    site_allocation_total_w,
    split_site_budget,
    validate_floors,
)
from repro.federation.site import ClusterSpec, SiteConfig
from repro.flux.jobspec import JobRecord, Jobspec
from repro.manager.cluster_manager import ManagerConfig
from repro.simkernel import RandomStreams, Simulator


class _Shard:
    """One member cluster on its own engine, plus its site-tier hooks."""

    def __init__(
        self,
        spec: ClusterSpec,
        cluster_seed: int,
        fault_plan: Optional[FaultPlan],
        monitor_interval_s: float,
        telemetry_enabled: bool,
    ) -> None:
        self.spec = spec
        self.sim = Simulator()
        self.cluster = PowerManagedCluster(
            platform=spec.platform,
            n_nodes=spec.n_nodes,
            seed=cluster_seed,
            fanout=spec.fanout,
            manager_config=ManagerConfig(
                global_cap_w=None,  # installed by the first rebalance
                policy=spec.policy,
                static_node_cap_w=spec.static_node_cap_w,
                node_peak_w=spec.node_peak_w,
            ),
            monitor_strategy=spec.monitor_strategy,
            monitor_interval_s=monitor_interval_s,
            fault_plan=fault_plan,
            telemetry_enabled=telemetry_enabled,
            sim=self.sim,
            hostname_prefix=spec.name,
        )
        self.down_ranks: Set[int] = set()
        self.is_down = False
        #: Barrier reason ("epoch" / "retune") while paused at a local
        #: marker; None while free-running.
        self.paused: Optional[str] = None
        self.expected_jobs = 0
        #: Inline coordinator hook: called synchronously from inside the
        #: broker event delivery when whole-cluster liveness flips.
        self.on_transition = None
        self.cluster.instance.brokers[0].subscribe(
            "broker.", self._on_broker_event
        )

    # -- liveness (same rule as FederatedSite._update_liveness) --------
    def _on_broker_event(self, msg) -> None:
        if msg.topic == "broker.down":
            self.down_ranks.add(int(msg.payload["rank"]))
        elif msg.topic == "broker.up":
            self.down_ranks.discard(int(msg.payload["rank"]))
        else:
            return
        n = self.spec.n_nodes
        down = n >= 2 and len(self.down_ranks) >= n - 1
        if down == self.is_down:
            return
        self.is_down = down
        if self.on_transition is not None:
            self.on_transition(self, "outage" if down else "recovery")

    # -- site-tier surface ---------------------------------------------
    def demand(self) -> float:
        manager = self.cluster.manager
        active = (
            manager.cluster.job_level.active_node_count()
            if manager is not None
            else 0
        )
        return cluster_demand_w(active, self.spec.node_peak_w)

    def install(self, share_w: float) -> None:
        manager = self.cluster.manager
        if manager is None:  # pragma: no cover - specs always load one
            return
        root = manager.cluster
        root.config = replace(root.config, global_cap_w=share_w)
        root._recompute()

    def start_markers(self, epoch_s: float) -> None:
        self.sim.schedule_periodic(
            epoch_s, self._pause, "epoch", start_delay=epoch_s
        )

    def schedule_retune_marker(self, when: float) -> None:
        self.sim.schedule_at(when, self._pause, "retune")

    def _pause(self, reason: str) -> None:
        self.paused = reason

    def all_complete(self) -> bool:
        jm = self.cluster.instance.jobmanager
        return len(jm.jobs) >= self.expected_jobs and jm.all_complete()

    def drive_local(self, until: float):
        """Free-run this shard alone until a marker pauses it or ``until``.

        Returns ``("paused", t, reason, demand)`` or
        ``("done", demand, all_complete)`` — the worker protocol's
        advance reply, also used by inline tests.
        """
        sim = self.sim
        while self.paused is None:
            t = sim.peek_time()
            if t is None or t > until:
                sim.run(until=until)
                return ("done", self.demand(), self.all_complete())
            sim.step()
        return ("paused", sim.now, self.paused, self.demand())

    def summary(self) -> dict:
        return cluster_shard_summary(self.cluster)


def _make_shard(payload: dict) -> _Shard:
    """Build a shard from the picklable worker payload."""
    shard = _Shard(
        spec=payload["spec"],
        cluster_seed=payload["cluster_seed"],
        fault_plan=None,
        monitor_interval_s=payload["monitor_interval_s"],
        telemetry_enabled=payload["telemetry_enabled"],
    )
    for spec, when in payload["jobs"]:
        shard.expected_jobs += 1
        if when <= 0.0:
            shard.cluster.submit(spec)
        else:
            shard.cluster.submit_at(spec, when)
    for when in payload["retune_times"]:
        shard.schedule_retune_marker(when)
    return shard


def _shard_worker(conn, payload: dict) -> None:
    """Process-backend worker: one shard driven by pipe commands."""
    try:
        shard = _make_shard(payload)
        conn.send(("demand", shard.demand()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "install":
                shard.install(cmd[1])
                conn.send(("ok",))
            elif op == "start_markers":
                shard.start_markers(cmd[1])
                conn.send(("ok",))
            elif op == "advance":
                conn.send(shard.drive_local(cmd[1]))
            elif op == "resume":
                shard.paused = None
                conn.send(("ok",))
            elif op == "summary":
                conn.send(("summary", shard.summary()))
            elif op == "exit":
                conn.send(("bye",))
                return
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {op!r}"))
    except Exception as exc:  # pragma: no cover - surfaced coordinator-side
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass
    finally:
        conn.close()


class ShardedFederatedSite:
    """The :class:`~repro.federation.site.FederatedSite` API over shards.

    Parameters mirror the single-engine site; ``backend`` selects the
    inline (same-process, full-semantics) or process
    (:mod:`multiprocessing`, barrier-only) execution model. See the
    module docstring for the determinism contract.
    """

    def __init__(
        self,
        config: SiteConfig,
        seed: int = 0,
        fault_plans: Optional[Mapping[str, FaultPlan]] = None,
        backend: str = "inline",
        telemetry_enabled: bool = True,
        monitor_interval_s: float = 2.0,
    ) -> None:
        config.validate()
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown shard backend {backend!r}")
        fault_plans = dict(fault_plans or {})
        unknown = set(fault_plans) - {s.name for s in config.clusters}
        if unknown:
            raise ValueError(f"fault plans for unknown clusters: {sorted(unknown)}")
        if backend == "process" and any(
            plan is not None and not plan.is_empty()
            for plan in fault_plans.values()
        ):
            raise ValueError(
                "cluster fault campaigns need the inline backend: mid-epoch "
                "liveness rebalances require cross-shard hand-off a process "
                "barrier cannot replay"
            )
        self.config = config
        self.backend = backend
        self.seed = int(seed)
        self.site_budget_w = float(config.site_budget_w)
        self.specs: Dict[str, ClusterSpec] = {s.name: s for s in config.clusters}
        self._monitor_interval_s = monitor_interval_s
        self._telemetry_enabled = telemetry_enabled
        self._now = 0.0

        streams = RandomStreams(seed=self.seed)
        self._cluster_seeds = {
            spec.name: streams.fork(f"federation/{spec.name}").seed
            for spec in config.clusters
        }

        self.assigned_shares: Dict[str, float] = {}
        self.expected_total_w: float = 0.0
        self.last_rebalance_t: float = 0.0
        self.budget_log: List[
            Tuple[float, str, Dict[str, float], Tuple[str, ...]]
        ] = []
        #: Scheduled (t, new_budget_w) retunes, consumed at barriers.
        self._pending_retunes: List[Tuple[float, float]] = []
        self._in_transition = False

        if backend == "inline":
            self._shards: List[_Shard] = [
                _Shard(
                    spec,
                    self._cluster_seeds[spec.name],
                    fault_plans.get(spec.name),
                    monitor_interval_s,
                    telemetry_enabled,
                )
                for spec in config.clusters
            ]
            self._by_name = {sh.spec.name: sh for sh in self._shards}
            demands = {sh.spec.name: sh.demand() for sh in self._shards}
            self._apply_split("initial", demands)
            for sh in self._shards:
                sh.start_markers(config.rebalance_epoch_s)
                sh.on_transition = self._on_transition
        else:
            # Workers start lazily on the first run_* call so the whole
            # workload (submits, retunes) can be declared first.
            self._shards = []
            self._by_name = {}
            self._workers: List[mp.Process] = []
            self._conns: List = []
            self._started = False
            self._closed = False
            self._job_queue: Dict[str, List[Tuple[Jobspec, float]]] = {
                s.name: [] for s in config.clusters
            }
            self._last_demands: Dict[str, float] = {
                s.name: 0.0 for s in config.clusters
            }
            self._all_complete = False

    # ------------------------------------------------------------------
    # Budget split (shared by both backends)
    # ------------------------------------------------------------------
    def _down_names(self) -> Set[str]:
        if self.backend == "inline":
            return {sh.spec.name for sh in self._shards if sh.is_down}
        return set()  # process backend is fault-free by construction

    def _apply_split(self, reason: str, demands: Dict[str, float]) -> Dict[str, float]:
        """Run ``split_site_budget`` and record the site-tier books.

        Returns the per-cluster install map (0.0 for down clusters);
        the caller delivers the installs at each shard's paused
        position.
        """
        down = self._down_names()
        live = [n for n in sorted(self.specs) if n not in down]
        live_demands = {n: demands[n] for n in live}
        floors = {n: self.specs[n].min_share_w for n in live}
        ceilings = {n: self.specs[n].max_share_w for n in live}
        shares = split_site_budget(
            self.site_budget_w, live_demands, floors, ceilings
        )
        self.assigned_shares = {n: 0.0 for n in sorted(self.specs)}
        installs: Dict[str, float] = {}
        for name in live:
            self.assigned_shares[name] = shares[name]
            installs[name] = shares[name]
        for name in sorted(down):
            installs[name] = 0.0
        self.expected_total_w = site_allocation_total_w(
            self.site_budget_w, live_demands, ceilings
        )
        self.last_rebalance_t = self._now
        self.budget_log.append(
            (self._now, reason, dict(self.assigned_shares), tuple(live))
        )
        if self.backend == "inline":
            # Install order is per-shard-irrelevant (each shard only
            # sees its own install), but keep the single-engine site's
            # sorted order for the books.
            for name in sorted(installs):
                self._by_name[name].install(installs[name])
        return installs

    # ------------------------------------------------------------------
    # Inline backend: global-time-ordered interleave
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self.backend == "inline" and self._shards:
            return max(self._now, max(sh.sim.now for sh in self._shards))
        return self._now

    def _on_transition(self, shard: _Shard, kind: str) -> None:
        """Outage/recovery hand-off, called inside the delivery event."""
        if self._in_transition:
            raise RuntimeError(
                "nested liveness transitions at one instant violate the "
                "sharded no-collision contract"
            )
        self._in_transition = True
        try:
            t = shard.sim.now
            for sh in self._shards:
                if sh is shard:
                    continue
                sh.sim.run(until=t)
                if sh.paused is not None:
                    raise RuntimeError(
                        f"shard {sh.spec.name!r} hit a rebalance marker at "
                        f"the transition instant t={t}: no-collision "
                        "contract violated (move the fault off the epoch "
                        "grid)"
                    )
            self._now = t
            demands = {sh.spec.name: sh.demand() for sh in self._shards}
            self._apply_split(kind, demands)
        finally:
            self._in_transition = False

    def _resolve_barrier_inline(self) -> None:
        reasons = {sh.paused for sh in self._shards}
        times = {sh.sim.now for sh in self._shards}
        if len(reasons) != 1 or len(times) != 1:
            raise RuntimeError(
                f"shards paused at inconsistent barriers: reasons={reasons} "
                f"times={times}"
            )
        reason = next(iter(reasons))
        self._now = next(iter(times))
        if reason == "retune":
            self._consume_retune(self._now)
        demands = {sh.spec.name: sh.demand() for sh in self._shards}
        self._apply_split(reason, demands)
        for sh in self._shards:
            sh.paused = None

    def _consume_retune(self, t: float) -> None:
        for i, (when, budget_w) in enumerate(self._pending_retunes):
            if when == t:
                self.site_budget_w = float(budget_w)
                del self._pending_retunes[i]
                return
        raise RuntimeError(f"retune barrier at t={t} with no pending retune")

    def _drive_inline(self, until: float, stop_when_complete: bool = False) -> None:
        shards = self._shards
        while True:
            best = None
            for sh in shards:
                if sh.paused is not None:
                    continue
                t = sh.sim.peek_time()
                if t is None or t > until:
                    continue
                if best is None or t < best[0]:
                    best = (t, sh)
            if best is not None:
                best[1].sim.step()
                if stop_when_complete and self.all_complete():
                    self._now = best[1].sim.now
                    return
                continue
            if any(sh.paused is not None for sh in shards):
                self._resolve_barrier_inline()
                continue
            for sh in shards:
                sh.sim.run(until=until)
            self._now = until
            return

    # ------------------------------------------------------------------
    # Process backend: barrier-synchronized workers
    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        ctx = mp.get_context()
        for spec in self.config.clusters:
            parent, child = ctx.Pipe()
            payload = {
                "spec": spec,
                "cluster_seed": self._cluster_seeds[spec.name],
                "monitor_interval_s": self._monitor_interval_s,
                "telemetry_enabled": self._telemetry_enabled,
                "jobs": list(self._job_queue[spec.name]),
                "retune_times": [t for t, _ in self._pending_retunes],
            }
            proc = ctx.Process(
                target=_shard_worker, args=(child, payload), daemon=True
            )
            proc.start()
            child.close()
            self._workers.append(proc)
            self._conns.append(parent)
        demands: Dict[str, float] = {}
        for spec, conn in zip(self.config.clusters, self._conns):
            demands[spec.name] = self._recv(conn, "demand")[1]
        installs = self._apply_split("initial", demands)
        for spec, conn in zip(self.config.clusters, self._conns):
            self._call(conn, ("install", installs[spec.name]))
            self._call(conn, ("start_markers", self.config.rebalance_epoch_s))
        self._started = True

    @staticmethod
    def _recv(conn, *expect: str):
        reply = conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard worker failed: {reply[1]}")
        if expect and reply[0] not in expect:
            raise RuntimeError(f"unexpected shard reply {reply!r}")
        return reply

    def _call(self, conn, cmd, *expect: str):
        conn.send(cmd)
        return self._recv(conn, *(expect or ("ok",)))

    def _drive_process(self, until: float) -> None:
        if not self._started:
            self._start_workers()
        names = [s.name for s in self.config.clusters]
        while True:
            for conn in self._conns:
                conn.send(("advance", until))
            replies = [
                self._recv(conn, "paused", "done") for conn in self._conns
            ]
            kinds = {r[0] for r in replies}
            if kinds == {"done"}:
                for name, r in zip(names, replies):
                    self._last_demands[name] = r[1]
                self._all_complete = all(r[2] for r in replies)
                self._now = until
                return
            if kinds != {"paused"}:
                raise RuntimeError(
                    f"shards desynchronized at barrier: {sorted(kinds)}"
                )
            times = {r[1] for r in replies}
            reasons = {r[2] for r in replies}
            if len(times) != 1 or len(reasons) != 1:
                raise RuntimeError(
                    f"shards paused at inconsistent barriers: times={times} "
                    f"reasons={reasons}"
                )
            self._now = next(iter(times))
            reason = next(iter(reasons))
            if reason == "retune":
                self._consume_retune(self._now)
            demands = {name: r[3] for name, r in zip(names, replies)}
            self._last_demands.update(demands)
            installs = self._apply_split(reason, demands)
            for name, conn in zip(names, self._conns):
                self._call(conn, ("install", installs[name]))
            for conn in self._conns:
                self._call(conn, ("resume",))

    def close(self) -> None:
        """Shut the process backend's workers down (idempotent)."""
        if self.backend != "process" or getattr(self, "_closed", True):
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("exit",))
                conn.recv()
            except Exception:
                pass
            finally:
                try:
                    conn.close()
                except Exception:
                    pass
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._workers = []
        self._conns = []

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # FederatedSite API
    # ------------------------------------------------------------------
    def cluster(self, name: str) -> PowerManagedCluster:
        if self.backend != "inline":
            raise RuntimeError(
                "member clusters live in worker processes; the process "
                "backend exposes results through site_digest()/describe()"
            )
        return self._by_name[name].cluster

    @property
    def clusters(self) -> Dict[str, PowerManagedCluster]:
        if self.backend != "inline":
            raise RuntimeError("clusters are only reachable on the inline backend")
        return {name: sh.cluster for name, sh in sorted(self._by_name.items())}

    def submit(self, name: str, spec: Jobspec) -> Optional[JobRecord]:
        if self.backend == "inline":
            shard = self._by_name[name]
            shard.expected_jobs += 1
            return shard.cluster.submit(spec)
        self._require_not_started("submit")
        self._job_queue[name].append((spec, 0.0))
        return None

    def submit_at(self, name: str, spec: Jobspec, when: float) -> None:
        if self.backend == "inline":
            shard = self._by_name[name]
            shard.expected_jobs += 1
            shard.cluster.submit_at(spec, when)
            return
        self._require_not_started("submit_at")
        self._job_queue[name].append((spec, float(when)))

    def _require_not_started(self, what: str) -> None:
        if self._started:
            raise RuntimeError(
                f"{what} after the first run: the process backend needs the "
                "whole workload declared up front"
            )

    def retune_site_budget(self, new_budget_w: float) -> None:
        """Change the site budget and re-split at the current instant."""
        validate_floors(
            new_budget_w,
            {s.name: s.min_share_w for s in self.config.clusters},
            {s.name: s.max_share_w for s in self.config.clusters},
        )
        if self.backend != "inline":
            raise RuntimeError(
                "immediate retunes need the inline backend; use "
                "schedule_retune() before the first run instead"
            )
        self.site_budget_w = float(new_budget_w)
        self._now = self.now
        demands = {sh.spec.name: sh.demand() for sh in self._shards}
        self._apply_split("retune", demands)

    def schedule_retune(self, when: float, new_budget_w: float) -> None:
        validate_floors(
            new_budget_w,
            {s.name: s.min_share_w for s in self.config.clusters},
            {s.name: s.max_share_w for s in self.config.clusters},
        )
        if self.backend == "process":
            self._require_not_started("schedule_retune")
        else:
            for sh in self._shards:
                sh.schedule_retune_marker(when)
        self._pending_retunes.append((float(when), float(new_budget_w)))
        self._pending_retunes.sort()

    def all_complete(self) -> bool:
        if self.backend == "inline":
            return all(sh.all_complete() for sh in self._shards)
        return self._all_complete

    def run_for(self, duration_s: float) -> float:
        until = self.now + duration_s
        if self.backend == "inline":
            self._drive_inline(until)
        else:
            self._drive_process(until)
        return self._now

    def run_until_complete(
        self, timeout_s: float = 1e7, max_events: int = 100_000_000
    ) -> float:
        deadline = self.now + timeout_s
        if self.backend == "inline":
            while not self.all_complete():
                if self.now >= deadline:
                    raise RuntimeError(
                        f"jobs still active at t={self.now:.0f}s (timeout)"
                    )
                before = sum(sh.sim.events_processed for sh in self._shards)
                self._drive_inline(
                    min(deadline, self.now + self.config.rebalance_epoch_s),
                    stop_when_complete=True,
                )
                after = sum(sh.sim.events_processed for sh in self._shards)
                if after == before and not self.all_complete():
                    raise RuntimeError(
                        "event heaps drained with jobs still active"
                    )
            return self.now
        while not self.all_complete():
            if self._now >= deadline:
                raise RuntimeError(
                    f"jobs still active at t={self._now:.0f}s (timeout)"
                )
            self._drive_process(self._now + self.config.rebalance_epoch_s)
        return self._now

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def shard_digests(self) -> Dict[str, str]:
        """Per-cluster digests (the combination inputs of the site digest)."""
        if self.backend == "inline":
            return {
                name: shard_digest(sh.summary())
                for name, sh in sorted(self._by_name.items())
            }
        if not self._started:
            self._start_workers()
        digests: Dict[str, str] = {}
        for spec, conn in zip(self.config.clusters, self._conns):
            digests[spec.name] = shard_digest(
                self._call(conn, ("summary",), "summary")[1]
            )
        return digests

    def site_digest(self) -> str:
        """Stable combination of the per-shard digests + site timeline.

        Equal to the single-engine ``FederatedSite.site_digest()`` for
        the same config/seed/workload when both runs end at the same
        simulated time (e.g. the same ``run_for`` horizon).
        """
        return combine_site_digest(self.now, self.budget_log, self.shard_digests())

    @property
    def live_clusters(self) -> List[str]:
        down = self._down_names()
        return sorted(n for n in self.specs if n not in down)

    @property
    def down_clusters(self) -> List[str]:
        return sorted(self._down_names())

    def cluster_is_down(self, name: str) -> bool:
        return name in self._down_names()

    def describe(self) -> Dict[str, object]:
        if self.backend == "inline":
            demands = {n: sh.demand() for n, sh in self._by_name.items()}
        else:
            demands = dict(self._last_demands)
        return {
            "site_budget_w": self.site_budget_w,
            "rebalance_epoch_s": self.config.rebalance_epoch_s,
            "sharded": True,
            "backend": self.backend,
            "clusters": {
                name: {
                    "platform": self.specs[name].platform,
                    "n_nodes": self.specs[name].n_nodes,
                    "assigned_w": self.assigned_shares.get(name, 0.0),
                    "demand_w": demands.get(name, 0.0),
                    "down": name in self._down_names(),
                }
                for name in sorted(self.specs)
            },
        }


def create_site(
    config: SiteConfig,
    seed: int = 0,
    fault_plans: Optional[Mapping[str, FaultPlan]] = None,
    **kwargs,
):
    """Build the site the config asks for.

    ``SiteConfig(sharded=True)`` yields a :class:`ShardedFederatedSite`
    (extra ``kwargs`` like ``backend=`` pass through); otherwise the
    classic single-engine :class:`~repro.federation.site.FederatedSite`.
    """
    if config.sharded:
        return ShardedFederatedSite(config, seed, fault_plans, **kwargs)
    from repro.federation.site import FederatedSite

    return FederatedSite(config, seed, fault_plans, **kwargs)


__all__ = ["ShardedFederatedSite", "create_site"]
