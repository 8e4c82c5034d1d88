"""Metrics primitives: counters, gauges, histograms, and their registry.

Stdlib plus numpy (for :func:`repeat_add`) and no other ``repro``
module, so every layer — simkernel upward — may be instrumented
without import cycles. Three deliberate departures from
a wall-clock metrics library:

* **Simulation time.** The registry's clock reads ``Simulator.now``
  (injected as a callable), never the wall clock, so instrumented runs
  stay bit-reproducible; see docs/architecture.md ("Determinism").
* **Pure observation.** Mutating a metric never schedules simulator
  events, draws randomness, or touches model state — enabling or
  disabling telemetry cannot change a simulated power timeline.
* **Fixed histogram buckets.** Bucket boundaries are declared at first
  registration and immutable afterwards, so exports from different
  runs are always comparable.

Series identity is ``(name, sorted(labels))``: asking the registry for
the same name and labels returns the *same* object, so call sites never
need to cache handles.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Default histogram boundaries (seconds), tuned for TBON/RPC latencies:
#: one-hop control messages sit around 100 µs, whole-machine telemetry
#: fan-ins reach tens of milliseconds, cap-chain propagation a few ms.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
)

LabelDict = Dict[str, str]
_LabelKey = Tuple[Tuple[str, str], ...]


def repeat_add(base: float, amount: float, count: int) -> float:
    """The value of ``base`` after ``count`` sequential ``+= amount``.

    ``np.add.accumulate`` is defined as strict left-to-right IEEE
    accumulation (it must produce every prefix), so the result is
    bit-identical to the Python loop at a fraction of the cost. A
    sampler tick charges each run of equal-cost members through this,
    so one call of ``count`` equals ``count`` per-sample charges, and
    two calls of ``a`` and ``b`` equal one of ``a + b``. Chunked to
    bound the scratch array.
    """
    if count <= 0:
        return base
    total = base
    remaining = count
    chunk = 1 << 20
    while remaining:
        k = min(remaining, chunk)
        arr = np.empty(k + 1, dtype=np.float64)
        arr[0] = total
        arr[1:] = amount
        total = float(np.add.accumulate(arr)[-1])
        remaining -= k
    return total


def _label_key(labels: Optional[LabelDict]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class Metric:
    """Base class: one labeled series of one registered metric family."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, key: _LabelKey) -> None:
        self._registry = registry
        self.name = name
        self._key = key
        #: Mirror of ``registry.enabled``, kept in sync by its setter —
        #: a plain attribute read on every inc/set/observe instead of a
        #: property hop through the registry.
        self._on = registry.enabled

    @property
    def labels(self) -> LabelDict:
        """The series' labels as a plain dict."""
        return dict(self._key)


class Counter(Metric):
    """A monotonically increasing count (resets only via the registry)."""

    kind = "counter"

    def __init__(self, registry, name, key) -> None:
        super().__init__(registry, name, key)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not self._on:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self._value += amount

    def inc_repeated(self, amount: float, count: int) -> None:
        """``count`` sequential :meth:`inc` calls, bit-exactly, in bulk."""
        if not self._on or count <= 0:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self._value = repeat_add(self._value, amount, count)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def _snapshot(self) -> Dict[str, Any]:
        return {"labels": self.labels, "value": self._value}


class Gauge(Metric):
    """A value that can go up and down (occupancy, current share, ...)."""

    kind = "gauge"

    def __init__(self, registry, name, key) -> None:
        super().__init__(registry, name, key)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._on:
            return
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._on:
            return
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def _snapshot(self) -> Dict[str, Any]:
        return {"labels": self.labels, "value": self._value}


class Histogram(Metric):
    """Cumulative-bucket histogram with fixed boundaries.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the tail. ``sum``/``count`` give the mean; the boundaries are fixed
    at family registration so exports from different runs line up.
    """

    kind = "histogram"

    def __init__(self, registry, name, key, buckets: Tuple[float, ...]) -> None:
        super().__init__(registry, name, key)
        self.buckets = buckets
        self._bucket_counts = [0] * (len(buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self._on:
            return
        v = float(value)
        self._sum += v
        self._count += 1
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self._bucket_counts[i] += 1
                return
        self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self._count if self._count else None

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-boundary estimate of the ``q`` quantile (0..1)."""
        if not self._count:
            return None
        target = q * self._count
        for bound, cum in self.cumulative_buckets():
            if cum >= target:
                return bound
        return math.inf  # pragma: no cover - +Inf bucket always reaches count

    def _reset(self) -> None:
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "labels": self.labels,
            "sum": self._sum,
            "count": self._count,
            "buckets": [
                [b if math.isfinite(b) else "+Inf", c]
                for b, c in self.cumulative_buckets()
            ],
        }


class MetricsRegistry:
    """Owner of every metric family and labeled series.

    Parameters
    ----------
    clock:
        Callable returning the current time (simulated seconds). Stored
        for exporters that stamp snapshots; never the wall clock.
    enabled:
        When False, every mutation is a no-op (the telemetry-off case);
        lookups still return real objects so call sites stay branchless.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True) -> None:
        self.clock = clock or (lambda: 0.0)
        self._enabled = bool(enabled)
        #: family name -> (kind, help, buckets-or-None)
        self._families: Dict[str, Tuple[str, str, Optional[Tuple[float, ...]]]] = {}
        #: (name, label key) -> Metric
        self._series: Dict[Tuple[str, _LabelKey], Metric] = {}
        #: Callbacks run before any export so deferred writers (the
        #: monitor sampler's buffer gauges) can settle first.
        self._flush_hooks: List[Callable[[], None]] = []
        self._flushing = False

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every snapshot/export.

        Lazily-maintained sources (e.g. the monitor sampler, which
        defers its last-write-wins buffer gauges) register here so reads
        through the exporters always see settled values. Hooks must be
        idempotent; re-entrant exports during a hook skip flushing.
        """
        if hook not in self._flush_hooks:
            self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Run registered flush hooks (no-op when re-entered)."""
        if self._flushing or not self._flush_hooks:
            return
        self._flushing = True
        try:
            for hook in list(self._flush_hooks):
                hook()
        finally:
            self._flushing = False

    @property
    def enabled(self) -> bool:
        """When False, every mutation is a no-op (telemetry off)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        self._enabled = value
        # Each series mirrors the flag so its hot path is a plain
        # attribute read; toggles are rare, series mutations are not.
        for metric in self._series.values():
            metric._on = value

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Optional[LabelDict], help: str,
             buckets: Optional[Tuple[float, ...]] = None) -> Metric:
        family = self._families.get(name)
        if family is None:
            self._families[name] = (cls.kind, help, buckets)
        else:
            if family[0] != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}, "
                    f"requested {cls.kind}"
                )
            if buckets is not None and family[2] is not None and buckets != family[2]:
                raise ValueError(f"metric {name!r} re-registered with new buckets")
            if help and not family[1]:
                self._families[name] = (family[0], help, family[2])
        key = _label_key(labels)
        series = self._series.get((name, key))
        if series is None:
            if cls is Histogram:
                series = Histogram(
                    self, name, key,
                    buckets or self._families[name][2] or DEFAULT_LATENCY_BUCKETS_S,
                )
            else:
                series = cls(self, name, key)
            self._series[(name, key)] = series
        return series

    def counter(self, name: str, labels: Optional[LabelDict] = None,
                help: str = "") -> Counter:
        """Return (registering if needed) the counter series."""
        return self._get(Counter, name, labels, help)  # type: ignore[return-value]

    def gauge(self, name: str, labels: Optional[LabelDict] = None,
              help: str = "") -> Gauge:
        """Return (registering if needed) the gauge series."""
        return self._get(Gauge, name, labels, help)  # type: ignore[return-value]

    def histogram(self, name: str, labels: Optional[LabelDict] = None,
                  help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        """Return (registering if needed) the histogram series."""
        b = tuple(sorted(float(x) for x in buckets)) if buckets is not None else None
        return self._get(Histogram, name, labels, help, b)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered family names, sorted (deferred writers flushed)."""
        self.flush()
        return sorted(self._families)

    def series_for(self, name: str) -> List[Metric]:
        """Every labeled series of one family, in label order."""
        self.flush()
        return self._series_for(name)

    def _series_for(self, name: str) -> List[Metric]:
        return [m for (n, _k), m in sorted(self._series.items()) if n == name]

    def reset(self) -> None:
        """Zero every series; registrations and bucket layouts survive."""
        for metric in self._series.values():
            metric._reset()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump of every family and series."""
        out: Dict[str, Any] = {"time_s": self.clock(), "metrics": {}}
        for name in self.names():
            kind, help, _buckets = self._families[name]
            out["metrics"][name] = {
                "type": kind,
                "help": help,
                "series": [m._snapshot() for m in self._series_for(name)],
            }
        return out

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (HELP/TYPE + samples)."""
        lines: List[str] = []
        for name in self.names():
            kind, help, _buckets = self._families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for m in self._series_for(name):
                key = m._key
                if isinstance(m, Histogram):
                    for bound, cum in m.cumulative_buckets():
                        le = "+Inf" if math.isinf(bound) else repr(bound)
                        bkey = key + (("le", le),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bkey)} {cum}"
                        )
                    lines.append(f"{name}_sum{_render_labels(key)} {m.sum}")
                    lines.append(f"{name}_count{_render_labels(key)} {m.count}")
                else:
                    lines.append(f"{name}{_render_labels(key)} {m.value}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Human-readable summary
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Terminal-friendly summary (the ``repro observe`` output)."""
        lines: List[str] = []
        for name in self.names():
            kind, help, _buckets = self._families[name]
            lines.append(f"{name} ({kind}){': ' + help if help else ''}")
            for m in self._series_for(name):
                label_str = _render_labels(m._key) or "-"
                if isinstance(m, Histogram):
                    mean = m.mean
                    p50, p99 = m.quantile(0.5), m.quantile(0.99)
                    lines.append(
                        f"  {label_str:<40} count={m.count} sum={m.sum:.6g}"
                        + (
                            f" mean={mean:.6g} p50<={p50:.6g} p99<={p99:.6g}"
                            if m.count
                            else ""
                        )
                    )
                else:
                    lines.append(f"  {label_str:<40} {m.value:.6g}")
        return "\n".join(lines)
