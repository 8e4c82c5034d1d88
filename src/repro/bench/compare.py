"""Perf-regression comparison of two bench artifacts.

``repro bench --compare BENCH_a.json BENCH_b.json --max-regress 10%``
matches results by ``(benchmark, metric)``, computes the regression of
the *new* report against the *base* report, and fails when any gated
metric regresses past the threshold.

Direction is inferred from the metric name: ``*_per_s`` metrics are
throughputs (higher is better); ``wall_s`` and other ``*_s``/``*_ms``
metrics are durations (lower is better).  Anything else is shown but
never gated.

The loader here is deliberately lenient where ``validate_report`` is
strict: artifacts from older harness versions may carry a missing or
zero ``created_unix`` and a different ``repeats`` policy — both are
comparison *warnings*, not crashes, because the whole point of the
trajectory is to diff artifacts written by different revisions of the
harness.  A ``quick`` mismatch additionally drops duration metrics
from gating (a 96-node quick run and a 792-node full run have nothing
comparable about their absolute wall times, while their throughputs
remain roughly commensurable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.harness import BENCH_SCHEMA_VERSION


def parse_max_regress(text: str) -> float:
    """``"10%"`` → 0.10; ``"0.1"`` → 0.1. Raises ValueError otherwise."""
    raw = text.strip()
    try:
        if raw.endswith("%"):
            frac = float(raw[:-1]) / 100.0
        else:
            frac = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse --max-regress value: {text!r}")
    if frac < 0:
        raise ValueError(f"--max-regress must be >= 0, got {text!r}")
    return frac


def load_report_lenient(path: str) -> Dict[str, Any]:
    """Load a bench artifact with schema-only validation.

    Unlike :func:`repro.bench.harness.validate_report` this accepts
    artifacts with missing/zero ``created_unix`` or absent ``repeats``
    — those become comparison warnings instead of load failures.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: bench report must be a JSON object")
    if data.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(f"{path}: unknown bench schema {data.get('schema')!r}")
    if not isinstance(data.get("results"), list) or not data["results"]:
        raise ValueError(f"{path}: bench report has no results")
    return data


def _direction(metric: str) -> Optional[str]:
    """``"higher"`` / ``"lower"`` is better, or None (not gated)."""
    if metric.endswith("_per_s"):
        return "higher"
    if metric == "wall_s" or metric.endswith("_s") or metric.endswith("_ms"):
        return "lower"
    return None


@dataclass
class BenchDelta:
    """One (benchmark, metric) pair present in both reports."""

    benchmark: str
    metric: str
    base: float
    new: float
    #: Fractional regression of *new* vs *base* (positive = worse),
    #: or None when the metric direction is unknown / gating is
    #: suppressed (quick mismatch on a duration metric).
    regress: Optional[float]

    @property
    def speedup(self) -> float:
        """new/base for throughputs, base/new for durations (>1 = better)."""
        if self.base <= 0 or self.new <= 0:
            return float("nan")
        if _direction(self.metric) == "lower":
            return self.base / self.new
        return self.new / self.base


@dataclass
class CompareResult:
    base_name: str
    new_name: str
    max_regress: float
    deltas: List[BenchDelta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    only_base: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)

    def regressions(self) -> List[BenchDelta]:
        return [
            d
            for d in self.deltas
            if d.regress is not None and d.regress > self.max_regress
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions()

    def table_rows(self) -> List[str]:
        lines = [
            f"{'benchmark':<28} {'metric':<18} {'base':>14} {'new':>14} "
            f"{'speedup':>8}  verdict"
        ]
        for d in self.deltas:
            if d.regress is None:
                verdict = "(not gated)"
            elif d.regress > self.max_regress:
                verdict = f"REGRESS {d.regress * 100:+.1f}%"
            elif d.regress > 0:
                verdict = f"ok {d.regress * 100:+.1f}%"
            else:
                verdict = f"ok {d.regress * 100:+.1f}%"
            lines.append(
                f"{d.benchmark:<28} {d.metric:<18} {d.base:>14.2f} "
                f"{d.new:>14.2f} {d.speedup:>7.2f}x  {verdict}"
            )
        for name in self.only_base:
            lines.append(f"{name:<28} only in {self.base_name} (skipped)")
        for name in self.only_new:
            lines.append(f"{name:<28} only in {self.new_name} (new)")
        return lines

    def summary(self) -> str:
        bad = self.regressions()
        if bad:
            worst = max(bad, key=lambda d: d.regress or 0.0)
            return (
                f"FAIL: {len(bad)} metric(s) regressed past "
                f"{self.max_regress * 100:.0f}% (worst: {worst.benchmark} "
                f"{worst.metric} {worst.regress * 100:+.1f}%)"
            )
        return (
            f"OK: no regression past {self.max_regress * 100:.0f}% across "
            f"{len(self.deltas)} compared metric(s)"
        )


def _usable_timestamp(value: Any) -> bool:
    """A real positive number. Excludes bool (``True`` is an ``int``
    to ``isinstance`` but is not a timestamp) and strings, which older
    hand-edited artifacts have carried — both must warn, not crash."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0
    )


def _repeats_key(value: Any) -> Any:
    """Numeric repeats compare by value (3 == 3.0, no spurious warning);
    anything non-numeric compares as-is."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def _meta_warnings(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    warnings: List[str] = []
    for label, report in (("base", base), ("new", new)):
        if not _usable_timestamp(report.get("created_unix", 0)):
            warnings.append(
                f"{label} report {report.get('name', '?')!r} has no usable "
                "created_unix timestamp (older harness?); ordering not checked"
            )
    b_created = base.get("created_unix", 0)
    n_created = new.get("created_unix", 0)
    if (
        _usable_timestamp(b_created)
        and _usable_timestamp(n_created)
        and n_created < b_created
    ):
        warnings.append(
            "new report predates base report (created_unix ordering reversed)"
        )
    b_rep = base.get("repeats", 1)
    n_rep = new.get("repeats", 1)
    if _repeats_key(b_rep) != _repeats_key(n_rep):
        warnings.append(
            f"repeats differ (base best-of-{b_rep}, new best-of-{n_rep}); "
            "best-of-N noise floors are not identical"
        )
    b_plat = base.get("platform", {}) or {}
    n_plat = new.get("platform", {}) or {}
    for key in ("python", "machine", "numpy"):
        if b_plat.get(key) != n_plat.get(key):
            warnings.append(
                f"platform.{key} differs "
                f"({b_plat.get(key)!r} vs {n_plat.get(key)!r})"
            )
    return warnings


def compare_reports(
    base: Dict[str, Any], new: Dict[str, Any], max_regress: float
) -> CompareResult:
    """Match results by (benchmark, metric) and compute regressions."""
    result = CompareResult(
        base_name=str(base.get("name", "base")),
        new_name=str(new.get("name", "new")),
        max_regress=max_regress,
    )
    result.warnings.extend(_meta_warnings(base, new))

    quick_mismatch = bool(base.get("quick")) != bool(new.get("quick"))
    if quick_mismatch:
        result.warnings.append(
            "quick flags differ: duration metrics are shown but not gated "
            "(absolute wall times at different problem sizes are not "
            "comparable)"
        )

    def _index(report: Dict[str, Any]) -> Dict[Tuple[str, str], Dict[str, Any]]:
        out: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for entry in report.get("results", []):
            out[(str(entry["benchmark"]), str(entry["metric"]))] = entry
        return out

    base_idx = _index(base)
    new_idx = _index(new)
    for key, b_entry in base_idx.items():
        n_entry = new_idx.get(key)
        if n_entry is None:
            result.only_base.append(f"{key[0]} ({key[1]})")
            continue
        bench, metric = key
        b_val = float(b_entry["value"])
        n_val = float(n_entry["value"])
        direction = _direction(metric)
        regress: Optional[float]
        if direction is None or b_val <= 0:
            regress = None
        elif direction == "lower" and quick_mismatch:
            regress = None
        elif direction == "higher":
            regress = (b_val - n_val) / b_val
        else:
            regress = (n_val - b_val) / b_val
        result.deltas.append(
            BenchDelta(
                benchmark=bench, metric=metric, base=b_val, new=n_val,
                regress=regress,
            )
        )
    for key in new_idx:
        if key not in base_idx:
            result.only_new.append(f"{key[0]} ({key[1]})")
    result.deltas.sort(key=lambda d: (d.benchmark, d.metric))
    return result


def compare_report_files(
    base_path: str, new_path: str, max_regress: float
) -> CompareResult:
    return compare_reports(
        load_report_lenient(base_path),
        load_report_lenient(new_path),
        max_regress,
    )
