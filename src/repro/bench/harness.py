"""Benchmark report plumbing: result records, JSON schema, validation.

A benchmark is a callable ``fn(quick: bool) -> list[BenchResult]``.
``run_suite`` executes a list of them and collects a ``BenchReport``
that serialises to the ``repro-bench/1`` JSON schema::

    {
      "schema": "repro-bench/1",
      "name": "baseline",
      "quick": false,
      "created_unix": 1754459000,
      "platform": {"python": "3.11.7", "machine": "x86_64", "numpy": "2.4.6"},
      "results": [
        {"benchmark": "engine_prescheduled", "metric": "events_per_s",
         "value": 812345.6, "wall_s": 0.62, "params": {"n_events": 500000}}
      ]
    }

Artifacts are named ``BENCH_<name>.json`` and live at the repo root so
the trajectory is visible in plain ``git log --stat``.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy

BENCH_SCHEMA_VERSION = "repro-bench/1"

_RESULT_KEYS = {"benchmark", "metric", "value", "wall_s", "params"}


@dataclass
class BenchResult:
    """One measured quantity from one benchmark."""

    benchmark: str
    metric: str
    value: float
    wall_s: float
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "value": round(float(self.value), 6),
            "wall_s": round(float(self.wall_s), 6),
            "params": dict(self.params),
        }


@dataclass
class BenchReport:
    """A named collection of benchmark results."""

    name: str
    quick: bool
    results: List[BenchResult] = field(default_factory=list)
    created_unix: int = 0
    repeats: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "quick": self.quick,
            "repeats": self.repeats,
            "created_unix": self.created_unix,
            "platform": {
                "python": _platform.python_version(),
                "machine": _platform.machine(),
                # The columnar hot paths are numpy-vectorised, so the
                # numpy build is part of a measurement's provenance;
                # ``--compare`` warns when two artifacts disagree.
                "numpy": numpy.__version__,
            },
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def result(self, benchmark: str, metric: Optional[str] = None) -> BenchResult:
        for r in self.results:
            if r.benchmark == benchmark and (metric is None or r.metric == metric):
                return r
        raise KeyError((benchmark, metric))

    def table_rows(self) -> List[str]:
        lines = [f"{'benchmark':<28} {'metric':<16} {'value':>14} {'wall s':>9}"]
        for r in self.results:
            lines.append(
                f"{r.benchmark:<28} {r.metric:<16} {r.value:>14.2f} {r.wall_s:>9.3f}"
            )
        return lines


def run_suite(
    benchmarks: Iterable[Callable[[bool], List[BenchResult]]],
    name: str,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    repeats: int = 1,
) -> BenchReport:
    """Run each benchmark callable and collect the report.

    With ``repeats > 1`` each benchmark runs that many times and the
    run with the smallest total wall time is kept (whole run, so
    derived results like a sweep total stay internally consistent).
    Scheduler/VM noise is strictly additive, so best-of-N estimates
    the true cost; the same policy must be applied to any baseline
    being compared against.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report = BenchReport(
        name=name, quick=quick, created_unix=int(time.time()), repeats=repeats
    )
    for fn in benchmarks:
        label = getattr(fn, "__name__", str(fn))
        best: Optional[List[BenchResult]] = None
        for rep in range(repeats):
            if progress is not None:
                suffix = f" ({rep + 1}/{repeats})" if repeats > 1 else ""
                progress(f"running {label}{suffix} ...")
            results = fn(quick)
            if best is None or sum(r.wall_s for r in results) < sum(
                r.wall_s for r in best
            ):
                best = results
        report.results.extend(best or [])
    return report


def write_report(report: BenchReport, path: str) -> str:
    """Write ``report`` to ``path``, creating its directory if missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(report.to_json())
    return path


def validate_report(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid bench report."""
    if not isinstance(data, dict):
        raise ValueError("bench report must be a JSON object")
    if data.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(f"unknown bench schema: {data.get('schema')!r}")
    for key in ("name", "quick", "created_unix", "results"):
        if key not in data:
            raise ValueError(f"bench report missing key: {key}")
    if not isinstance(data["name"], str) or not data["name"]:
        raise ValueError("bench report name must be a non-empty string")
    if not isinstance(data["quick"], bool):
        raise ValueError("bench report quick must be a bool")
    if not isinstance(data["results"], list) or not data["results"]:
        raise ValueError("bench report results must be a non-empty list")
    for entry in data["results"]:
        if not isinstance(entry, dict):
            raise ValueError("bench result must be an object")
        missing = _RESULT_KEYS - set(entry)
        if missing:
            raise ValueError(f"bench result missing keys: {sorted(missing)}")
        if not isinstance(entry["benchmark"], str) or not entry["benchmark"]:
            raise ValueError("bench result benchmark must be a non-empty string")
        if not isinstance(entry["metric"], str) or not entry["metric"]:
            raise ValueError("bench result metric must be a non-empty string")
        for num_key in ("value", "wall_s"):
            if not isinstance(entry[num_key], (int, float)) or isinstance(
                entry[num_key], bool
            ):
                raise ValueError(f"bench result {num_key} must be a number")
            if entry[num_key] < 0:
                raise ValueError(f"bench result {num_key} must be >= 0")
        if not isinstance(entry["params"], dict):
            raise ValueError("bench result params must be an object")
