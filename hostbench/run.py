"""Host-time benchmark of the power-management stack.

Run from the repository root::

    python3 hostbench/run.py --workload telemetry_10k --seed 0 --seconds 10 --trace 0
    python3 hostbench/run.py --workload all      # every workload, both modes

One invocation runs one workload in this process. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the workload once untraced
and once with spans at every layer boundary, and prints the per-layer
metrics and the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (metrics, outcome, host-noise diagnostics) is
written under ``.hostbench/`` in the repository root. See
``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: The workloads, in the order ``--workload all`` runs them.
NAMES = ("telemetry_10k", "fpp_site", "serve_tenants")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".hostbench"

#: End-to-end metric -> unit, printed with --trace 0 (see README).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "node_sim_s_per_s": "node_s/s",
    "op_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

#: Telemetry-hub counter families the traced run reads, by metric name.
COUNTERS = {
    "flux.rpc_requests": "flux_rpc_requests_total",
    "flux.messages": "flux_messages_delivered_total",
    "flux.tbon_hops": "tbon_hops_total",
    "monitor.queries": "monitor_queries_total",
    "monitor.samples": "monitor_samples_total",
    "manager.fft_runs": "fpp_fft_runs_total",
    "manager.share_recomputes": "manager_share_recomputes_total",
    "federation.rebalances": "federation_rebalances_total",
    "tenancy.admission_decisions": "tenant_admission_decisions_total",
    "tenancy.accounting_ticks": "tenant_accounting_ticks_total",
    "serving.snapshot_refreshes": "serving_snapshot_refreshes_total",
    # Read for the ratio below, not printed on their own.
    "fpp_cap_changes": "fpp_cap_changes_total",
    "fpp_control_ticks": "fpp_control_ticks_total",
}

#: Per-layer metric -> unit, in report order (--trace 1).
PER_LAYER = {
    "simkernel.events": "count",
    "flux.build_s": "s",
    "flux.rpc_requests": "count",
    "flux.messages": "count",
    "flux.tbon_hops": "count",
    "flux.rpc_self_s": "s",
    "monitor.attach_s": "s",
    "monitor.queries": "count",
    "monitor.samples": "count",
    "monitor.sample_self_s": "s",
    "columnar.range_calls": "count",
    "columnar.range_self_s": "s",
    "hardware.power_eval_calls": "count",
    "hardware.power_eval_self_s": "s",
    "variorum.sample_self_s": "s",
    "manager.fpp_sample_calls": "count",
    "manager.fpp_sample_self_s": "s",
    "manager.fft_runs": "count",
    "manager.fft_self_s": "s",
    "manager.fpp_cap_change_ratio": "ratio",
    "manager.share_recomputes": "count",
    "federation.rebalances": "count",
    "federation.split_self_s": "s",
    "tenancy.admission_decisions": "count",
    "tenancy.submit_self_s": "s",
    "tenancy.accounting_ticks": "count",
    "tenancy.split_self_s": "s",
    "serving.handle_self_s": "s",
    "serving.transport_s": "s",
    "serving.snapshot_refreshes": "count",
    "serving.snapshot_hit_ratio": "ratio",
    "serving.advance_s": "s",
    "serving.read_p50_ms": "ms",
    "serving.submit_p50_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def _import_program():
    """Put the repository's ``src`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(
            f"hostbench: cannot import the repro package from {src} "
            f"({exc}); run from a checkout of the repository"
        )
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(
            f"hostbench: imported repro from {repro.__file__}, not from {src}"
        )
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters_of(sim) -> Dict[str, float]:
    """Totals of the hub counter families in :data:`COUNTERS`."""
    from repro.telemetry import telemetry_of

    metrics = telemetry_of(sim).metrics
    metrics.flush()
    return {
        name: sum(s.value for s in metrics.series_for(family))
        for name, family in COUNTERS.items()
    }


def load_expected() -> Dict[str, Any]:
    """Recorded outcomes: workload -> seed -> events, digest, counters."""
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, reps: int) -> Tuple[list, List[float], list]:
    """``reps`` rounds of: set up, run the window, read its outcome, tear
    down. Returns the windows, the set-up times and per-round diagnostics.
    """
    from diagnostics import GcMonitor, probe_s

    wins, setups, diags = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        world = workload.setup()
        gc.collect()
        setups.append(time.perf_counter() - t0)
        diag: Dict[str, Any] = {"probe_before_s": probe_s()}
        with GcMonitor() as gcm:
            win = workload.run(world)
        diag["probe_after_s"] = probe_s()
        diag["gc_window"] = gcm.to_dict()
        win.outcome = {
            "events": win.events,
            "digest": win.digest,
            "counters": counters_of(workload.sim_of(world)),
        }
        workload.teardown(world)
        world = None
        gc.collect()
        wins.append(win)
        diags.append(diag)
    return wins, setups, diags


def window_figures(win) -> Dict[str, float]:
    """One window's rates and latency percentiles (p95/p99 for the record)."""
    ops = sorted(win.op_s)
    figures = {
        "node_sim_s_per_s": win.node_sim_s / win.window_s,
        "op_per_s": len(ops) / win.window_s,
    }
    for q in (50, 90, 95, 99):
        figures[f"op_p{q}_ms"] = percentile(ops, q) * 1e3
    return figures


def end_to_end(figures: List[Dict[str, float]], setups: List[float]) -> Dict[str, float]:
    """Medians over the run's windows and over its set-ups.

    A window spans roughly one phase of the host's speed swings, so the
    median window discards a window that caught a slow phase or a
    stall, where a pooled figure would carry it.
    """
    out = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    for name in ("node_sim_s_per_s", "op_per_s", "op_p50_ms", "op_p90_ms"):
        out[name] = statistics.median(f[name] for f in figures)
    return out


def per_layer(win, base_win, counters, spans, setup_spans) -> Dict[str, float]:
    """The per-layer table from one traced window (see README)."""

    def self_s(name: str) -> float:
        return spans[name]["self_s"] if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def total_s(name: str) -> float:
        return spans[name]["total_s"] if name in spans else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Client latencies by kind come from the untraced window.
    kinds = base_win.op_kinds
    reads = sorted(t for t, k in zip(base_win.op_s, kinds) if k != "submit_job")
    writes = sorted(t for t, k in zip(base_win.op_s, kinds) if k == "submit_job")
    gets = calls("serving.snapshot_get")
    out = {
        "simkernel.events": win.events,
        "flux.build_s": setup_spans.get("flux.build", {}).get("total_s", 0.0),
        "flux.rpc_requests": counters["flux.rpc_requests"],
        "flux.messages": counters["flux.messages"],
        "flux.tbon_hops": counters["flux.tbon_hops"],
        "flux.rpc_self_s": self_s("flux.rpc"),
        "monitor.attach_s": setup_spans.get("monitor.attach", {}).get("total_s", 0.0),
        "monitor.queries": counters["monitor.queries"],
        "monitor.samples": counters["monitor.samples"],
        "monitor.sample_self_s": self_s("monitor.sample"),
        "columnar.range_calls": calls("columnar.range"),
        "columnar.range_self_s": self_s("columnar.range"),
        "hardware.power_eval_calls": calls("hardware.power_eval"),
        "hardware.power_eval_self_s": self_s("hardware.power_eval"),
        "variorum.sample_self_s": self_s("variorum.sample"),
        "manager.fpp_sample_calls": calls("manager.fpp_sample"),
        "manager.fpp_sample_self_s": self_s("manager.fpp_sample"),
        "manager.fft_runs": counters["manager.fft_runs"],
        "manager.fft_self_s": self_s("manager.fft"),
        "manager.fpp_cap_change_ratio": ratio(
            counters["fpp_cap_changes"], counters["fpp_control_ticks"]
        ),
        "manager.share_recomputes": counters["manager.share_recomputes"],
        "federation.rebalances": counters["federation.rebalances"],
        "federation.split_self_s": self_s("federation.split"),
        "tenancy.admission_decisions": counters["tenancy.admission_decisions"],
        "tenancy.submit_self_s": self_s("tenancy.submit"),
        "tenancy.accounting_ticks": counters["tenancy.accounting_ticks"],
        "tenancy.split_self_s": self_s("tenancy.split"),
        "serving.handle_self_s": self_s("serving.handle"),
        "serving.transport_s": (
            sum(win.op_s) - total_s("serving.handle") if kinds else 0.0
        ),
        "serving.snapshot_refreshes": counters["serving.snapshot_refreshes"],
        "serving.snapshot_hit_ratio": ratio(
            gets - counters["serving.snapshot_refreshes"], gets
        ),
        "serving.advance_s": total_s("serving.advance"),
        "serving.read_p50_ms": percentile(reads, 50) * 1e3 if reads else 0.0,
        "serving.submit_p50_ms": percentile(writes, 50) * 1e3 if writes else 0.0,
        "trace.spans": sum(row["calls"] for row in spans.values()),
        "trace.overhead_frac": win.window_s / base_win.window_s - 1.0,
    }
    return out


def run_one(args) -> int:
    workloads = _import_program()
    from tracing import SpanRecorder

    cls = workloads.WORKLOADS[args.workload]
    ratio = args.seconds / workloads.REFERENCE_SECONDS
    # Up to the reference length the work shrinks with --seconds; past
    # it, whole reference windows repeat on freshly built systems.
    scale = min(1.0, ratio)
    reps = max(1, round(ratio))
    workload = cls(args.seed, scale)
    expected = None
    if scale == 1.0:
        expected = load_expected().get(args.workload, {}).get(str(args.seed))
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "gc_thresholds": gc.get_threshold(),
    }

    if not args.trace:
        wins, setups, diags = measure(workload, reps)
        metrics = end_to_end([window_figures(w) for w in wins], setups)
        units = END_TO_END
        record["setup_runs_s"] = setups
    else:
        # Untraced pass first: the baseline for the overhead figure and
        # the source of the client-latency split.
        base_wins, _, diags = measure(workload, 1)
        recorder = SpanRecorder()
        recorder.install()
        try:
            wins, _, traced_diags = measure(workload, 1)
        finally:
            recorder.uninstall()
        diags += traced_diags
        base, win = base_wins[0], wins[0]
        lo = _first_span_at(recorder, win.t_start)
        hi = _first_span_at(recorder, win.t_start + win.window_s)
        metrics = per_layer(
            win, base, win.outcome["counters"],
            recorder.summary(lo, hi), recorder.summary(0, lo),
        )
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"))
        print_layer_table(args.workload, metrics)
        wins = base_wins + wins

    # Every window of a run rebuilds the same seeded system, so every
    # simulated outcome must agree (tracing included: it only observes),
    # and must match the recorded one where the seed has a record.
    first = wins[0]
    for win in wins:
        if win.outcome != first.outcome:
            win.fail("simulated outcome differs between windows of one run")
        if expected is not None:
            for key, want in expected.items():
                if win.outcome[key] != want:
                    win.fail(f"{key} is {win.outcome[key]!r}, recorded {want!r}")
    attempted = sum(win.attempted for win in wins)
    failed = sum(win.failed for win in wins)
    problems = [p for win in wins for p in win.problems]
    record.update(
        metrics=metrics, outcome=first.outcome, attempted=attempted,
        failed=failed, problems=problems, diagnostics=diags,
        window_s=[win.window_s for win in wins],
        window_figures=[window_figures(win) for win in wins],
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in problems[:10]:
        print(f"hostbench: {args.workload}: {problem}", file=sys.stderr)
    print(
        f"hostbench: {args.workload} seed={args.seed} attempted={attempted} "
        f"failed={failed} failed_frac={failed / attempted:.6f} "
        f"events={first.events} digest={first.digest[:16]} "
        f"window_s={[round(w.window_s, 3) for w in wins]} "
        f"probe_ms={[round(1e3 * min(d['probe_before_s'] + d['probe_after_s']), 1) for d in diags]} "
        f"gc2_pause_s={[round(d['gc_window']['pause_s'][2], 3) for d in diags]}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def _first_span_at(recorder, t: float) -> int:
    """Index of the first span that started at or after ``t``."""
    for i, span in enumerate(recorder.spans):
        if span[1] >= t:
            return i
    return len(recorder.spans)


def print_layer_table(workload: str, metrics: Dict[str, float]) -> None:
    print(f"per-layer metrics, {workload} (traced run)")
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {text:>14} {unit}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(
                f"{name} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
