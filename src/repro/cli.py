"""Command-line interface.

Mirrors the user-facing tools of the paper's deployment:

* ``repro telemetry`` — run a job on a simulated cluster and print its
  power CSV (the flux-power-monitor client workflow).
* ``repro observe`` — run a managed workload and dump the framework's
  own observability data: metric snapshot (text/Prometheus/JSON), the
  paper-style overhead report, recent trace events, and optionally a
  ``chrome://tracing`` file (see docs/observability.md).
* ``repro policies`` — regenerate the Table IV policy comparison, list
  the registered policies (``--list``), or run the policy-zoo
  head-to-head campaign (``--compare``; see docs/policies.md).
* ``repro static-caps`` — regenerate the Table III static-cap sweep.
* ``repro queue`` — the Section IV-E job-queue campaign.
* ``repro chaos`` — the fault-injection campaign (graceful degradation).
* ``repro bench`` — time the hot paths and write a ``BENCH_<name>.json``
  perf artifact (see docs/performance.md).
* ``repro simtest`` — seeded scenario fuzzing under the runtime
  invariant checkers, with failure shrinking and seed/artifact replay
  (see docs/testing.md).
* ``repro tenants`` — multi-tenant fairness: the weighted/oversubscribed
  demo report (``--report``, optional accounting CSV export) or seeded
  tenant-forced scenario fuzzing (see docs/tenancy.md).
* ``repro federate`` — the site tier: a scripted two-cluster federation
  demo (``--demo``), or seeded *federated* scenario fuzzing under the
  site-level invariant checkers (see docs/federation.md).
* ``repro lifecycle`` — crash-recovery tooling: snapshot/restore a
  seeded run's manager state, diff artifacts, fuzz crash-at-random-tick
  restore equivalence, and lint the snapshot schema version (see
  docs/lifecycle.md).
* ``repro serve`` — boot the asyncio HTTP power-management API over a
  seeded cluster (``--smoke`` boots, checks, exits; see docs/serving.md).
* ``repro loadtest`` — run a seeded, deterministic load campaign
  against the API and write a ``BENCH_<name>.json`` artifact.
* ``repro apps`` — list the calibrated application models.

Usage::

    python -m repro.cli telemetry --app quicksilver --nodes 2
    python -m repro.cli observe --policy fpp --format prom
    python -m repro.cli policies --seed 1
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps.registry import get_profile, list_apps
from repro.cluster import PowerManagedCluster
from repro.flux.jobspec import Jobspec
from repro.manager.cluster_manager import ManagerConfig


def _cmd_telemetry(args: argparse.Namespace) -> int:
    cluster = PowerManagedCluster(
        platform=args.platform, n_nodes=args.cluster_nodes, seed=args.seed
    )
    job = cluster.submit(
        Jobspec(
            app=args.app,
            nnodes=args.nodes,
            params={"work_scale": args.work_scale},
        )
    )
    cluster.run_until_complete(timeout_s=10_000_000)
    cluster.run_for(4.0)
    data = cluster.telemetry(job.jobid)
    if args.output:
        data.write_csv(args.output)
        print(f"wrote {len(data.rows)} samples to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(data.to_csv())
    m = cluster.metrics(job.jobid)
    print(
        f"# job {job.jobid}: {m.runtime_s:.1f} s, avg {m.avg_node_power_w:.0f} W/node, "
        f"{m.avg_node_energy_kj:.1f} kJ/node, complete={data.complete}",
        file=sys.stderr,
    )
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    """Run a small managed workload and dump the observability data."""
    from repro.analysis.chrome_trace import write_chrome_trace

    cluster = PowerManagedCluster(
        platform=args.platform,
        n_nodes=args.cluster_nodes,
        seed=args.seed,
        manager_config=ManagerConfig(
            global_cap_w=1200.0 * args.cluster_nodes,
            policy=args.policy,
            static_node_cap_w=1950.0,
        ),
    )
    per_job = max(1, args.cluster_nodes // max(1, args.jobs))
    for _ in range(args.jobs):
        cluster.submit(Jobspec(app=args.app, nnodes=per_job))
    cluster.run_until_complete(timeout_s=10_000_000)

    hub = cluster.telemetry_hub
    if args.format == "prom":
        text = hub.metrics.to_prometheus()
    elif args.format == "json":
        text = hub.metrics.to_json(indent=2) + "\n"
    else:
        text = hub.metrics.render() + "\n\n" + cluster.overhead_report().render() + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote metrics to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.trace:
        print(hub.tracer.render(last=args.trace))
    if args.chrome:
        n = write_chrome_trace(args.chrome, hub.tracer)
        print(f"wrote {n} trace events to {args.chrome}", file=sys.stderr)
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.manager.policies import POLICY_FACTORIES

    if args.list:
        print(f"{'name':<14} {'class':<24} wrapped")
        for name in sorted(POLICY_FACTORIES):
            policy = POLICY_FACTORIES[name]()
            wrapped = policy.name.startswith("safe-")
            cls = (
                type(policy.inner).__name__  # type: ignore[attr-defined]
                if wrapped
                else type(policy).__name__
            )
            print(f"{name:<14} {cls:<24} {'yes' if wrapped else 'no'}")
        return 0

    if args.compare:
        from repro.experiments.table4_policies import run_policy_head_to_head

        result = run_policy_head_to_head(
            seed=args.seed,
            quick=not args.full,
            policies=args.only.split(",") if args.only else None,
        )
        text = result.to_markdown() if args.markdown else result.to_csv()
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"wrote {len(result.runs)} rows to {args.output}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0

    from repro.experiments.table4_policies import run_table4

    result = run_table4(seed=args.seed)
    for line in result.table_rows():
        print(line)
    print()
    for key, value in result.headline_claims().items():
        print(f"{key}: {value:+.2f}")
    return 0


def _cmd_static_caps(args: argparse.Namespace) -> int:
    from repro.experiments.table3_static import run_table3

    result = run_table3(seed=args.seed)
    for line in result.table_rows():
        print(line)
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from repro.experiments.queue_campaign import run_queue_campaign

    result = run_queue_campaign(seed=args.seed)
    for line in result.table_rows():
        print(line)
    print(f"makespans equal: {result.makespans_equal()}")
    print(f"FPP energy-per-node improvement: {result.fpp_energy_improvement_pct():+.2f}%")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Check every headline claim; exit nonzero on any failure."""
    from repro.experiments.validate import run_validation

    report = run_validation(seed=args.seed, queue_seed=args.queue_seed)
    print(report.render())
    return 0 if report.all_passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Run the queue campaign under one policy and print a report."""
    import numpy as np

    from repro.analysis.report import summarise_campaign
    from repro.apps.workloads import make_random_queue
    from repro.experiments.queue_campaign import QUEUE_WORK_SCALES

    jobs = make_random_queue(
        np.random.default_rng(args.seed),
        min_nodes=1,
        max_nodes=8,
        work_scales=QUEUE_WORK_SCALES,
    )
    cluster = PowerManagedCluster(
        platform="lassen",
        n_nodes=16,
        seed=args.seed,
        manager_config=ManagerConfig(
            global_cap_w=19_200.0, policy=args.policy, static_node_cap_w=1950.0
        ),
    )
    for entry in jobs:
        cluster.submit(entry.spec)
    cluster.run_until_complete(timeout_s=10_000_000)
    cluster.run_for(1.0)
    print(summarise_campaign(cluster).render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection campaign and print the degradation audit."""
    from repro.experiments.chaos_campaign import run_chaos_campaign

    result = run_chaos_campaign(seed=args.seed, n_nodes=args.nodes)
    for line in result.table_rows():
        print(line)
    return 0 if result.degraded_ok() else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf benchmark suite and write a BENCH_<name>.json artifact."""
    import os

    from repro.bench import default_suite, run_suite, validate_report, write_report

    if args.compare:
        return _bench_compare(args)
    suite = default_suite(only=args.only)
    if not suite:
        print(f"no benchmarks match --only {args.only!r}", file=sys.stderr)
        return 2
    report = run_suite(
        suite,
        name=args.name,
        quick=args.quick,
        progress=lambda msg: print(msg, file=sys.stderr),
        repeats=args.repeats,
    )
    validate_report(report.to_dict())
    for line in report.table_rows():
        print(line)
    path = os.path.join(args.out, f"BENCH_{args.name}.json")
    write_report(report, path)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _bench_compare(args: argparse.Namespace) -> int:
    """Diff two BENCH_*.json artifacts and gate on --max-regress."""
    from repro.bench import compare_report_files, parse_max_regress

    try:
        max_regress = parse_max_regress(args.max_regress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    base_path, new_path = args.compare
    try:
        result = compare_report_files(base_path, new_path, max_regress)
    except (OSError, ValueError) as exc:
        print(f"cannot compare bench artifacts: {exc}", file=sys.stderr)
        return 2
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for line in result.table_rows():
        print(line)
    print(result.summary())
    return 0 if result.ok else 1


def _digest_matches(digest: str, expected: str) -> bool:
    """True if *expected* is the full digest or a >=12-char prefix of it.

    Result summaries print a 12-char digest prefix; accepting that
    prefix back keeps ``--expect-digest`` usable straight from the
    printed output. Shorter strings must match exactly.
    """
    if digest == expected:
        return True
    return len(expected) >= 12 and digest.startswith(expected)


def _crash_fraction(text: str) -> float:
    """``--at``: a crash instant must fall inside the run, (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"{text} is not a fraction of the makespan in (0, 1]"
        )
    return value


def _print_result(result, max_violations: int) -> None:
    print(result.summary())
    if not result.ok:
        for v in result.violations[:max_violations]:
            print(f"  [{v.invariant}] t={v.t:.3f}: {v.message}")


def _run_fuzz(args: argparse.Namespace, tier, config=None) -> int:
    """The fuzz front every tier's command shares: artifact replay
    (``--replay``), one seed (``--seed``, optionally ``--expect-digest``)
    or a batch. Flags a command does not define read as unset."""
    from repro.simtest.fuzzer import run_batch
    from repro.simtest.shrink import load_reproducer

    if getattr(args, "replay", None):
        try:
            scenario = load_reproducer(args.replay, tier.scenario_cls)
        except ValueError as exc:
            print(f"cannot replay: {exc}", file=sys.stderr)
            return 2
        result = tier.run(scenario)
        _print_result(result, args.max_violations)
        return 0 if result.ok else 1

    if args.seed is not None:
        result = tier.run_seed(args.seed, config)
        _print_result(result, args.max_violations)
        expected = getattr(args, "expect_digest", None)
        if expected and not _digest_matches(result.digest, expected):
            print(
                f"digest mismatch: got {result.digest}, expected {expected}",
                file=sys.stderr,
            )
            return 2
        return 0 if result.ok else 1

    seeds = range(args.seed_start, args.seed_start + args.seeds)
    report = run_batch(
        seeds,
        config=config,
        shrink=not getattr(args, "no_shrink", False),
        artifact_dir=args.artifacts,
        progress=(
            (lambda r: print(r.summary(), file=sys.stderr))
            if args.verbose
            else None
        ),
        tier=tier,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_simtest(args: argparse.Namespace) -> int:
    """Seeded scenario fuzzing: batch runs, seed replay, artifact replay."""
    from repro.simtest.fuzzer import SINGLE_TIER

    return _run_fuzz(args, SINGLE_TIER)


def _cmd_tenants(args: argparse.Namespace) -> int:
    """Multi-tenant fairness: demo report and tenant-forced fuzzing."""
    if args.report:
        from repro.tenancy.report import run_demo

        run_demo(args.seed if args.seed is not None else 0, csv_path=args.csv)
        return 0

    from repro.simtest.fuzzer import SINGLE_TIER
    from repro.simtest.scenario import GeneratorConfig

    # Every seed carries a tenant mix (the knob rides its own substream,
    # so the rest of the scenario matches plain `repro simtest` seeds).
    return _run_fuzz(args, SINGLE_TIER, GeneratorConfig(p_tenancy=1.0))


def _cmd_federate(args: argparse.Namespace) -> int:
    """Site-tier demo campaign and federated scenario fuzzing."""
    if args.demo:
        from repro.experiments.federation_campaign import run_federation_campaign

        result = run_federation_campaign(seed=args.seed if args.seed is not None else 1)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(result.timeline_csv())
            print(f"wrote timeline to {args.output}", file=sys.stderr)
        else:
            sys.stdout.write(result.timeline_csv())
        for line in result.table_rows():
            print(line, file=sys.stderr)
        return 0

    from repro.simtest.federation import FEDERATED_TIER

    return _run_fuzz(args, FEDERATED_TIER)


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    """Crash-recovery tooling: snapshot, restore, diff, fuzz, lint."""
    from repro.lifecycle.recovery import (
        RECOVERY_TIER,
        crash_restore_setup,
        run_with_recovery,
    )
    from repro.lifecycle.snapshot import (
        SnapshotError,
        diff_snapshots,
        load_snapshot,
        save_snapshot,
        schema_lint,
    )
    from repro.simtest import generate_scenario, run_batch, run_scenario
    from repro.simtest.scenario import GeneratorConfig, Scenario

    if args.schema_lint:
        problems = schema_lint()
        for problem in problems:
            print(problem, file=sys.stderr)
        print("schema lint: " + ("FAIL" if problems else "OK"))
        return 1 if problems else 0

    if args.diff:
        snaps = []
        for path in args.diff:
            try:
                snaps.append(load_snapshot(path))
            except SnapshotError as exc:
                print(f"cannot diff: {path}: {exc}", file=sys.stderr)
                return 2
        diffs = diff_snapshots(*snaps)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} difference(s)")
        return 1 if diffs else 0

    if args.restore:
        def _refuse(reason) -> int:
            print(f"cannot restore: {args.restore}: {reason}", file=sys.stderr)
            return 2

        # Validate everything before the base run, so a bad artifact
        # costs no simulation and never fails inside a sim callback.
        try:
            snap = load_snapshot(args.restore, kind="cluster")
        except SnapshotError as exc:
            return _refuse(exc)
        if not snap.get("scenario"):
            return _refuse("embeds no scenario; cannot rebuild the run")
        try:
            scenario = Scenario.from_dict(snap["scenario"])
            crash_t = float(snap["t"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return _refuse(f"malformed scenario or time: {exc!r}")
        base = run_scenario(scenario)
        taken: list = []
        try:
            recovered = run_scenario(
                scenario,
                setup=crash_restore_setup(crash_t, artifact=snap, taken=taken),
            )
        except SnapshotError as exc:  # e.g. a policy the scenario does not deploy
            return _refuse(exc)
        if not taken:
            return _refuse(f"t={crash_t} is past the end of the run")
        match = base.digest == recovered.digest
        print(f"base      {base.digest}")
        print(f"recovered {recovered.digest}")
        print("restore equivalence: " + ("OK" if match else "FAIL"))
        return 0 if match and recovered.ok else 1

    if args.fuzz:
        seeds = range(args.seed_start, args.seed_start + args.fuzz)
        report = run_batch(
            seeds,
            shrink=False,
            progress=(
                (lambda r: print(r.summary(), file=sys.stderr))
                if args.verbose
                else None
            ),
            tier=RECOVERY_TIER,
        )
        print(report.summary())
        return 0 if report.ok else 1

    # --check (the default) and --snapshot: one seeded crash → wipe →
    # restore → continue run of the verify stage's reference workload, a
    # generated scenario at a fixed topology (jobs/faults vary with the
    # seed).
    scenario = generate_scenario(
        args.seed, GeneratorConfig(min_nodes=args.nodes, max_nodes=args.nodes)
    )
    taken = []
    result = run_with_recovery(scenario, args.at, taken=taken)
    if args.snapshot and taken:
        save_snapshot(taken[0], args.snapshot)
        print(
            f"wrote {args.snapshot}: {scenario.describe()} at t={taken[0]['t']}",
            file=sys.stderr,
        )
    _print_result(result, max_violations=5)
    return 0 if result.ok else 1


def _build_serving(args: argparse.Namespace):
    """One seeded cluster wrapped in a registry + service + driver."""
    from repro.serving import ClusterRegistry, PowerService, SimDriver

    manager_config = None
    if args.policy != "none":
        budget = args.budget
        if budget is None:
            budget = 1250.0 * args.nodes
        manager_config = ManagerConfig(
            global_cap_w=budget,
            policy=args.policy,
            static_node_cap_w=1950.0 if args.platform == "lassen" else None,
        )
    cluster = PowerManagedCluster(
        platform=args.platform,
        n_nodes=args.nodes,
        seed=args.seed,
        manager_config=manager_config,
    )
    registry = ClusterRegistry.from_cluster(cluster, name="default")
    return PowerService(registry), SimDriver(registry)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the asyncio HTTP service over a seeded cluster."""
    import asyncio

    from repro.serving import AsyncApiClient, ServingServer

    service, driver = _build_serving(args)
    server = ServingServer(
        service,
        driver,
        host=args.host,
        port=args.port,
        advance_interval_s=(
            args.advance_interval if args.advance_interval > 0 else None
        ),
        advance_dt_s=args.advance_dt,
    )

    async def _serve() -> int:
        await server.start()
        print(
            f"serving {args.platform}x{args.nodes} (seed {args.seed}) on "
            f"http://{server.host}:{server.port}",
            file=sys.stderr,
        )
        if args.smoke:
            checks = [
                ("GET", "/v1/health", None, None),
                ("GET", "/v1/clusters", None, None),
                ("POST", "/v1/clusters/default/jobs", None,
                 {"app": "gemm", "nnodes": 1}),
                ("GET", "/v1/clusters/default/power", None, None),
                ("GET", "/v1/clusters/default/jobs",
                 {"limit": "10", "response_format": "detailed"}, None),
                ("GET", "/v1/clusters/default/queue", None, None),
            ]
            client = AsyncApiClient(server.host, server.port)
            failures = 0
            for method, path, params, body in checks:
                status, _ = await client.request(method, path, params, body)
                ok = status < 400
                failures += 0 if ok else 1
                print(f"{'ok ' if ok else 'ERR'} {status} {method} {path}")
            await client.close()
            await server.stop()
            print(f"smoke: {len(checks) - failures}/{len(checks)} checks passed")
            return 1 if failures else 0
        try:
            await server.serve_forever()
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Run a seeded load campaign and write a BENCH_<name>.json artifact."""
    import asyncio
    import os

    from repro.bench import validate_report, write_report
    from repro.serving import (
        LoadProfile,
        ServingServer,
        arun_loadtest_http,
        generate_trace,
        run_loadtest,
        trace_lines,
    )

    profile = LoadProfile(
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        warmup_jobs=args.warmup_jobs,
        advance_every=args.advance_every,
        advance_dt_s=args.advance_dt,
    )
    service, driver = _build_serving(args)
    trace = generate_trace(args.seed, profile, n_nodes=args.nodes)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(trace_lines(trace)) + "\n")
        print(f"wrote request trace to {args.trace}", file=sys.stderr)

    if args.http:
        async def _run():
            server = ServingServer(service, driver, port=0)
            await server.start()
            try:
                return await arun_loadtest_http(
                    args.seed, profile, server.host, server.port,
                    trace=trace, n_nodes=args.nodes,
                )
            finally:
                await server.stop()

        result = asyncio.run(_run())
    else:
        result = run_loadtest(args.seed, profile, service, driver, trace=trace)

    print(result.summary())
    print(f"trace_sha256={result.trace_sha256}")
    print(f"response_digest={result.response_digest}")
    report = result.to_report(name=args.name, quick=args.quick)
    validate_report(report.to_dict())
    path = os.path.join(args.out, f"BENCH_{args.name}.json")
    write_report(report, path)
    print(f"wrote {path}", file=sys.stderr)

    if result.errors:
        print(f"FAIL: {result.errors} request(s) errored", file=sys.stderr)
        return 1
    if args.p99_max is not None and result.p99_ms > args.p99_max:
        print(
            f"FAIL: p99 {result.p99_ms:.2f} ms exceeds bound "
            f"{args.p99_max:.2f} ms",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_apps(_args: argparse.Namespace) -> int:
    print(f"{'app':<12} {'scaling':<7} {'launcher':<8} {'base s':>7}  inputs")
    for name in list_apps():
        p = get_profile(name)
        print(
            f"{p.name:<12} {p.scaling:<7} {p.launcher:<8} "
            f"{p.base_runtime_s:>7.1f}  {p.inputs}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vendor-neutral job power management (SC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("telemetry", help="run a job and print its power CSV")
    t.add_argument("--app", default="quicksilver", choices=list_apps())
    t.add_argument("--nodes", type=int, default=2)
    t.add_argument("--cluster-nodes", type=int, default=4)
    t.add_argument("--platform", default="lassen",
                   choices=("lassen", "tioga", "generic"))
    t.add_argument("--work-scale", type=float, default=5.0)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--output", "-o", help="CSV output path (default: stdout)")
    t.set_defaults(func=_cmd_telemetry)

    o = sub.add_parser(
        "observe", help="run a managed workload and dump framework telemetry"
    )
    o.add_argument("--app", default="gemm", choices=list_apps())
    o.add_argument("--jobs", type=int, default=2, help="number of jobs to submit")
    o.add_argument("--cluster-nodes", type=int, default=8)
    o.add_argument("--platform", default="lassen",
                   choices=("lassen", "tioga", "generic"))
    o.add_argument(
        "--policy", default="fpp",
        choices=("static", "proportional", "fpp", "fpp-socket"),
    )
    o.add_argument("--seed", type=int, default=0)
    o.add_argument(
        "--format", default="text", choices=("text", "prom", "json"),
        help="metric snapshot format (default: human-readable text)",
    )
    o.add_argument("--output", "-o", help="metrics output path (default: stdout)")
    o.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="also print the last N trace events",
    )
    o.add_argument("--chrome", metavar="PATH",
                   help="write a chrome://tracing JSON file")
    o.set_defaults(func=_cmd_observe)

    p = sub.add_parser(
        "policies",
        help="Table IV comparison, policy listing, or the zoo head-to-head",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--list", action="store_true",
        help="list registered policies (name, class, safety-wrapped?)",
    )
    p.add_argument(
        "--compare", action="store_true",
        help="run the head-to-head campaign: every registered policy on "
        "the same seeded workload (quick mode unless --full)",
    )
    p.add_argument(
        "--full", action="store_true",
        help="with --compare: Table IV problem sizes instead of quick mode",
    )
    p.add_argument(
        "--only", default="",
        help="with --compare: comma-separated subset of policies to run",
    )
    p.add_argument(
        "--markdown", action="store_true",
        help="with --compare: emit a markdown table instead of CSV",
    )
    p.add_argument(
        "--output", "-o",
        help="with --compare: write the table here (default: stdout)",
    )
    p.set_defaults(func=_cmd_policies)

    s = sub.add_parser("static-caps", help="regenerate the Table III sweep")
    s.add_argument("--seed", type=int, default=1)
    s.set_defaults(func=_cmd_static_caps)

    q = sub.add_parser("queue", help="run the Section IV-E queue campaign")
    q.add_argument("--seed", type=int, default=10)
    q.set_defaults(func=_cmd_queue)

    v = sub.add_parser("validate", help="check every headline claim (PASS/FAIL)")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--queue-seed", type=int, default=10)
    v.set_defaults(func=_cmd_validate)

    r = sub.add_parser("report", help="run a queue campaign and print a report")
    r.add_argument("--seed", type=int, default=10)
    r.add_argument(
        "--policy", default="proportional",
        choices=("static", "proportional", "fpp", "fpp-socket"),
    )
    r.set_defaults(func=_cmd_report)

    c = sub.add_parser(
        "chaos", help="run the fault-injection campaign (degradation audit)"
    )
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--nodes", type=int, default=8)
    c.set_defaults(func=_cmd_chaos)

    b = sub.add_parser(
        "bench", help="run the perf suite and write a BENCH_<name>.json artifact"
    )
    b.add_argument("--name", default="local", help="artifact name (BENCH_<name>.json)")
    b.add_argument("--out", default=".", help="output directory (default: cwd)")
    b.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for smoke testing (marks the artifact quick=true)",
    )
    b.add_argument(
        "--only", default="",
        help="run only benchmarks whose name contains this substring",
    )
    b.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="run each benchmark N times and keep the fastest run "
        "(best-of-N; use the same N when comparing against a baseline)",
    )
    b.add_argument(
        "--compare", nargs=2, metavar=("BASE", "NEW"), default=None,
        help="compare two BENCH_*.json artifacts instead of running the "
        "suite; exits 1 if NEW regresses past --max-regress vs BASE",
    )
    b.add_argument(
        "--max-regress", default="10%", metavar="FRAC",
        help="allowed fractional regression for --compare, e.g. 10%% or "
        "0.1 (default: 10%%)",
    )
    b.set_defaults(func=_cmd_bench)

    st = sub.add_parser(
        "simtest",
        help="fuzz random scenarios under the invariant checkers",
    )
    st.add_argument(
        "--seeds", type=int, default=25,
        help="number of scenarios to fuzz (default: 25)",
    )
    st.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed of the batch (default: 0)",
    )
    st.add_argument(
        "--seed", type=int, default=None,
        help="replay a single seed instead of running a batch",
    )
    st.add_argument(
        "--expect-digest", default=None, metavar="SHA256",
        help="with --seed: exit 2 unless the run digest matches "
        "(full sha256 or the printed >=12-char prefix)",
    )
    st.add_argument(
        "--replay", metavar="PATH",
        help="replay a shrunk reproducer artifact (JSON)",
    )
    st.add_argument(
        "--artifacts", metavar="DIR",
        help="directory for shrunk reproducer artifacts (batch mode)",
    )
    st.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without shrinking them",
    )
    st.add_argument(
        "--max-violations", type=int, default=5,
        help="violations to print per failing scenario (default: 5)",
    )
    st.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each scenario result as it completes",
    )
    st.set_defaults(func=_cmd_simtest)

    tn = sub.add_parser(
        "tenants",
        help="multi-tenant fairness: demo report or tenant-forced fuzzing",
    )
    tn.add_argument(
        "--report", action="store_true",
        help="run the weighted/oversubscribed demo and print its report",
    )
    tn.add_argument(
        "--csv", metavar="PATH",
        help="with --report: also write the accounting CSV export",
    )
    tn.add_argument(
        "--seeds", type=int, default=25,
        help="number of tenant-mix scenarios to fuzz (default: 25)",
    )
    tn.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed of the batch (default: 0)",
    )
    tn.add_argument(
        "--seed", type=int, default=None,
        help="replay a single tenant-forced seed (or pick the --report seed)",
    )
    tn.add_argument(
        "--artifacts", metavar="DIR",
        help="directory for shrunk reproducer artifacts (batch mode)",
    )
    tn.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without shrinking them",
    )
    tn.add_argument(
        "--max-violations", type=int, default=5,
        help="violations to print per failing scenario (default: 5)",
    )
    tn.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each scenario result as it completes",
    )
    tn.set_defaults(func=_cmd_tenants)

    f = sub.add_parser(
        "federate",
        help="site-tier federation: demo campaign or federated fuzzing",
    )
    f.add_argument(
        "--demo", action="store_true",
        help="run the scripted two-cluster campaign and print its timeline CSV",
    )
    f.add_argument(
        "--output", "-o",
        help="with --demo: timeline CSV output path (default: stdout)",
    )
    f.add_argument(
        "--seeds", type=int, default=25,
        help="number of federated scenarios to fuzz (default: 25)",
    )
    f.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed of the batch (default: 0)",
    )
    f.add_argument(
        "--seed", type=int, default=None,
        help="replay a single federated seed (or pick the --demo seed)",
    )
    f.add_argument(
        "--expect-digest", default=None, metavar="SHA256",
        help="with --seed: exit 2 unless the run digest matches "
        "(full sha256 or the printed >=12-char prefix)",
    )
    f.add_argument(
        "--replay", metavar="PATH",
        help="replay a federated reproducer artifact (JSON)",
    )
    f.add_argument(
        "--artifacts", metavar="DIR",
        help="directory for reproducer artifacts (batch mode)",
    )
    f.add_argument(
        "--max-violations", type=int, default=5,
        help="violations to print per failing scenario (default: 5)",
    )
    f.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each scenario result as it completes",
    )
    f.set_defaults(func=_cmd_federate)

    lc = sub.add_parser(
        "lifecycle",
        help="crash-recovery: snapshot/restore/diff artifacts, fuzz "
        "restore equivalence, lint the snapshot schema",
    )
    lc.add_argument(
        "--seed", type=int, default=1,
        help="scenario seed for --check/--snapshot (default: 1)",
    )
    lc.add_argument(
        "--nodes", type=int, default=16,
        help="pinned cluster size for --check/--snapshot (default: 16)",
    )
    lc.add_argument(
        "--at", type=_crash_fraction, default=0.5, metavar="FRACTION",
        help="crash instant as a fraction of the uninterrupted makespan, "
        "in (0, 1] (default: 0.5)",
    )
    lc.add_argument(
        "--snapshot", metavar="PATH",
        help="run the seeded scenario and write its mid-run artifact",
    )
    lc.add_argument(
        "--restore", metavar="PATH",
        help="replay an artifact's run, wipe+restore at its instant, and "
        "verify digest equivalence",
    )
    lc.add_argument(
        "--diff", nargs=2, metavar=("A", "B"),
        help="print dotted-path differences between two artifacts",
    )
    lc.add_argument(
        "--fuzz", type=int, default=None, metavar="N",
        help="crash-restore equivalence over N generated scenarios",
    )
    lc.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed of a --fuzz batch (default: 0)",
    )
    lc.add_argument(
        "--schema-lint", action="store_true",
        help="verify SCHEMA_FIELDS changes came with a version bump",
    )
    lc.add_argument(
        "--verbose", "-v", action="store_true",
        help="print each fuzz result as it completes",
    )
    lc.set_defaults(func=_cmd_lifecycle)

    def _serving_cluster_args(sp) -> None:
        sp.add_argument("--nodes", type=int, default=16,
                        help="cluster size (default 16)")
        sp.add_argument("--platform", default="lassen",
                        choices=("lassen", "tioga", "generic"))
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--policy", default="proportional",
                        help="manager policy, or 'none' for telemetry-only")
        sp.add_argument("--budget", type=float, default=None,
                        help="cluster power budget W (default 1250*nodes)")

    sv = sub.add_parser(
        "serve",
        help="boot the asyncio HTTP power-management API over a seeded cluster",
    )
    _serving_cluster_args(sv)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8642,
                    help="TCP port (0 picks a free one)")
    sv.add_argument("--advance-interval", type=float, default=2.0,
                    help="wall seconds between engine advances (0 freezes time)")
    sv.add_argument("--advance-dt", type=float, default=2.0,
                    help="simulated seconds per engine advance")
    sv.add_argument("--smoke", action="store_true",
                    help="boot, run a request checklist over HTTP, exit")
    sv.set_defaults(func=_cmd_serve)

    lt = sub.add_parser(
        "loadtest",
        help="run a seeded load campaign and write BENCH_<name>.json",
    )
    _serving_cluster_args(lt)
    lt.add_argument("--clients", type=int, default=100,
                    help="concurrent simulated clients (default 100)")
    lt.add_argument("--requests-per-client", type=int, default=4)
    lt.add_argument("--warmup-jobs", type=int, default=4)
    lt.add_argument("--advance-every", type=int, default=50,
                    help="advance the engine after every N requests (0 never)")
    lt.add_argument("--advance-dt", type=float, default=1.0,
                    help="simulated seconds per engine advance")
    lt.add_argument("--http", action="store_true",
                    help="drive a real asyncio HTTP server instead of in-proc")
    lt.add_argument("--name", default="serving",
                    help="artifact name (BENCH_<name>.json)")
    lt.add_argument("--out", default=".", help="artifact directory")
    lt.add_argument("--quick", action="store_true",
                    help="mark the artifact as a quick (small-size) run")
    lt.add_argument("--p99-max", type=float, default=None,
                    help="fail (exit 1) when p99 latency exceeds this many ms")
    lt.add_argument("--trace", default=None,
                    help="also write the generated request trace (JSONL)")
    lt.set_defaults(func=_cmd_loadtest)

    a = sub.add_parser("apps", help="list calibrated application models")
    a.set_defaults(func=_cmd_apps)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
