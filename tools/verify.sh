#!/usr/bin/env bash
# Pre-merge verification flow (see docs/testing.md).
#
# Stages, each independently runnable via STAGES="..." (space-separated):
#   tier1    - the full test suite, fail-fast, then the sample-ring
#              microbenchmarks (benchmarks/test_monitor_buffer.py) with
#              timing disabled, so their assertions run on every commit,
#              then a collect-only pass over benchmarks/ (the caller lint
#              counts benchmarks as callers, so each must stay importable)
#   shuffle  - the same suite in a seeded shuffled order (state-leak canary)
#   cov      - tier-1 under pytest-cov with a fail-under gate; skipped with a
#              notice when pytest-cov is not importable (it is an optional
#              dev dependency, not baked into the container image)
#   simtest  - a seeded scenario-fuzzing smoke batch (25 seeds), then one
#              seed replayed against its literal digest pin
#   federate - a federated (site-tier) scenario-fuzzing smoke batch (10
#              seeds), then one outage seed against its literal digest pin
#   policies - the quick policy head-to-head, byte-diffed against the
#              committed fixture tests/golden/policy_head_to_head.csv
#   lifecycle - snapshot schema-version lint + a seeded 16-node
#              crash→snapshot→restore→digest-equivalence check + a
#              10-seed crash-recovery fuzz (ring restores included)
#   serve    - serving-tier gate: boot a 16-node cluster behind the API
#              (`repro serve --smoke`), then a seeded 100-client
#              loadtest that must finish with zero errors and p99
#              under a latency bound (see docs/serving.md)
#   tenancy  - multi-tenant gate: the fairshare property + model suites,
#              then a forced-tenancy fuzz batch under the tenant
#              invariant checkers (see docs/tenancy.md)
#   hostbench - one untraced run of every host-time benchmark workload
#              at seed 0, plus telemetry_10k, fpp_site and serve_tenants
#              (the manager's weighted job split) at the held-out seed
#              4242; each must report "correct": true on its last stdout
#              line (the runner exits 0 even on an incorrect run), which
#              pins the site digest, events and counters to
#              hostbench/expected.json
#   bench    - quick perf suite compared against the committed
#              BENCH_columnar.json baseline; OFF by default (set
#              REPRO_BENCH_GATE=1) so the flow stays fast
#
# Knobs (environment):
#   REPRO_COV_MIN         coverage fail-under percentage   (default 80)
#   REPRO_SHUFFLE_SEED    shuffle seed                     (default 1)
#   REPRO_SIMTEST_SEEDS   smoke-batch size                 (default 25)
#   REPRO_FEDERATE_SEEDS  federated smoke-batch size       (default 10)
#   REPRO_LIFECYCLE_SEED  lifecycle check scenario seed    (default 1)
#   REPRO_SERVE_SEED      loadtest trace seed              (default 1)
#   REPRO_SERVE_CLIENTS   loadtest client count            (default 100)
#   REPRO_TENANCY_SEEDS   tenant-mix fuzz-batch size       (default 100)
#   REPRO_SERVE_P99_MS    loadtest p99 latency bound, ms   (default 250;
#              generous — the gate is about catastrophic handler
#              regressions, not micro-benchmarking shared CI hosts)
#   REPRO_BENCH_GATE      run the bench stage when set to 1 (default off)
#   REPRO_BENCH_BASELINE  baseline artifact  (default BENCH_columnar_quick.json:
#                         quick-vs-quick is the only apples-to-apples compare —
#                         sweep throughput is size-dependent, build overhead
#                         dominates at smoke sizes)
#   REPRO_BENCH_MAX_REGRESS  throughput regression tolerance (default 50%;
#              generous on purpose — the quick sizes are smaller than the
#              committed full-size baseline and the machine differs, and
#              duration metrics are auto-skipped on a quick-flag mismatch)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

STAGES="${STAGES:-tier1 shuffle cov simtest federate policies lifecycle serve tenancy hostbench bench}"
REPRO_COV_MIN="${REPRO_COV_MIN:-80}"
REPRO_SHUFFLE_SEED="${REPRO_SHUFFLE_SEED:-1}"
REPRO_SIMTEST_SEEDS="${REPRO_SIMTEST_SEEDS:-25}"
REPRO_FEDERATE_SEEDS="${REPRO_FEDERATE_SEEDS:-10}"
REPRO_LIFECYCLE_SEED="${REPRO_LIFECYCLE_SEED:-1}"
REPRO_SERVE_SEED="${REPRO_SERVE_SEED:-1}"
REPRO_SERVE_CLIENTS="${REPRO_SERVE_CLIENTS:-100}"
REPRO_SERVE_P99_MS="${REPRO_SERVE_P99_MS:-250}"
REPRO_TENANCY_SEEDS="${REPRO_TENANCY_SEEDS:-100}"
REPRO_BENCH_GATE="${REPRO_BENCH_GATE:-0}"
REPRO_BENCH_BASELINE="${REPRO_BENCH_BASELINE:-BENCH_columnar_quick.json}"
REPRO_BENCH_MAX_REGRESS="${REPRO_BENCH_MAX_REGRESS:-50%}"

banner() { printf '\n==> %s\n' "$*"; }

for stage in $STAGES; do
    case "$stage" in
        tier1)
            banner "tier-1: full suite"
            python -m pytest -x -q
            banner "tier-1: ring microbenchmarks (timing disabled)"
            python -m pytest -q benchmarks/test_monitor_buffer.py --benchmark-disable
            banner "tier-1: every benchmark module imports"
            python -m pytest --collect-only -q benchmarks
            ;;
        shuffle)
            banner "shuffled order (seed $REPRO_SHUFFLE_SEED): state-leak canary"
            REPRO_TEST_SHUFFLE="$REPRO_SHUFFLE_SEED" python -m pytest -x -q
            ;;
        cov)
            if python -c 'import pytest_cov' 2>/dev/null; then
                banner "coverage gate: fail under ${REPRO_COV_MIN}%"
                python -m pytest -x -q \
                    --cov=repro --cov-report=term-missing:skip-covered \
                    --cov-fail-under="$REPRO_COV_MIN"
            else
                banner "coverage gate: SKIPPED (pytest-cov not installed;" \
                    "pip install -e .[dev] to enable)"
            fi
            ;;
        simtest)
            banner "simtest smoke batch: $REPRO_SIMTEST_SEEDS seeds"
            python -m repro.cli simtest --seeds "$REPRO_SIMTEST_SEEDS"
            # Same pin as tests/test_simtest_pins.py, through the CLI path.
            python -m repro.cli simtest --seed 9 --expect-digest \
                b7664494f701f9395a9aa94ef22dd1a8669f2de4240a477047d0fa98e2a206a1
            ;;
        federate)
            banner "federated simtest smoke batch: $REPRO_FEDERATE_SEEDS seeds"
            python -m repro.cli federate --seeds "$REPRO_FEDERATE_SEEDS"
            python -m repro.cli federate --seed 2 --expect-digest \
                0deb95b4c18389fa2c4d7b5d6619af09e790f18f79c31b101e7d53461d5d3366
            ;;
        policies)
            banner "policy head-to-head vs golden fixture"
            tmpcsv="$(mktemp)"
            trap 'rm -f "$tmpcsv"' EXIT
            python -m repro.cli policies --compare --seed 1 -o "$tmpcsv"
            diff -u tests/golden/policy_head_to_head.csv "$tmpcsv" || {
                echo "policy head-to-head diverged from the golden fixture;" >&2
                echo "regenerate (if intentional) with:" >&2
                echo "  python -m repro.cli policies --compare --seed 1 \\" >&2
                echo "      -o tests/golden/policy_head_to_head.csv" >&2
                exit 1
            }
            rm -f "$tmpcsv"
            ;;
        lifecycle)
            banner "lifecycle: snapshot schema lint"
            python -m repro.cli lifecycle --schema-lint
            banner "lifecycle: --at outside (0, 1] is refused with exit 2"
            rc=0
            python -m repro.cli lifecycle --at 1.5 2>/dev/null || rc=$?
            if [ "$rc" -ne 2 ]; then
                echo "lifecycle --at 1.5 exited $rc, expected 2" >&2
                exit 1
            fi
            banner "lifecycle: crash-restore digest equivalence (seed $REPRO_LIFECYCLE_SEED, 16 nodes)"
            python -m repro.cli lifecycle --seed "$REPRO_LIFECYCLE_SEED" --nodes 16
            banner "lifecycle: crash-recovery fuzz (10 seeds)"
            python -m repro.cli lifecycle --fuzz 10
            ;;
        serve)
            banner "serve: API boot smoke (16 nodes over HTTP)"
            python -m repro.cli serve --smoke --port 0 --nodes 16
            banner "serve: ${REPRO_SERVE_CLIENTS}-client loadtest (seed $REPRO_SERVE_SEED, zero errors, p99 <= ${REPRO_SERVE_P99_MS} ms)"
            servedir="$(mktemp -d)"
            trap 'rm -rf "$servedir"' EXIT
            python -m repro.cli loadtest \
                --clients "$REPRO_SERVE_CLIENTS" --seed "$REPRO_SERVE_SEED" \
                --p99-max "$REPRO_SERVE_P99_MS" --out "$servedir"
            rm -rf "$servedir"
            ;;
        tenancy)
            banner "tenancy: fairshare property + model suites"
            python -m pytest -x -q \
                tests/test_tenancy_fairshare_properties.py \
                tests/test_tenancy_model.py
            banner "tenancy: forced-tenancy fuzz batch ($REPRO_TENANCY_SEEDS seeds)"
            python -m repro.cli tenants --seeds "$REPRO_TENANCY_SEEDS"
            ;;
        hostbench)
            for run in telemetry_10k:0 fpp_site:0 serve_tenants:0 telemetry_10k:4242 fpp_site:4242 serve_tenants:4242; do
                workload="${run%%:*}"
                seed="${run##*:}"
                banner "hostbench: $workload seed $seed must be correct"
                last="$(python3 hostbench/run.py --workload "$workload" \
                    --seed "$seed" --seconds 10 --trace 0 | tail -n 1)"
                python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' "$last" || {
                    echo "hostbench $workload seed $seed is not correct: $last" >&2
                    exit 1
                }
            done
            ;;
        bench)
            if [ "$REPRO_BENCH_GATE" != "1" ]; then
                banner "bench gate: SKIPPED (set REPRO_BENCH_GATE=1 to enable)"
            elif [ ! -f "$REPRO_BENCH_BASELINE" ]; then
                echo "bench gate: baseline $REPRO_BENCH_BASELINE not found" >&2
                exit 1
            else
                banner "bench gate: quick suite vs $REPRO_BENCH_BASELINE" \
                    "(max regress $REPRO_BENCH_MAX_REGRESS)"
                benchdir="$(mktemp -d)"
                trap 'rm -rf "$benchdir"' EXIT
                python -m repro.cli bench --quick --repeats 3 --name verify \
                    --out "$benchdir"
                python -m repro.cli bench \
                    --compare "$REPRO_BENCH_BASELINE" "$benchdir/BENCH_verify.json" \
                    --max-regress "$REPRO_BENCH_MAX_REGRESS"
                rm -rf "$benchdir"
            fi
            ;;
        *)
            echo "unknown stage: $stage" >&2
            exit 2
            ;;
    esac
done

banner "verify: all stages passed"
