"""Performance benchmark harness (``repro bench``).

Times the simulation hot paths — the discrete-event engine, the
792-node scalability query, and a Table-IV policy run — and writes
``BENCH_<name>.json`` artifacts so every PR has a perf trajectory to
compare against. See docs/performance.md for how to run and read it.
"""

from repro.bench.compare import (
    BenchDelta,
    CompareResult,
    compare_report_files,
    compare_reports,
    load_report_lenient,
    parse_max_regress,
)
from repro.bench.harness import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    BenchResult,
    run_suite,
    validate_report,
    write_report,
)
from repro.bench.suites import BENCHMARKS, default_suite

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCHMARKS",
    "BenchDelta",
    "BenchReport",
    "BenchResult",
    "CompareResult",
    "compare_report_files",
    "compare_reports",
    "default_suite",
    "load_report_lenient",
    "parse_max_regress",
    "run_suite",
    "validate_report",
    "write_report",
]
