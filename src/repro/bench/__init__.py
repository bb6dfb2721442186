"""The benchmark suite of the paper's evaluation (Table 1 + Fig. 1).

The 19 program pairs of Table 1 are reconstructions: the original
artifacts are not available offline, so each pair was rebuilt from the
source papers' looping patterns and the paper's own pairing recipe,
calibrated to the same "Tight" thresholds under the same ``[1, 100]``
input boxes (each pair's ground truth is the ``tight`` field of its
:class:`~repro.bench.suite.BenchmarkPair`).
"""

from repro.bench.suite import (
    BenchmarkPair,
    SUITE,
    get_pair,
    load_pair,
    pairs_in_group,
)
from repro.bench.runner import (
    BenchmarkOutcome,
    SuiteInterrupted,
    run_pair,
    run_suite,
)
from repro.bench.reporting import format_csv, format_markdown, format_table
from repro.bench.perf import (
    DEFAULT_PERF_BACKENDS,
    DEFAULT_PERF_PAIRS,
    build_lp_model,
    format_perf_table,
    run_lp_perf,
    write_bench_json,
)

__all__ = [
    "DEFAULT_PERF_BACKENDS",
    "DEFAULT_PERF_PAIRS",
    "build_lp_model",
    "format_perf_table",
    "run_lp_perf",
    "write_bench_json",
    "BenchmarkPair",
    "SUITE",
    "get_pair",
    "load_pair",
    "pairs_in_group",
    "BenchmarkOutcome",
    "SuiteInterrupted",
    "run_pair",
    "run_suite",
    "format_table",
    "format_markdown",
    "format_csv",
]
