"""Paths, environment, statistics and result printing shared by the
workloads."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space inside the repository: cache directories, trace files.
WORK = ROOT / ".perfbench"

#: Environment switches that change what the program does or costs;
#: every measured process runs with them unset.
_SCRUBBED = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_LOG")

#: End-to-end metrics (untraced runs) and their units; every workload
#: reports each of them (see README.md for the per-workload meaning).
END_TO_END = {
    "setup_s": "s", "cpu_s": "s", "hit_p50_ms": "ms", "peak_rss_mb": "MB",
    "tight_frac": "ratio", "ok_frac": "ratio",
}

#: Per-layer metrics (traced runs); zero where a layer is not on a
#: workload's path.
PER_LAYER = {
    "setup.import_s": "s", "setup.warmup_s": "s",
    "lang.parse_s": "s",
    "invariants.self_s": "s", "invariants.queries": "count",
    "invariants.lp_calls": "count", "invariants.lp_s": "s",
    "invariants.lp_per_query": "ratio",
    "constraints.self_s": "s", "constraints.implications": "count",
    "handelman.self_s": "s", "handelman.products": "count",
    "handelman.monomials": "count",
    "lp.solve_s": "s", "lp.model_vars": "count", "lp.model_rows": "count",
    "lp.exact_s": "s", "lp.exact_pivots": "count",
    "lp.exact_factorizations": "count", "lp.exact_eta_pivots": "count",
    "refute.self_s": "s", "refute.witnesses": "count",
    "engine.key_ms": "ms", "engine.bridge_wait_ms": "ms",
    "engine.job_s": "s", "engine.dispatch_ms": "ms",
    "cache.get_ms": "ms", "cache.put_ms": "ms",
    "cache.hot_hit_frac": "ratio", "cache.disk_read_frac": "ratio",
    "serve.server_ms": "ms", "serve.coalesced": "count",
    "serve.shed": "count",
    "trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio",
}


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _SCRUBBED:
        os.environ.pop(name, None)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: a host-speed
    diagnostic recorded with each result, never used to scale a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(workload: str, seed: int) -> dict:
    from repro.lp.backend import LP_SOLVER_REVISION

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "python": platform.python_version(), "scipy": scipy_version,
        "nproc": os.cpu_count(), "lp_solver_revision": LP_SOLVER_REVISION,
        "reference_loop_s": round(reference_loop_s(), 6),
    }


def emit(env: dict, metrics: dict[str, tuple[float, str]],
         extra: dict[str, tuple[float, str]], attempted: int, failed: int,
         correct: bool, notes: dict) -> None:
    """Print the human-readable report (stderr), the run record and, as
    the last stdout line, the result object.  ``extra`` metrics are
    reported but not part of the result: they are too noisy to gate on
    or apply to one workload only."""
    if set(metrics) not in (set(END_TO_END), set(PER_LAYER)):
        raise RuntimeError(f"metrics {sorted(metrics)} are not a "
                           f"declared set")
    extra = {"fail_frac": (failed / max(attempted, 1), "ratio"), **extra}
    print(f"perfbench {env['workload']} seed={env['seed']}: "
          f"{attempted} attempted, {failed} failed, correct={correct}",
          file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:28s} {value:14.6f} {unit}", file=sys.stderr)
    for name, value in notes.items():
        print(f"  # {name}: {value}", file=sys.stderr)
    print(json.dumps({"perfbench_run": env, "notes": notes,
                      "extra": {k: v[0] for k, v in extra.items()}},
                     sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
