"""LP backend performance harness — emits ``BENCH_lp.json``.

For each selected Table 1 pair the harness builds the Handelman LP
*once* (invariants + constraints + encoding) and then times every
requested backend on that same :class:`~repro.lp.model.LPModel`,
recording wall time, solver statistics (pivots, warm-start path,
refactorizations) and the objective.  Agreement is gated:

- every backend must report the same LP status;
- the exact backends (``exact``, ``exact-warm``) must return
  **bit-identical** ``Fraction`` optima;
- float backends must match the exact optimum within
  ``float_tolerance`` (absolute + relative).

A second section benchmarks the **refutation batch**: the full witness
loop of :func:`~repro.core.refutation.refute_threshold` per pair (one
encoding, one :class:`~repro.lp.dual.IncrementalLP` basis re-solved per
witness) against :func:`refute_per_witness`, a cold reference that
solves every witness LP in a call of its own.  Both must produce
bit-identical certified gaps and witnesses (gated like backend
agreement); the report records factorization counts, eta/refactor
statistics and the loop-versus-reference speedup.

The JSON report is the repo's perf trajectory: CI runs the harness on a
small subset every push, uploads the file as an artifact, fails the
build on any disagreement, and — via :func:`compare_reports` — fails on
a >2x regression of any tracked timing against the committed baseline
snapshot (``benchmarks/BENCH_lp.baseline.json``).
"""

from __future__ import annotations

import json
import platform
import time
from fractions import Fraction
from typing import Any, Sequence

from repro.bench.suite import SUITE, load_pair
from repro.config import AnalysisConfig
from repro.core.diffcost import THRESHOLD_SYMBOL, DiffCostAnalyzer, ProgramLike
from repro.core.refutation import default_witnesses, refute_threshold
from repro.core.results import RefutationResult
from repro.errors import AnalysisError
from repro.invariants.polyhedron import Polyhedron
from repro.lp.backend import (
    LP_SOLVER_REVISION,
    backend_is_exact,
    get_backend,
)
from repro.lp.model import LPModel
from repro.lp.solution import LPStatus
from repro.poly.linexpr import AffineExpr
from repro.poly.template import TemplatePolynomial

BENCH_SCHEMA_VERSION = 3

#: Default backend set: the exact solvers, then float.
DEFAULT_PERF_BACKENDS: tuple[str, ...] = ("exact", "exact-warm", "scipy")

#: Small Table 1 LPs, so that a cold ``exact`` solve of each stays
#: short; the full suite is available with ``--names all``.
DEFAULT_PERF_PAIRS: tuple[str, ...] = (
    "simple_single", "ex2", "ex4", "dis2", "sum",
)

#: Candidate handed to the refutation benchmark.  The witness-loop work
#: is candidate-independent (every witness LP is solved either way), so
#: any value exercises the full loop; 0 keeps all Table 1 pairs valid.
REFUTE_BENCH_CANDIDATE = 0.0

#: Default pairs of the refutation-batch section: the refutation-heavy
#: rows — two-variable input boxes, so the witness loop runs 4-5 LPs —
#: plus the Fig. 1 running example, whose refutation LP is the largest.
#: Pairs with a single bounded input collapse to ~3 witnesses and
#: barely exercise the loop.
DEFAULT_REFUTE_PAIRS: tuple[str, ...] = (
    "join", "dis2", "simple_multiple", "simple_multiple_dep",
    "simple_single2",
)


def build_lp_model(name: str) -> LPModel:
    """The pair's threshold LP (paper Step 4), ready to solve."""
    matches = [pair for pair in SUITE if pair.name == name]
    if not matches:
        raise AnalysisError(f"unknown benchmark pair {name!r}")
    pair = matches[0]
    old, new = load_pair(name)
    analyzer = DiffCostAnalyzer(old, new, pair.config())
    bound = TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL)
    _, _, constraints = analyzer.build_constraints(bound)
    model = analyzer.encode(constraints)
    model.minimize(AffineExpr.variable(THRESHOLD_SYMBOL))
    return model


def _objective_repr(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    return value


def _solve_timed(backend_name: str, model: LPModel,
                 repeats: int) -> dict[str, Any]:
    backend = get_backend(backend_name)
    best = None
    solution = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        solution = backend.solve(model)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    entry: dict[str, Any] = {
        "seconds": round(best, 6),
        "status": solution.status.value,
        "objective": _objective_repr(solution.objective_value),
    }
    stats = dict(solution.stats)
    if stats:
        entry["stats"] = stats
    entry["_solution"] = solution  # stripped before serialization
    return entry


def _check_agreement(row: dict[str, Any], backends: Sequence[str],
                     float_tolerance: float) -> list[str]:
    """Status/objective agreement failures for one row (empty = agree)."""
    failures: list[str] = []
    statuses = {
        name: row["backends"][name]["status"] for name in backends
    }
    if len(set(statuses.values())) > 1:
        failures.append(f"status mismatch: {statuses}")
        return failures

    exact_values: dict[str, Fraction] = {}
    float_values: dict[str, float] = {}
    for name in backends:
        solution = row["backends"][name]["_solution"]
        if solution.status is not LPStatus.OPTIMAL:
            continue
        if solution.objective_value is None:
            continue
        if backend_is_exact(name):
            exact_values[name] = solution.objective_value
        else:
            float_values[name] = float(solution.objective_value)

    if len(set(exact_values.values())) > 1:
        failures.append(
            "exact backends disagree: "
            + str({k: str(v) for k, v in exact_values.items()})
        )
    if exact_values and float_values:
        reference = next(iter(exact_values.values()))
        bound = float_tolerance * (1 + abs(float(reference)))
        for name, value in float_values.items():
            if abs(value - float(reference)) > bound:
                failures.append(
                    f"{name} objective {value} vs exact {reference} "
                    f"(tolerance {bound})"
                )
    return failures


def _fold_phase_times(target: dict[str, float], stats: dict[str, Any]) -> None:
    """Accumulate a stats dict's ``time_*`` entries into ``target``
    (keyed by phase name, ``time_`` prefix stripped)."""
    for key, value in stats.items():
        if key.startswith("time_") and isinstance(value, (int, float)):
            phase = key[len("time_"):]
            target[phase] = target.get(phase, 0.0) + float(value)


def build_profile(report: dict[str, Any]) -> dict[str, Any]:
    """The ``profile`` section: exact-solve wall time attributed to
    named solver phases (pricing, ratio test, basis update, ftran/btran,
    eta pushes, refactorization, rational certification, float
    warm-start stage), aggregated per backend across all rows, plus the
    two refutation-batch variants.

    ``accounted_fraction`` divides the phase sum by the tracked wall
    seconds of the same unit.  Phase regions are disjoint by
    construction, so the fraction is ≤ 1 up to timer overhead and the
    untimed residue (model intake, Fraction conversions, solution
    extraction); with ``repeats > 1`` the tracked time is best-of while
    phases come from the last repeat, so treat the fraction as
    approximate there (CI runs ``repeats=1``).
    """
    phases: dict[str, dict[str, float]] = {}
    tracked: dict[str, float] = {}
    for row in report.get("rows", []):
        for name, entry in row.get("backends", {}).items():
            stats = entry.get("stats", {})
            if not any(key.startswith("time_") for key in stats):
                continue  # backend without phase timers (scipy)
            _fold_phase_times(phases.setdefault(name, {}), stats)
            tracked[name] = tracked.get(name, 0.0) + entry["seconds"]
    refutation = report.get("refutation")
    if refutation:
        for row in refutation.get("rows", []):
            for variant in ("incremental", "cold"):
                entry = row.get(variant)
                if not entry or not any(
                        key.startswith("time_") for key in entry):
                    continue
                unit = f"refutation:{variant}"
                _fold_phase_times(phases.setdefault(unit, {}), entry)
                tracked[unit] = tracked.get(unit, 0.0) + entry["seconds"]
    profile: dict[str, Any] = {
        "phases": {
            unit: {phase: round(value, 6)
                   for phase, value in sorted(unit_phases.items())}
            for unit, unit_phases in sorted(phases.items())
        },
        "tracked_seconds": {
            unit: round(seconds, 6) for unit, seconds in sorted(
                tracked.items())
        },
        "accounted_fraction": {
            unit: round(sum(phases[unit].values()) / tracked[unit], 3)
            for unit in sorted(phases)
            if tracked.get(unit, 0.0) > 0
        },
    }
    return profile


#: Per-variant counters surfaced in each refutation-batch row
#: (``float_models``: HiGHS models the float stage built).
_REFUTE_STAT_KEYS = (
    "solves", "factorizations", "refactorizations", "pivots",
    "eta_pivots", "max_eta", "resolves", "dual_resolves", "float_models",
)


def refute_per_witness(old: ProgramLike, new: ProgramLike,
                       candidate: float,
                       config: AnalysisConfig) -> RefutationResult:
    """Cold reference for the refutation witness loop.

    Makes one :func:`~repro.core.refutation.refute_threshold` call per
    default witness, so every witness LP gets an encoding and a cold
    solve of its own (a fresh :class:`~repro.lp.dual.IncrementalLP` on
    exact backends).  The first maximal gap wins, as in the loop.
    Returns the winning call's result, with ``lp_stats`` summed over
    all calls (``max_eta`` is the maximum).
    """
    analyzer = DiffCostAnalyzer(old, new, config)
    witnesses = default_witnesses(
        analyzer.old_system, analyzer.new_system,
        Polyhedron(analyzer.combined_theta0()),
    )
    results = [refute_threshold(old, new, candidate, config, [witness])
               for witness in witnesses]
    if not results:
        return refute_threshold(old, new, candidate, config, [])
    best = results[0]
    for result in results[1:]:
        gap = result.guaranteed_difference
        if gap is not None and (best.guaranteed_difference is None
                                or gap > best.guaranteed_difference):
            best = result
    totals: dict[str, Any] = {}
    for result in results:
        for key, value in result.lp_stats.items():
            if key == "max_eta":
                totals[key] = max(totals.get(key, 0), value)
            elif isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    best.lp_stats = totals
    return best


def _refute_variant(refute, old, new, config) -> dict[str, Any]:
    start = time.perf_counter()
    result = refute(old, new, REFUTE_BENCH_CANDIDATE, config)
    elapsed = time.perf_counter() - start
    entry: dict[str, Any] = {"seconds": round(elapsed, 6)}
    for key in _REFUTE_STAT_KEYS:
        value = result.lp_stats.get(key)
        if value:
            entry[key] = value
    for key, value in result.lp_stats.items():
        if key.startswith("time_") and isinstance(value, float) and value > 0:
            entry[key] = round(value, 6)
    entry["_result"] = result  # stripped before serialization
    return entry


def run_refutation_batch(names: Sequence[str] | None = None
                         ) -> dict[str, Any]:
    """Benchmark the refutation witness loop against its cold reference.

    Runs each pair on ``exact-warm`` twice — through
    :func:`~repro.core.refutation.refute_threshold` (``incremental``:
    one encode, one factorized basis, re-solves per witness) and
    through :func:`refute_per_witness` (``cold``) — and gates on
    bit-identical certified gaps and witnesses.  The summary carries
    the aggregate exact-factorization ratio and wall-clock speedup,
    which is the number the incremental LP core is accountable for.
    """
    selected = list(names) if names else list(DEFAULT_REFUTE_PAIRS)
    rows: list[dict[str, Any]] = []
    totals = {"incremental": 0.0, "cold": 0.0}
    factorizations = {"incremental": 0, "cold": 0}
    disagreements = 0
    for pair_name in selected:
        matches = [pair for pair in SUITE if pair.name == pair_name]
        if not matches:
            raise AnalysisError(f"unknown benchmark pair {pair_name!r}")
        pair = matches[0]
        old, new = load_pair(pair_name)
        config = pair.config("exact-warm")
        row: dict[str, Any] = {"pair": pair_name}
        for variant, refute in (("incremental", refute_threshold),
                                ("cold", refute_per_witness)):
            entry = _refute_variant(refute, old, new, config)
            row[variant] = entry
            totals[variant] += entry["seconds"]
            factorizations[variant] += entry.get("factorizations", 0)

        warm = row["incremental"].pop("_result")
        cold = row["cold"].pop("_result")
        gap = warm.guaranteed_difference
        row["witnesses"] = warm.lp_stats.get("solves", 0)
        row["gap"] = None if gap is None else str(gap)
        failures = []
        if warm.guaranteed_difference != cold.guaranteed_difference:
            failures.append(
                f"gap mismatch: incremental {warm.guaranteed_difference} "
                f"vs cold {cold.guaranteed_difference}"
            )
        if warm.witness_input != cold.witness_input:
            failures.append(
                f"witness mismatch: incremental {warm.witness_input} "
                f"vs cold {cold.witness_input}"
            )
        row["agree"] = not failures
        if failures:
            row["disagreements"] = failures
            disagreements += 1
        cold_seconds = row["cold"]["seconds"]
        if row["incremental"]["seconds"] > 0:
            row["speedup"] = round(
                cold_seconds / row["incremental"]["seconds"], 2
            )
        rows.append(row)

    summary: dict[str, Any] = {
        "seconds_total": {k: round(v, 6) for k, v in totals.items()},
        "factorizations_total": dict(factorizations),
        "disagreements": disagreements,
    }
    if factorizations["incremental"] > 0:
        summary["factorization_ratio"] = round(
            factorizations["cold"] / factorizations["incremental"], 2
        )
    if totals["incremental"] > 0:
        summary["speedup"] = round(
            totals["cold"] / totals["incremental"], 2
        )
    return {"rows": rows, "summary": summary}


def run_lp_perf(names: Sequence[str] | None = None,
                backends: Sequence[str] = DEFAULT_PERF_BACKENDS,
                repeats: int = 1,
                float_tolerance: float = 1e-4,
                refutation: bool = True) -> dict[str, Any]:
    """Time every backend on every pair's LP; returns the report dict."""
    selected = list(names) if names else list(DEFAULT_PERF_PAIRS)
    rows: list[dict[str, Any]] = []
    totals: dict[str, float] = {name: 0.0 for name in backends}
    path_counts: dict[str, int] = {}
    disagreements = 0

    for pair_name in selected:
        model = build_lp_model(pair_name)
        row: dict[str, Any] = {
            "pair": pair_name,
            "lp_variables": model.num_variables,
            "lp_constraints": model.num_constraints,
            "backends": {},
        }
        for backend_name in backends:
            entry = _solve_timed(backend_name, model, repeats)
            row["backends"][backend_name] = entry
            totals[backend_name] += entry["seconds"]
            path = entry.get("stats", {}).get("path")
            if path:
                path_counts[path] = path_counts.get(path, 0) + 1
        failures = _check_agreement(row, backends, float_tolerance)
        row["agree"] = not failures
        if failures:
            row["disagreements"] = failures
            disagreements += 1
        for entry in row["backends"].values():
            entry.pop("_solution", None)
        rows.append(row)

    summary: dict[str, Any] = {
        "seconds_total": {k: round(v, 6) for k, v in totals.items()},
        "disagreements": disagreements,
        "warm_start_paths": path_counts,
    }
    report: dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "generated_by": "repro-diffcost perf",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "lp_solver_revision": LP_SOLVER_REVISION,
        "backends": list(backends),
        "repeats": repeats,
        "float_tolerance": float_tolerance,
        "rows": rows,
        "summary": summary,
    }
    if refutation:
        # An explicit pair selection drives both sections; the defaults
        # differ (the backend matrix wants small LPs, the refutation
        # batch wants witness-heavy ones).
        section = run_refutation_batch(names=list(names) if names else None)
        report["refutation"] = section
        # A gap/witness divergence between the loop and its cold
        # reference is a solver bug exactly like a backend disagreement.
        summary["disagreements"] += section["summary"]["disagreements"]
    report["profile"] = build_profile(report)
    return report


def write_bench_json(report: dict[str, Any], path: str) -> None:
    """Write the report, stable key order, trailing newline."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


#: Timings shorter than this are dominated by noise and exempt from the
#: baseline regression gate.
_COMPARE_MIN_SECONDS = 0.05


def _tracked_timings(report: dict[str, Any]) -> dict[str, float]:
    """name -> seconds for every timing the baseline gate tracks."""
    tracked: dict[str, float] = {}
    for name, seconds in report["summary"]["seconds_total"].items():
        tracked[f"backend:{name}"] = seconds
    refutation = report.get("refutation")
    if refutation:
        for variant, seconds in (
                refutation["summary"]["seconds_total"].items()):
            tracked[f"refutation:{variant}"] = seconds
        for row in refutation["rows"]:
            tracked[f"refutation:{row['pair']}:incremental"] = (
                row["incremental"]["seconds"]
            )
    return tracked


def compare_reports(baseline: dict[str, Any], current: dict[str, Any],
                    max_ratio: float = 2.0) -> list[str]:
    """Regressions of ``current`` against a ``BENCH_lp.json`` baseline.

    Returns human-readable failure strings (empty = pass):

    - any disagreement in the current report (backends, or the
      refutation loop against its per-witness cold reference);
    - any tracked timing (per-backend totals, refutation totals,
      per-pair incremental refutation) slower than ``max_ratio`` times
      the baseline.  Sub-``50ms`` timings are exempt — they measure
      interpreter noise, not the solver.  Entries present on only one
      side (new pairs, new backends) are skipped: the gate tracks
      trajectory, not schema.
    """
    failures: list[str] = []
    if current["summary"]["disagreements"]:
        failures.append(
            f"current report has "
            f"{current['summary']['disagreements']} disagreement(s)"
        )
    base_timings = _tracked_timings(baseline)
    for name, seconds in _tracked_timings(current).items():
        reference = base_timings.get(name)
        if reference is None:
            continue
        if seconds <= _COMPARE_MIN_SECONDS:
            continue
        floor = max(reference, _COMPARE_MIN_SECONDS)
        if seconds > max_ratio * floor:
            failures.append(
                f"timing regression: {name} {seconds:.3f}s vs baseline "
                f"{reference:.3f}s (> {max_ratio:.1f}x)"
            )
    return failures


def format_perf_table(report: dict[str, Any]) -> str:
    """Human-readable rendering of a perf report."""
    backends = report["backends"]
    header = ["pair"] + [f"{name} (s)" for name in backends] + ["agree"]
    lines = ["  ".join(f"{h:>16}" for h in header)]
    for row in report["rows"]:
        cells = [f"{row['pair']:>16}"]
        for name in backends:
            cells.append(f"{row['backends'][name]['seconds']:>16.4f}")
        cells.append(f"{'yes' if row['agree'] else 'NO':>16}")
        lines.append("  ".join(cells))
    summary = report["summary"]
    lines.append("")
    lines.append(f"totals: {summary['seconds_total']}")
    if summary["warm_start_paths"]:
        lines.append(f"warm-start paths: {summary['warm_start_paths']}")
    refutation = report.get("refutation")
    if refutation:
        lines.append("")
        lines.append("refutation batch (incremental loop vs per-witness "
                     "cold reference):")
        header = ["pair", "wit", "inc (s)", "cold (s)", "fact i/c", "agree"]
        lines.append("  ".join(f"{h:>12}" for h in header))
        for row in refutation["rows"]:
            cells = [
                f"{row['pair']:>12}",
                f"{row['witnesses']:>12}",
                f"{row['incremental']['seconds']:>12.4f}",
                f"{row['cold']['seconds']:>12.4f}",
                f"{row['incremental'].get('factorizations', 0):>5}/"
                f"{row['cold'].get('factorizations', 0):<6}",
                f"{'yes' if row['agree'] else 'NO':>12}",
            ]
            lines.append("  ".join(cells))
        rsum = refutation["summary"]
        lines.append(
            f"refutation totals: {rsum['seconds_total']}; factorizations "
            f"{rsum['factorizations_total']}"
            + (f"; {rsum['factorization_ratio']}x fewer factorizations"
               if "factorization_ratio" in rsum else "")
            + (f"; {rsum['speedup']}x wall speedup"
               if "speedup" in rsum else "")
        )
    profile = report.get("profile")
    if profile and profile["phases"]:
        lines.append("")
        lines.append("phase profile (seconds; fraction of tracked wall):")
        for unit, unit_phases in profile["phases"].items():
            fraction = profile["accounted_fraction"].get(unit)
            ranked = sorted(unit_phases.items(), key=lambda kv: -kv[1])
            detail = ", ".join(f"{phase}={value:.4f}"
                               for phase, value in ranked)
            suffix = f" ({fraction:.0%} accounted)" if fraction else ""
            lines.append(f"  {unit}: {detail}{suffix}")
    lines.append(f"disagreements: {summary['disagreements']}")
    return "\n".join(lines)
