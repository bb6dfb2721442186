"""Threshold refutation via PFs and anti-PFs (Theorem 4.3).

Dual use of the machinery: an *anti*-potential for the **new** version
(lower bound on its cost) and a potential for the **old** version (upper
bound on its cost).  If for some input ``x ∈ Θ0``

    χ_new(ℓ0,x) − φ_old(ℓ0,x) > t

then every pair of runs on ``x`` differs by more than ``t``, so ``t`` is
not a threshold.  For a *fixed* witness input the left-hand side is
linear in the template symbols, so maximizing it is again an LP; we try
a set of witness candidates (box corners and the center of Θ0 by
default) and keep the best certified gap.

Every witness shares the same constraint system — only the objective
(the gap at that witness) changes.  The loop therefore runs the
Handelman expansion and ``encode_implication`` **once** and swaps
objectives, re-solving through :class:`~repro.lp.dual.IncrementalLP`
whatever ``lp_backend`` says: a refutation is a proof, so its gap is
always an exact ``Fraction``.  The loop exchanges one LU/eta
factorization onto a HiGHS-nominated basis per witness and certifies
it by exact pricing instead of solving cold — one factorization and
one HiGHS model, whose costs change per witness, amortized over up to
33 witness LPs.  The certified gaps do not depend on the basis path:
the optimal value of an LP is unique.  ``repro.bench.perf`` checks
this against a cold reference that solves each witness in a call of
its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.config import AnalysisConfig
from repro.core.constraints import (
    LOWER,
    UPPER,
    TemplateSet,
    collect_certificate_constraints,
)
from repro.core.diffcost import DiffCostAnalyzer, ProgramLike, extract_certificate
from repro.core.potentials import ANTI_POTENTIAL, POTENTIAL
from repro.core.results import AnalysisStatus, RefutationResult
from repro.handelman.encode import encode_implication
from repro.handelman.products import ProductTable
from repro.invariants.polyhedron import Polyhedron
from repro.lp.dual import IncrementalLP
from repro.lp.model import LPModel
from repro.lp.solution import LPStatus
from repro.ts.system import COST_VAR, TransitionSystem
from repro.utils.naming import FreshNameGenerator
from repro.utils.rationals import Numeric


def default_witnesses(old_system: TransitionSystem,
                      new_system: TransitionSystem,
                      theta0: Polyhedron,
                      limit: int = 33) -> list[dict[str, int]]:
    """Candidate witness inputs: Θ0-box corners plus the box center.

    Variables without finite bounds default to 0.  Points violating Θ0
    (e.g. ordering side constraints) are filtered out.
    """
    variables = sorted(
        (set(old_system.variables) | set(new_system.variables)) - {COST_VAR}
    )
    choices: list[list[int]] = []
    for var in variables:
        interval = theta0.var_bounds(var)
        # Exact ceil/floor: a fractional bound (``1 <= 2 * n``) rounded
        # toward zero would put the corner outside Θ0.
        low = 0 if interval.lower is None else -(-interval.lower // 1)
        high = low if interval.upper is None else interval.upper // 1
        choices.append([low] if low == high else [low, high])

    candidates: list[dict[str, int]] = []

    def expand(index: int, current: dict[str, int]) -> None:
        if len(candidates) >= limit - 1:
            return
        if index == len(variables):
            candidates.append(dict(current))
            return
        for value in choices[index]:
            current[variables[index]] = value
            expand(index + 1, current)

    expand(0, {})
    center = {
        var: (values[0] + values[-1]) // 2
        for var, values in zip(variables, choices)
    }
    candidates.append(center)
    # Degenerate boxes (or center == corner along every axis) duplicate
    # candidates; each duplicate would cost a full LP solve downstream.
    seen: set[tuple] = set()
    unique: list[dict[str, int]] = []
    for candidate in candidates:
        key = tuple(sorted(candidate.items()))
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return [c for c in unique if theta0.contains_point(c)]


def refute_threshold(old: ProgramLike, new: ProgramLike,
                     candidate: Numeric,
                     config: AnalysisConfig | None = None,
                     witnesses: Iterable[dict[str, int]] | None = None,
                     ) -> RefutationResult:
    """Try to prove that ``candidate`` is *not* a valid threshold.

    Sound for nondeterministic programs; complete only for deterministic
    ones (paper discussion after Theorem 4.3).
    """
    analyzer = DiffCostAnalyzer(old, new, config)
    stopwatch = analyzer.stopwatch
    old_invariants, new_invariants = analyzer.invariants()
    theta0 = Polyhedron(analyzer.combined_theta0())
    if witnesses is None:
        witnesses = default_witnesses(
            analyzer.old_system, analyzer.new_system, theta0
        )
    witnesses = list(witnesses)
    if not witnesses:
        return RefutationResult(
            status=AnalysisStatus.UNKNOWN,
            candidate=candidate,
            message="no witness candidates inside Theta0",
            timings=stopwatch.as_dict(),
        )

    # Certificate constraints are witness-independent: build them once.
    with stopwatch.phase("constraints"):
        fresh = FreshNameGenerator()
        new_templates = TemplateSet.build(
            analyzer.new_system, analyzer.config.degree, prefix="refute-new"
        )
        old_templates = TemplateSet.build(
            analyzer.old_system, analyzer.config.degree, prefix="refute-old"
        )
        constraints = collect_certificate_constraints(
            analyzer.new_system, new_invariants, new_templates, LOWER, fresh
        )
        constraints.extend(
            collect_certificate_constraints(
                analyzer.old_system, old_invariants, old_templates, UPPER,
                fresh,
            )
        )

    # One encoding for the whole loop: the Handelman expansion is
    # witness-independent, only the objective changes per witness.
    with stopwatch.phase("encoding"):
        model = LPModel()
        encoding_fresh = FreshNameGenerator()
        products = ProductTable()
        for constraint in constraints:
            encode_implication(
                constraint, model, encoding_fresh,
                analyzer.config.max_products, products,
            )

    best_gap: Fraction | None = None
    best_witness: dict[str, int] | None = None
    best_solution = None
    with stopwatch.phase("lp"):
        inc = IncrementalLP(model)
        for witness in witnesses:
            chi_at_witness = new_templates.at(
                analyzer.new_system.initial_location
            ).evaluate_program_vars(witness)
            phi_at_witness = old_templates.at(
                analyzer.old_system.initial_location
            ).evaluate_program_vars(witness)
            objective = chi_at_witness - phi_at_witness
            solution = inc.maximize(objective)
            if solution.status is not LPStatus.OPTIMAL:
                continue
            gap = objective.evaluate(
                {name: solution.value(name) for name in objective.symbols}
            )
            if best_gap is None or gap > best_gap:
                best_gap = gap
                best_witness = witness
                best_solution = solution
    lp_stats = dict(inc.stats)
    timings = stopwatch.as_dict()

    if best_gap is None:
        return RefutationResult(
            status=AnalysisStatus.UNKNOWN,
            candidate=candidate,
            message="no refutation certificate found (LP infeasible)",
            lp_stats=lp_stats,
            timings=timings,
        )

    refuted = best_gap > candidate
    result = RefutationResult(
        status=AnalysisStatus.REFUTED if refuted else AnalysisStatus.UNKNOWN,
        candidate=candidate,
        witness_input=best_witness,
        guaranteed_difference=best_gap,
        anti_potential_new=extract_certificate(
            new_templates, best_solution, ANTI_POTENTIAL
        ),
        potential_old=extract_certificate(
            old_templates, best_solution, POTENTIAL
        ),
        lp_stats=lp_stats,
        timings=timings,
    )
    if not refuted:
        result.message = (
            f"best certified difference {best_gap} does not exceed "
            f"candidate {candidate}"
        )
    return result
