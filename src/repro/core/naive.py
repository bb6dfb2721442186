"""The naive two-pass baseline the paper argues against (Section 1/8).

"A naive approach would be to compute a PF for the new program and an
anti-PF for the old program separately, and then to compute a threshold
for them.  However, such computations ... would not take each other into
account, which might lead to imprecision."

This module implements exactly that baseline, for the comparison
benchmark:

1. LP A: synthesize a PF for the new version alone, minimizing its value
   at a representative input (the Θ0 box center) — the natural unary
   objective for a tight *upper* bound;
2. LP B: synthesize an anti-PF for the old version alone, maximizing its
   value at the same input;
3. LP C: with both certificates now fixed, compute the smallest ``s``
   with ``x ∈ Θ0 ⇒ s − φ_new(ℓ0,x) + χ_old(ℓ0,x) >= 0`` (a Handelman
   feasibility problem in ``s`` alone).
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, AnalysisConfig
from repro.core.constraints import (
    LOWER,
    UPPER,
    TemplateSet,
    collect_certificate_constraints,
)
from repro.core.diffcost import DiffCostAnalyzer, ProgramLike, extract_certificate
from repro.core.potentials import ANTI_POTENTIAL, POTENTIAL, PotentialFunction
from repro.core.results import AnalysisStatus, DiffCostResult
from repro.handelman.encode import ImplicationConstraint, encode_implication
from repro.handelman.products import ProductTable
from repro.invariants.polyhedron import Polyhedron
from repro.lp.backend import get_backend
from repro.lp.model import LPModel
from repro.lp.solution import LPStatus
from repro.poly.linexpr import AffineExpr
from repro.poly.template import TemplatePolynomial
from repro.ts.system import COST_VAR, TransitionSystem
from repro.utils.naming import FreshNameGenerator

NAIVE_THRESHOLD_SYMBOL = "s"


def _box_center(theta0: Polyhedron, system: TransitionSystem) -> dict[str, int]:
    center: dict[str, int] = {}
    for var in system.state_variables:
        if var == COST_VAR:
            continue
        interval = theta0.var_bounds(var)
        low = 0 if interval.lower is None else int(interval.lower)
        high = low if interval.upper is None else int(interval.upper)
        center[var] = (low + high) // 2
    return center


def _solve_unary(analyzer: DiffCostAnalyzer, system: TransitionSystem,
                 invariants, kind: str, prefix: str,
                 anchor: dict[str, int]) -> PotentialFunction | None:
    """One independent unary synthesis (LP A or LP B)."""
    config = analyzer.config
    fresh = FreshNameGenerator()
    templates = TemplateSet.build(system, config.degree, prefix=prefix)
    constraints = collect_certificate_constraints(
        system, invariants, templates, kind, fresh
    )
    model = LPModel()
    encoding_fresh = FreshNameGenerator()
    products = ProductTable()
    for constraint in constraints:
        encode_implication(constraint, model, encoding_fresh,
                           config.max_products, products)
    anchor_value = templates.at(system.initial_location).evaluate_program_vars(
        anchor
    )
    if kind == UPPER:
        model.minimize(anchor_value)
    else:
        model.maximize(anchor_value)
    solution = get_backend(config.lp_backend).solve(model)
    if solution.status is not LPStatus.OPTIMAL:
        return None
    certificate_kind = POTENTIAL if kind == UPPER else ANTI_POTENTIAL
    return extract_certificate(templates, solution, certificate_kind)


def naive_diffcost(old: ProgramLike, new: ProgramLike,
                   config: AnalysisConfig | None = None) -> DiffCostResult:
    """Two-pass baseline: unary bounds first, threshold second."""
    analyzer = DiffCostAnalyzer(old, new, config or DEFAULT_CONFIG)
    old_invariants, new_invariants = analyzer.invariants()
    theta0 = Polyhedron(analyzer.combined_theta0())

    potential_new = _solve_unary(
        analyzer, analyzer.new_system, new_invariants, UPPER, "naive-new",
        _box_center(theta0, analyzer.new_system),
    )
    anti_potential_old = _solve_unary(
        analyzer, analyzer.old_system, old_invariants, LOWER, "naive-old",
        _box_center(theta0, analyzer.old_system),
    )
    if potential_new is None or anti_potential_old is None:
        return DiffCostResult(
            status=AnalysisStatus.UNKNOWN,
            message="naive baseline: a unary synthesis failed",
        )

    # LP C: smallest s dominating the now-fixed difference over Θ0.
    phi = potential_new.at(analyzer.new_system.initial_location)
    chi = anti_potential_old.at(analyzer.old_system.initial_location)
    difference = phi - chi
    consequent = (
        TemplatePolynomial.from_symbol(NAIVE_THRESHOLD_SYMBOL)
        - TemplatePolynomial.from_polynomial(difference)
    )
    constraint = ImplicationConstraint(
        premise=analyzer.combined_theta0(),
        consequent=consequent,
        name="naive-threshold",
    )
    model = LPModel()
    encode_implication(
        constraint, model, FreshNameGenerator(), analyzer.config.max_products
    )
    model.minimize(AffineExpr.variable(NAIVE_THRESHOLD_SYMBOL))
    solution = get_backend(analyzer.config.lp_backend).solve(model)
    if solution.status is not LPStatus.OPTIMAL:
        return DiffCostResult(
            status=AnalysisStatus.UNKNOWN,
            potential_new=potential_new,
            anti_potential_old=anti_potential_old,
            message="naive baseline: threshold LP failed",
        )
    return DiffCostResult(
        status=AnalysisStatus.THRESHOLD,
        threshold=solution.value(NAIVE_THRESHOLD_SYMBOL),
        potential_new=potential_new,
        anti_potential_old=anti_potential_old,
        message="naive two-pass baseline",
    )
