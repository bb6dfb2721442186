"""Fourier-Motzkin in ``Fraction`` arithmetic: the projection oracle.

The invariant domain (:mod:`repro.invariants.polyhedron`) projects on
integer rows.  This module keeps the projection it replaced: every
positive×negative combination is formed through ``AffineExpr.scale``
and normalized by scaling again (lcm of the denominators, then gcd of
the numerators).  It is slower, but it shares no row code with the
kernel: only :class:`~repro.ts.guards.LinIneq` as a value type and
:meth:`~repro.invariants.polyhedron.Polyhedron.reduce` for the
``max_constraints`` path.  Tests import it as a plain module
(``from fraction_projection import project_out``).

``events``, where a function takes it, counts what a call met
(``duplicate``, ``trivial``, ``contradiction``, ``reduce``,
``empty``, ``truncate``), so property tests can show they covered each
case.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Sequence

from repro.invariants.intervals import Interval, polynomial_range
from repro.invariants.polyhedron import Polyhedron
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq
from repro.ts.system import COST_VAR, NondetUpdate, Transition

_POST_SUFFIX = "!post"


def normalize(ineq: LinIneq) -> LinIneq:
    """Scale ``ineq`` so its coefficients are coprime integers, by two
    ``AffineExpr.scale`` round trips."""
    expr = ineq.expr
    coeffs = [coeff for _, coeff in expr.coefficients()]
    coeffs.append(expr.constant_term)
    nonzero = [c for c in coeffs if c != 0]
    if not nonzero:
        return ineq
    denominator_lcm = 1
    for c in nonzero:
        denominator_lcm = denominator_lcm * c.denominator // gcd(
            denominator_lcm, c.denominator)
    scaled = expr.scale(denominator_lcm)
    numerators = [coeff.numerator for _, coeff in scaled.coefficients()]
    numerators.append(scaled.constant_term.numerator)
    divisor = 0
    for n in numerators:
        divisor = gcd(divisor, abs(n))
    if divisor > 1:
        scaled = scaled.scale(Fraction(1, divisor))
    return LinIneq(scaled)


def eliminate(ineqs: list[LinIneq], var: str,
              events: Counter | None = None) -> list[LinIneq]:
    """One Fourier-Motzkin elimination step."""
    events = Counter() if events is None else events
    free: list[LinIneq] = []
    positive: list[LinIneq] = []
    negative: list[LinIneq] = []
    for ineq in ineqs:
        coefficient = ineq.expr.coefficient(var)
        if coefficient > 0:
            positive.append(ineq)
        elif coefficient < 0:
            negative.append(ineq)
        else:
            free.append(ineq)
    for pos in positive:
        a_pos = pos.expr.coefficient(var)
        for neg in negative:
            a_neg = neg.expr.coefficient(var)
            combined = pos.expr.scale(-a_neg) + neg.expr.scale(a_pos)
            free.append(normalize(LinIneq(combined)))
    # Drop syntactic duplicates and trivia.
    result: list[LinIneq] = []
    seen: set[LinIneq] = set()
    for ineq in free:
        if ineq.is_trivial():
            events["trivial"] += 1
            continue
        if ineq in seen:
            events["duplicate"] += 1
            continue
        if ineq.is_contradiction():
            events["contradiction"] += 1
        seen.add(ineq)
        result.append(ineq)
    return result


def project_constraints(ineqs: Sequence[LinIneq], variables: Sequence[str],
                        max_constraints: int = 64,
                        events: Counter | None = None) -> list[LinIneq]:
    """The elimination loop: ``variables`` eliminated cheapest first
    from normal-form ``ineqs``, pruning past ``max_constraints``.  A
    prune that finds the constraints empty ends the loop with the
    contradiction ``-1 >= 0`` alone, so the projection is bottom."""
    events = Counter() if events is None else events
    current = list(ineqs)
    remaining = list(variables)
    while remaining:
        # Pick the variable with the fewest pairings to limit growth.
        def elimination_size(var: str) -> int:
            pos = sum(1 for i in current if i.expr.coefficient(var) > 0)
            neg = sum(1 for i in current if i.expr.coefficient(var) < 0)
            return pos * neg

        remaining.sort(key=elimination_size)
        var = remaining.pop(0)
        current = eliminate(current, var, events)
        if len(current) > max_constraints:
            events["reduce"] += 1
            reduced = Polyhedron(current).reduce()
            if reduced.is_bottom():
                events["empty"] += 1
                return [LinIneq(AffineExpr.constant(-1))]
            current = list(reduced.ineqs)
            if len(current) > max_constraints:
                events["truncate"] += 1
                current = current[:max_constraints]
    return current


def project_out(polyhedron: Polyhedron, variables: Sequence[str],
                max_constraints: int = 64,
                events: Counter | None = None) -> Polyhedron:
    """``Polyhedron.project_out`` by the Fraction elimination."""
    if polyhedron.is_bottom():
        return polyhedron
    return Polyhedron(project_constraints(
        polyhedron.ineqs, variables, max_constraints, events))


def transfer(polyhedron: Polyhedron, transition: Transition,
             state_variables: Sequence[str]) -> Polyhedron:
    """``Polyhedron.transfer`` through ``LinIneq`` constructors, the
    Fraction projection and a rename of each projected ``LinIneq``."""
    guarded = polyhedron.meet(transition.guard)
    if guarded.is_empty():
        return Polyhedron.bottom()

    constraints: list[LinIneq] = list(guarded.ineqs)
    primed: list[str] = []
    interval_cache: dict[str, Interval] | None = None
    for var in state_variables:
        if var == COST_VAR:
            continue
        update = transition.update_of(var)
        post = var + _POST_SUFFIX
        primed.append(var)
        post_poly = Polynomial.variable(post)
        if isinstance(update, NondetUpdate):
            if update.lower is not None:
                constraints.append(LinIneq.geq(post_poly, update.lower))
            if update.upper is not None:
                constraints.append(LinIneq.leq(post_poly, update.upper))
            continue
        if update.is_affine():
            constraints.extend(LinIneq.equals(post_poly, update))
            continue
        if interval_cache is None:
            interval_cache = guarded.all_bounds()
        value_range = polynomial_range(update, interval_cache)
        if value_range.lower is not None:
            constraints.append(LinIneq.geq(
                post_poly, Polynomial.constant(value_range.lower)))
        if value_range.upper is not None:
            constraints.append(LinIneq.leq(
                post_poly, Polynomial.constant(value_range.upper)))

    projected = project_out(
        Polyhedron([normalize(ineq) for ineq in constraints]),
        [var for var in state_variables if var != COST_VAR])
    if projected.is_bottom():
        # Renaming a bottom projection's (empty) constraint list once
        # read as top; an empty post-state is bottom.
        return projected
    renaming = {var + _POST_SUFFIX: var for var in primed}
    return Polyhedron(normalize(ineq.rename(renaming))
                      for ineq in projected.ineqs)
