"""Floating-point LP backend based on ``scipy.optimize.linprog`` (HiGHS).

This is the production backend, standing in for the paper's Gurobi.  The
model's exact rational data is converted to floats; results are floats
and downstream users rationalize them before symbolic re-checking.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.lp.model import EQ, GE, LPModel
from repro.lp.solution import LPSolution, LPStatus


class ScipyBackend:
    """Solve LP models with ``scipy.optimize.linprog(method="highs")``."""

    name = "scipy"

    def solve(self, model: LPModel) -> LPSolution:
        """Solve ``model``; statuses map 2→infeasible and 3→unbounded."""
        names = model.variable_names
        index = {name: i for i, name in enumerate(names)}
        num_vars = len(names)

        if num_vars == 0:
            # Degenerate but legal: a model with no variables is feasible
            # iff every (constant) constraint holds.
            for constraint in model.constraints:
                value = float(constraint.expr.constant_term)
                ok = value == 0 if constraint.sense == EQ else value >= 0
                if not ok:
                    return LPSolution(LPStatus.INFEASIBLE,
                                      message="constant constraint violated")
            return LPSolution(LPStatus.OPTIMAL, values={}, objective_value=0.0)

        objective = np.zeros(num_vars)
        objective_constant = 0.0
        if model.objective is not None:
            for name, coeff in model.objective.expr.coefficients():
                objective[index[name]] = float(coeff)
            objective_constant = float(model.objective.expr.constant_term)

        eq_rows: list[tuple[list[int], list[float], float]] = []
        ub_rows: list[tuple[list[int], list[float], float]] = []
        for constraint in model.constraints:
            cols: list[int] = []
            vals: list[float] = []
            for name, coeff in constraint.expr.coefficients():
                cols.append(index[name])
                vals.append(float(coeff))
            constant = float(constraint.expr.constant_term)
            if constraint.sense == EQ:
                # expr == 0  <=>  coeffs . x == -constant
                eq_rows.append((cols, vals, -constant))
            elif constraint.sense == GE:
                # expr >= 0  <=>  -coeffs . x <= constant
                ub_rows.append((cols, [-v for v in vals], constant))

        a_eq, b_eq = _assemble(eq_rows, num_vars)
        a_ub, b_ub = _assemble(ub_rows, num_vars)

        bounds = []
        for name in names:
            lower, upper = model.bounds(name)
            bounds.append((
                None if lower is None else float(lower),
                None if upper is None else float(upper),
            ))

        # Tight feasibility tolerances matter for soundness here: the
        # Handelman multipliers are multiplied by products with
        # coefficients up to ~1e8 (squared invariant bounds), so a bound
        # violated by HiGHS' default 1e-7 slack can shift the threshold
        # by thousands.  HiGHS occasionally fails outright at the
        # tightest setting, so a ladder relaxes until the solve
        # succeeds.  Nothing checks a threshold from this backend
        # exactly: the exact backends' thresholds and every refutation
        # (which always re-solves exactly) are exact, and this one's
        # are not.  ROADMAP.md's proof-carrying-thresholds item plans
        # the check.
        result = None
        for tolerance in (1e-10, 1e-9, 1e-8, None):
            options = {}
            if tolerance is not None:
                options = {
                    "primal_feasibility_tolerance": tolerance,
                    "dual_feasibility_tolerance": tolerance,
                }
            result = linprog(
                c=objective,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
                options=options,
            )
            if result.status == 0:
                break
            # Infeasible/unbounded/error verdicts at a tight tolerance
            # can be spurious (HiGHS gives up before converging); a
            # genuinely infeasible or unbounded instance keeps that
            # verdict at the default rung, which is the one we trust.

        if result.status == 2:
            # HiGHS presolve conflates primal infeasibility with dual
            # infeasibility: feasible-but-unbounded instances (e.g. a
            # free variable riding an improving ray) come back as plain
            # "infeasible".  A presolve-free re-solve distinguishes the
            # two; the exact backends agree with that verdict.  Only the
            # ambiguous "infeasible" verdict is re-solved, and only a
            # definitive retry replaces it — a retry that hits iteration
            # limits or numerical trouble must not downgrade a trusted
            # INFEASIBLE to ERROR.
            retry = linprog(
                c=objective,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
                options={"presolve": False},
            )
            if retry.status in (0, 2, 3):
                result = retry

        if result.status == 2:
            return LPSolution(LPStatus.INFEASIBLE, message=result.message)
        if result.status == 3:
            return LPSolution(LPStatus.UNBOUNDED, message=result.message)
        if result.status != 0 or result.x is None:
            return LPSolution(LPStatus.ERROR, message=result.message)

        values = {name: float(result.x[index[name]]) for name in names}
        objective_value = None
        if model.objective is not None:
            objective_value = float(result.fun) + objective_constant
        return LPSolution(LPStatus.OPTIMAL, values=values,
                          objective_value=objective_value,
                          message=result.message)


def _assemble(rows: list[tuple[list[int], list[float], float]],
              num_vars: int):
    """Build a CSR matrix and RHS vector from sparse row triples."""
    if not rows:
        return None, None
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    rhs: list[float] = []
    for cols, vals, b in rows:
        data.extend(vals)
        indices.extend(cols)
        indptr.append(len(data))
        rhs.append(b)
    matrix = csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)),
        shape=(len(rows), num_vars),
    )
    return matrix, np.array(rhs)
