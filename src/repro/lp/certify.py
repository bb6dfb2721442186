"""Float warm-started, exactly certified LP solving (backend ``exact-warm``).

The solve ladder, in the style of iteratively-refined exact solvers
(QSopt_ex, SoPlex):

1. **Float stage** — solve the standard-form LP in floating point
   with scipy's HiGHS.  HiGHS's vertex, reduced costs and row duals
   are crossed over to a basis that is primal and dual feasible up to
   float noise (:func:`_crossover_basis`).  Float answers are never
   trusted; they only nominate a candidate basis.
2. **Exact certification** — refactorize the candidate basis over
   ``Fraction``; check primal feasibility exactly (``B^{-1} b >= 0``,
   artificials at zero) and dual feasibility by exact pricing.  If both
   hold the float basis *is* the exact optimum: ``path = "certified"``,
   zero exact pivots — the common case.
3. **Exact resume** — primal feasible but not dual feasible: exact
   phase-2 pivoting resumes from the candidate basis
   (``path = "resumed"``).  Primal *infeasible* but exactly dual
   feasible: the dual simplex (:mod:`repro.lp.dual`) re-optimizes from
   the same basis (``path = "dual"``).
4. **Fallback** — an unusable basis (singular, neither feasibility) or
   a non-optimal HiGHS verdict (no basis nominated) falls back to the
   exact two-phase solve (``path = "fallback"``), so every answer is
   exact regardless of what floating point did.

All reported values are Fractions.  Optima are bit-identical to the
pure ``exact`` backend's: both terminate at an exactly-verified optimal
basis of the same LP, and the optimal objective value is unique.

:func:`solve_form_exact` exposes the whole ladder as a reusable
routine returning the *live* exact solver, which is what
:class:`~repro.lp.dual.IncrementalLP` builds its factorized-basis
re-solves on; its re-solves take their nominations from
:func:`scipy_candidate_basis` too.
"""

from __future__ import annotations

from time import perf_counter

import numpy
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from repro.lint.sanitizer import float_stage
from repro.lp.dual import exact_dual_feasible, run_dual_simplex
from repro.lp.model import LPModel
from repro.lp.revised import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    WARM_INFEASIBLE,
    WARM_READY,
    RevisedSimplex,
    _no_constraint_solution,
)
from repro.lp.solution import LPSolution, LPStatus
from repro.lp.standard import (
    SparseStandardForm,
    model_objective_value,
    recover_values,
    standardize,
)

#: Float values below this are treated as zero during crossover.
_SUPPORT_TOL = 1e-9
#: Reduced costs and row duals at or below this, relative to the
#: largest cost, count as zero during crossover (HiGHS leaves ~1e-15
#: relative noise on the Handelman LPs).
_PRICE_TOL = 1e-9
#: Minimal acceptable elimination pivot while selecting basis columns.
_PIVOT_TOL = 1e-7


def _crossover_basis(form: SparseStandardForm, result) -> list[int] | None:  # lint: allow[float-cast] declared float warm-start stage
    """Select a basis from HiGHS's vertex solution and its marginals.

    A basis is optimal when it holds the vertex's support (so ``x_B``
    is the vertex: primal feasible) and only columns whose reduced
    cost ``d_j = c_j - y.a_j`` is zero (so the simplex multipliers it
    defines are HiGHS's row duals ``y`` and every nonbasic column
    prices out ``d_j >= 0``: dual feasible).  An artificial column
    ``e_i`` costs zero in phase 2, so it prices out at zero only in a
    row whose dual ``y_i`` is zero.  Columns are therefore scanned in
    this order, each accepted greedily when independent of the ones
    already selected (float Gaussian elimination):

    1. the support, by descending value;
    2. the other zero-priced columns;
    3. the artificials of zero-dual rows;
    4. the remaining columns by increasing reduced cost;
    5. the remaining artificials, which guarantee completion.

    When the first three groups span the rows the candidate is both
    primal and dual feasible up to float noise, and exact pricing
    certifies it with zero pivots.  Otherwise the later groups keep it
    a basis and exact phase 2 finishes.  Artificials picked here sit
    basic at zero and are pinned by the phase-2 ratio test, so they
    never distort the solved program.
    """
    m, n = form.num_rows, form.num_cols
    x = result.x
    reduced = result.lower.marginals
    duals = result.eqlin.marginals
    scale = max(1.0, max((abs(float(c)) for c in form.costs), default=0.0))
    tol = _PRICE_TOL * scale
    support = sorted(
        (j for j in range(n) if x[j] > _SUPPORT_TOL),
        key=lambda j: (-x[j], j),
    )
    in_support = set(support)
    zero_priced, priced = [], []
    for j in range(n):
        if j not in in_support:
            (zero_priced if abs(reduced[j]) <= tol else priced).append(j)
    priced.sort(key=lambda j: (reduced[j], j))
    zero_dual, nonzero_dual = [], []
    for i in range(m):
        (zero_dual if abs(duals[i]) <= tol else nonzero_dual).append(n + i)
    order = support + zero_priced + zero_dual + priced + nonzero_dual

    basis: list[int] = []
    used = numpy.zeros(m, dtype=bool)
    eliminated: list[tuple[int, object]] = []  # (pivot row, unit vector)
    for j in order:
        if len(basis) == m:
            break
        vector = numpy.zeros(m)
        if j < n:
            for i, value in form.cols[j].items():
                vector[i] = float(value)
        else:
            vector[j - n] = 1.0
        for pivot, unit in eliminated:
            factor = vector[pivot]
            if factor:
                vector -= factor * unit
        candidates = numpy.where(used, 0.0, numpy.abs(vector))
        pivot = int(candidates.argmax())
        if candidates[pivot] <= _PIVOT_TOL:
            continue
        vector /= vector[pivot]
        eliminated.append((pivot, vector))
        used[pivot] = True
        basis.append(j)
    return basis if len(basis) == m else None


# -- float stage -----------------------------------------------------------

def scipy_candidate_basis(form: SparseStandardForm,
                          stats: dict) -> list[int] | None:
    """HiGHS solve + support crossover; ``None`` when HiGHS reports no
    optimum (``stats["float_status"]``) or the crossover finds no
    basis."""
    start = perf_counter()
    try:
        with float_stage("scipy-candidate"):
            return _scipy_candidate_basis(form, stats)
    finally:
        stats["time_float"] = (stats.get("time_float", 0.0)
                               + perf_counter() - start)


def _scipy_candidate_basis(form: SparseStandardForm, stats: dict) -> list[int] | None:  # lint: allow[float-cast] declared float warm-start stage
    m, n = form.num_rows, form.num_cols
    data, indices, indptr = [], [], [0]
    for col in form.cols:
        for i, value in sorted(col.items()):
            data.append(float(value))
            indices.append(i)
        indptr.append(len(data))
    matrix = csc_matrix(
        (numpy.array(data), numpy.array(indices), numpy.array(indptr)),
        shape=(m, n),
    )
    result = linprog(
        c=numpy.array([float(c) for c in form.costs]),
        A_eq=matrix,
        b_eq=numpy.array([float(b) for b in form.rhs]),
        bounds=(0, None),
        method="highs",
    )
    stats["float_status"] = int(result.status)
    if result.status != 0 or result.x is None:
        return None
    return _crossover_basis(form, result)


# -- exact stage -----------------------------------------------------------

def solve_form_exact(form: SparseStandardForm, stats: dict, *,
                     max_iterations: int = 200_000,
                     bland_trigger: int = 24,
                     eta_limit: int | None = None,
                     ) -> tuple[RevisedSimplex, str]:
    """Run the full warm-start ladder on ``form``; returns the *live*
    exact solver and its terminal status (``optimal`` / ``unbounded`` /
    ``infeasible``).  ``stats`` records the path taken, the HiGHS
    candidate's verdict and the float stage's status and time.
    ``eta_limit`` overrides the exact solvers' refactorization policy
    (incremental callers keep longer eta files than one-shot solves
    would).
    """
    exact_kwargs: dict = {"max_iterations": max_iterations,
                          "bland_trigger": bland_trigger}
    if eta_limit is not None:
        exact_kwargs["eta_limit"] = eta_limit
    basis = scipy_candidate_basis(form, stats)
    if basis is not None:
        solver = RevisedSimplex(form, **exact_kwargs)
        verdict = solver.warm_start(basis)
        stats["warm_scipy"] = verdict
        if verdict is WARM_READY:
            status = solver._run_phase(solver.phase2_costs(), 2)
            stats["basis_source"] = "scipy"
            stats["path"] = (
                "certified"
                if status is OPTIMAL and solver.stats["phase2_pivots"] == 0
                else "resumed"
            )
            return solver, status
        if verdict is WARM_INFEASIBLE and exact_dual_feasible(
                solver, solver.phase2_costs()):
            # Primal infeasible basis with exactly nonnegative reduced
            # costs: the dual simplex repairs it in place instead of
            # throwing the factorization away.
            status = run_dual_simplex(solver, solver.phase2_costs())
            stats["basis_source"] = "scipy"
            stats["path"] = "dual"
            return solver, status

    stats["path"] = "fallback"
    solver = RevisedSimplex(form, **exact_kwargs)
    return solver, solver.solve_two_phase()


class WarmStartExactBackend:
    """Exact optimum via a float warm start with rational certification."""

    name = "exact-warm"

    def __init__(self, max_iterations: int = 200_000,
                 bland_trigger: int = 24):
        self._max_iterations = max_iterations
        self._bland_trigger = bland_trigger

    def solve(self, model: LPModel) -> LPSolution:
        """Solve ``model`` exactly; all reported values are Fractions."""
        stats: dict = {"path": None}
        form = standardize(model, stats)
        if form.num_rows == 0:
            solution = _no_constraint_solution(model, form)
            stats["path"] = "certified"
            solution.stats = stats
            return solution

        solver, status = solve_form_exact(
            form, stats, max_iterations=self._max_iterations,
            bland_trigger=self._bland_trigger,
        )
        stats.update(solver.stats)
        if status is UNBOUNDED:
            message = ("phase-2 unbounded" if stats["path"] == "fallback"
                       else "phase-2 unbounded (warm start)")
            return LPSolution(LPStatus.UNBOUNDED, message=message,
                              stats=stats)
        if status is INFEASIBLE:
            message = ("phase-1 optimum positive"
                       if stats["path"] == "fallback"
                       else "dual simplex certified infeasibility")
            return LPSolution(LPStatus.INFEASIBLE, message=message,
                              stats=stats)
        values = recover_values(form, solver.assignment())
        return LPSolution(
            LPStatus.OPTIMAL, values=values,
            objective_value=model_objective_value(model, values),
            stats=stats,
        )
