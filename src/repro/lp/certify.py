"""Float warm-started, exactly certified LP solving (backend ``exact-warm``).

The solve ladder, in the style of iteratively-refined exact solvers
(QSopt_ex, SoPlex):

1. **Float stage** — solve the standard-form LP in floating point
   with the HiGHS bindings scipy bundles, and nominate the optimal
   basis HiGHS ends at: its basic columns, plus the artificial
   ``n + i`` of each row whose slack it keeps basic
   (:func:`scipy_candidate_basis`).  Float answers are never trusted;
   they only nominate a candidate basis.  HiGHS's model of a form is
   built once and kept on the form; a later nomination only changes
   its costs and clears HiGHS's solver state, so it solves from
   scratch, as a fresh model would.
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
:func:`scipy_candidate_basis` too, all from the one HiGHS model of
their form.
"""

from __future__ import annotations

from time import perf_counter

from scipy.optimize._highspy import _core as highs

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
    optimal_solution,
    standardize,
)

# -- float stage -----------------------------------------------------------

def scipy_candidate_basis(form: SparseStandardForm,
                          stats: dict) -> list[int] | None:
    """HiGHS's optimal basis for ``form``: its basic columns, then the
    artificial ``n + i`` of each basic row.  ``None`` when HiGHS reports
    no optimum (``stats["float_status"]`` holds its model status) or its
    basis does not have ``m`` members.

    HiGHS's model of the form is built once, kept as
    ``form.float_model`` (``stats["float_models"]`` counts the build),
    and on later calls only takes the form's current costs."""
    start = perf_counter()
    try:
        with float_stage("scipy-candidate"):
            return _scipy_candidate_basis(form, stats)
    finally:
        stats["time_float"] = (stats.get("time_float", 0.0)
                               + perf_counter() - start)


def _scipy_candidate_basis(form: SparseStandardForm, stats: dict) -> list[int] | None:  # lint: allow[float-cast, float-literal] declared float warm-start stage
    m, n = form.num_rows, form.num_cols
    # Most costs are zero, and float() of a Fraction is slow.
    costs = [float(c) if c else 0.0 for c in form.costs]
    solver = form.float_model
    if solver is None:
        solver = form.float_model = _highs_model(form, costs)
        stats["float_models"] = stats.get("float_models", 0) + 1
    else:
        # clearSolver() drops the last basis, so HiGHS solves from
        # scratch and nominates what a fresh model would.  Re-running
        # from the last basis moved nominations, and with them
        # certificates, and took more exact work to certify them.
        solver.changeColsCost(n, range(n), costs)
        solver.clearSolver()
    solver.run()
    status = solver.getModelStatus()
    stats["float_status"] = status.name
    if status != highs.HighsModelStatus.kOptimal:
        return None
    # A basic row keeps its slack, a unit column, in HiGHS's basis;
    # the row's artificial is the same unit column here.
    basic = highs.HighsBasisStatus.kBasic
    optimal = solver.getBasis()
    basis = [j for j, s in enumerate(optimal.col_status) if s == basic]
    basis += [n + i for i, s in enumerate(optimal.row_status) if s == basic]
    return basis if len(basis) == m else None


def _highs_model(form: SparseStandardForm, costs: list[float]):  # lint: allow[float-cast] declared float warm-start stage
    """A HiGHS solver holding ``form`` with the given float costs."""
    m, n = form.num_rows, form.num_cols
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = costs
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [highs.kHighsInf] * n
    lp.row_lower_ = lp.row_upper_ = [float(b) for b in form.rhs]
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, m
    start, index, value = [0], [], []
    for col in form.cols:
        for i, coefficient in sorted(col.items()):
            index.append(i)
            value.append(float(coefficient))
        start.append(len(index))
    matrix.start_, matrix.index_, matrix.value_ = start, index, value
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(lp)
    return solver


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
        return optimal_solution(model, form, solver.assignment(), stats)
