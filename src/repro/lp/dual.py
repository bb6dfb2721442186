"""Dual simplex and the incremental re-solve API (``IncrementalLP``).

The primal simplex in :mod:`repro.lp.revised` needs a *primal* feasible
basis to start from.  Two situations produce a basis that is dual
feasible (all reduced costs nonnegative) but primal infeasible, where
restarting from scratch throws away a perfectly good factorization:

- a HiGHS-nominated basis whose exact refactorization reveals a
  negative basic value (:mod:`repro.lp.certify`'s ``dual`` path);
- a right-hand-side change — e.g. tightening a variable bound — applied
  to a previously *optimal* basis: costs are unchanged, so the basis
  stays dual feasible, and only primal feasibility needs repair.

:func:`run_dual_simplex` repairs both in place, driving the same
:class:`~repro.lp.basis.BasisFactorization` the primal pivots use:
pick the most-violated basic value (a basic artificial off zero counts
as violated in either direction — it means ``A x = b`` is not met), a
dual ratio test over that row's pivot row and the exact reduced costs
(kept across pivots as in the primal solver) chooses the entering
column, and the shared ``_pivot`` pushes an eta.  Anti-cycling mirrors
the primal solver: after ``bland_trigger`` consecutive degenerate
steps the leaving rule switches to Bland's smallest-basic-index choice
(the entering rule always breaks min-ratio ties toward the smallest
index, which the dual Bland guarantee requires).

:class:`IncrementalLP` packages this into the one-encode re-solve loop
used by threshold refutation: standardize a model once, factorize once,
build HiGHS's model once, then re-optimize per objective (column
exchanges onto a basis HiGHS nominates, certified by exact pricing) or
per bound tweak (dual simplex after an rhs patch) — never re-encoding,
and refactorizing only when the eta file says so.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from repro.errors import LPError
from repro.lint.sanitizer import exact_method, exact_region
from repro.lp.model import LPModel
from repro.lp.revised import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    WARM_READY,
    RevisedSimplex,
    _no_constraint_solution,
)
from repro.lp.solution import LPSolution, LPStatus
from repro.lp.standard import optimal_solution, standardize
from repro.utils.rationals import Numeric, as_fraction

_ZERO = Fraction(0)

#: Counters propagated from the live solver into IncrementalLP totals.
_SOLVER_COUNTERS = (
    "pivots", "phase1_pivots", "phase2_pivots", "dual_pivots",
    "degenerate_pivots", "bland_pivots", "refactorizations",
    "factorizations", "eta_pivots",
)

#: Phase timers (seconds) propagated the same way; float-valued, so
#: they fold with a float delta loop rather than the int counter one.
_SOLVER_TIMERS = (
    "time_pricing", "time_ratio", "time_update", "time_certify",
    "time_refactor", "time_ftran", "time_btran", "time_eta", "time_setup",
)


def exact_dual_feasible(solver: RevisedSimplex, costs: list) -> bool:
    """True iff every nonbasic structural column prices out ``>= 0``.

    A dual feasible basis is a valid dual-simplex start.  The pricing
    sweep is the rational certification step proper, so it is timed as
    ``time_certify``.
    """
    d = solver._reduced_costs(costs, timer="time_certify")
    return solver._entering(d, bland=True) < 0


def run_dual_simplex(solver: RevisedSimplex, costs: list) -> str:
    """Re-optimize from a dual feasible basis; ``optimal`` or
    ``infeasible`` (the dual is unbounded, with an exact Farkas row).

    The caller is responsible for dual feasibility
    (:func:`exact_dual_feasible`); artificial columns never enter, so
    the solved program is always the original one.  Basic artificials
    off zero — possible after an rhs patch on a basis that contains a
    redundant-row artificial — are treated as violated in either
    direction and driven back to zero.
    """
    with exact_region("dual-simplex"):
        return _dual_simplex_loop(solver, costs)


def _dual_simplex_loop(solver: RevisedSimplex, costs: list) -> str:
    solver.phase = 2
    m, n = solver.m, solver.n
    in_basis = solver.in_basis
    d = solver._reduced_costs(costs)
    bland = False
    degenerate_run = 0
    for _ in range(solver.max_iterations):
        # Leaving row: most violated basic value (Bland: smallest basic
        # index among the violated ones).  ``sign`` orients the row so
        # the ratio test below always sees "basic value too low".
        start = perf_counter()
        leaving, worst, sign = -1, None, 1
        for i in range(m):
            xi = solver.xb[i]
            if solver.basis[i] >= n:
                if xi > 0:
                    violation, s = xi, -1
                elif xi < 0:
                    violation, s = -xi, 1
                else:
                    continue
            elif xi < 0:
                violation, s = -xi, 1
            else:
                continue
            if bland:
                if leaving < 0 or solver.basis[i] < solver.basis[leaving]:
                    leaving, sign = i, s
            elif (worst is None or violation > worst):
                worst, leaving, sign = violation, i, s
        solver.stats["time_pricing"] += perf_counter() - start
        if leaving < 0:
            return OPTIMAL

        alpha = solver._pivot_row(leaving)
        # Dual ratio test over the row oriented by ``sign``: entering
        # minimizes d_j / -alpha_j over alpha_j < 0; smallest index on
        # ties (required for termination under the Bland leaving rule,
        # and deterministic).
        start = perf_counter()
        best_j, best_ratio = -1, None
        for j, a in alpha.items():
            if sign < 0:
                a = -a
            if a >= 0 or in_basis[j]:
                continue
            ratio = d[j] / (-a)
            if (best_ratio is None or ratio < best_ratio
                    or (ratio == best_ratio and j < best_j)):
                best_j, best_ratio = j, ratio
        solver.stats["time_pricing"] += perf_counter() - start
        if best_j < 0:
            return INFEASIBLE

        w = solver._ftran(solver.cols[best_j])
        solver._pivot(leaving, best_j, w)
        solver._update_reduced_costs(d, alpha, best_j)
        solver.stats["pivots"] += 1
        solver.stats["dual_pivots"] += 1
        if bland:
            solver.stats["bland_pivots"] += 1
        if not best_ratio:
            solver.stats["degenerate_pivots"] += 1
            degenerate_run += 1
            if degenerate_run >= solver.bland_trigger:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    raise LPError("dual simplex iteration limit exceeded")


class IncrementalLP:
    """Exact LP over one constraint system, re-solved many times.

    Standardizes ``model`` once and keeps a live
    :class:`~repro.lp.revised.RevisedSimplex` (LU + eta factorization)
    across solves:

    - :meth:`solve` with a new objective rewinds to the *anchor* (an
      earlier primal feasible basis whose factorization is a prefix of
      the eta file), lets HiGHS nominate a basis for the new costs
      (:func:`repro.lp.certify.scipy_candidate_basis`, on the HiGHS
      model the form keeps; ``stats["float_models"]`` counts builds),
      moves the live basis onto it by column exchanges — one ``ftran``
      and one eta push per entering column, no fresh LU — and resumes
      exact phase 2.  When the nomination is dual feasible, phase 2
      certifies it with zero pivots (``path = "resolve:certified"``);
    - :meth:`update_upper` patches the standard form's right-hand side
      in place (the basis stays *dual* feasible when only ``b``
      changes), drops the form's HiGHS model, which holds the old
      right-hand side, and repairs primal feasibility with the dual
      simplex.

    The first solve runs the ``exact-warm`` ladder of
    :func:`repro.lp.certify.solve_form_exact` (HiGHS basis + exact
    certification).  Every reported value is a ``Fraction``; optima are
    bit-identical to cold solves of the same model because the optimal
    objective value of an LP is unique.

    Why nominate instead of pivoting onward from the previous optimum:
    on the Handelman refutation LPs, the first optimal vertex usually
    stays optimal for the next witness, but its basis is not dual
    feasible for the new costs.  Primal pivots then walk the degenerate
    optimal face — every step has length 0 — for hundreds of pivots
    (874 on ``join``'s five witnesses) before pricing proves
    optimality.  HiGHS's optimal basis is a dual feasible basis of
    that face.  A rejected nomination (singular, or primal
    infeasible) or a missing one (HiGHS found no optimum, e.g. for an
    unbounded objective) falls back to that walk from the anchor
    (``"resolve:walked"``).

    Constraints (and therefore phase-1 feasibility) never change under
    objective swaps, so one exact infeasibility proof is cached and
    replayed until an rhs patch invalidates it.

    ``bland_trigger`` defaults much higher than the cold solvers' 24:
    a fallback walk from the anchor is mostly degenerate, and switching
    to Bland's crawl after 24 degenerate steps made it ~3x longer on
    the Handelman refutation LPs.  Termination is unaffected — Bland
    still engages after the trigger, so cycles cannot persist.
    """

    def __init__(self, model: LPModel, *, max_iterations: int = 200_000,
                 bland_trigger: int = 192, eta_limit: int | None = None):
        self.model = model
        standardize_stats: dict = {}
        self.form = standardize(model, standardize_stats)
        self.max_iterations = max_iterations
        self.bland_trigger = bland_trigger
        # Re-solves keep longer eta files than one-shot solves: the
        # refactorization they would trigger is exactly the exact LU
        # this class amortizes.  Refactor when the eta file reaches the
        # basis dimension — the point where replaying etas on every
        # ftran/btran starts to rival a fresh LU of the m x m basis.
        from repro.lp.basis import DEFAULT_ETA_LIMIT

        self.eta_limit = (max(DEFAULT_ETA_LIMIT, self.form.num_rows)
                          if eta_limit is None else eta_limit)
        self.solver: RevisedSimplex | None = None
        self._infeasible = False
        #: (basis, eta length, refactorization count) of the anchor
        #: basis re-solves start from — see :meth:`_rewind_to_anchor`.
        self._anchor: tuple[list[int], int, int] | None = None
        self._counted: dict[str, float] = {}
        self.stats: dict[str, object] = {
            "solves": 0, "cold_solves": 0, "resolves": 0,
            "dual_resolves": 0, "max_eta": 0, **standardize_stats,
        }
        for key in _SOLVER_COUNTERS:
            self.stats[key] = 0
        for key in _SOLVER_TIMERS:
            self.stats[key] = 0.0
        # HiGHS nominations: models built, and their seconds.
        self.stats["float_models"] = 0
        self.stats["time_float"] = 0.0
        self.stats["time_recover"] = 0.0

    # -- objectives --------------------------------------------------------

    @exact_method("incremental-lp-solve")
    def solve(self, objective=None, *, maximize: bool = False) -> LPSolution:
        """Optimize ``objective`` (an :class:`AffineExpr`; ``None``
        keeps the model's current objective) over the fixed constraints.

        The first call solves cold; later calls re-optimize on the live
        factorization from a nominated basis or the anchor, with primal
        phase-2 pivots only.
        """
        if objective is not None:
            if maximize:
                self.model.maximize(objective)
            else:
                self.model.minimize(objective)
        costs = self._standard_costs()
        self.stats["solves"] += 1
        if self.form.num_rows == 0:
            self.form.costs = costs
            solution = _no_constraint_solution(self.model, self.form)
            solution.stats = {"path": "no-constraints"}
            return solution
        if self._infeasible:
            return LPSolution(
                LPStatus.INFEASIBLE,
                message="constraints unchanged since exact infeasibility "
                        "proof",
                stats={"path": "cached-infeasible"},
            )
        if self.solver is None:
            return self._cold_solve(costs)
        return self._resolve(costs)

    def maximize(self, objective) -> LPSolution:
        """Shorthand for ``solve(objective, maximize=True)``."""
        return self.solve(objective, maximize=True)

    # -- bound tweaks ------------------------------------------------------

    @exact_method("incremental-lp-update")
    def update_upper(self, name: str, upper: Numeric) -> LPSolution:
        """Move ``name``'s upper bound and re-optimize the current
        objective via the dual simplex (costs unchanged, so the
        previous optimal basis stays dual feasible).

        The variable must already carry a finite upper bound — the
        tweak is an rhs patch, and a variable standardized without one
        has no row/shift to patch (declare the bound, e.g. at its
        loosest useful value, before constructing the ``IncrementalLP``).
        """
        upper = as_fraction(upper)
        try:
            lower, old_upper = self.model.bounds(name)
        except KeyError:
            raise LPError(f"unknown variable {name!r}") from None
        if old_upper is None:
            raise LPError(
                f"variable {name!r} has no upper bound to tweak; declare "
                "one before building the incremental LP"
            )
        if lower is not None and upper < lower:
            raise LPError(
                f"variable {name!r} would get empty bounds: "
                f"lower {lower} > upper {upper}"
            )

        if lower is None:
            # Reflected column (x = upper - x'): the shift moves, and
            # every row containing the column absorbs the delta.  The
            # same patch is applied to the form and to the live solver
            # against their *own* column data — the solver may have
            # sign-normalized rows after an earlier patch.
            delta = upper - self.form.shifts[name]
            (col, _factor), = self.form.recover[name]
            if delta:
                for i, a in self.form.cols[col].items():
                    self.form.rhs[i] += a * delta
                if self.solver is not None:
                    for i, a in self.solver.cols[col].items():
                        self.solver.b[i] = self.solver.b[i] + a * delta
            self.form.shifts[name] = upper
        else:
            # Two-sided bounds own an `x + s = upper - lower` row.
            row = self.form.bound_rows[name]
            self.form.rhs[row] = upper - lower
            if self.solver is not None:
                (col, _factor), = self.form.recover[name]
                orientation = self.solver.cols[col][row]
                self.solver.b[row] = orientation * (upper - lower)
        # HiGHS's model of the form still holds the old rhs.
        self.form.float_model = None
        self.model.set_bounds(name, lower, upper)
        self._infeasible = False

        costs = self._standard_costs()
        self.stats["solves"] += 1
        if self.solver is None:
            if self.form.num_rows == 0:  # pragma: no cover - bounds add rows
                self.form.costs = costs
                solution = _no_constraint_solution(self.model, self.form)
                solution.stats = {"path": "no-constraints"}
                return solution
            return self._cold_solve(costs)

        solver = self.solver
        solver.xb = solver.fact.ftran_dense(solver.b)
        if not exact_dual_feasible(solver, solver.phase2_costs()):
            # E.g. the last re-solve ended unbounded: no dual feasible
            # basis to repair from, so this one solve goes cold.
            self.solver = None
            return self._cold_solve(costs)
        status = run_dual_simplex(solver, solver.phase2_costs())
        self.stats["dual_resolves"] += 1
        stats = self._collect(path="dual-resolve")
        if status is INFEASIBLE:
            self._infeasible = True
            return LPSolution(
                LPStatus.INFEASIBLE,
                message="dual simplex certified infeasibility",
                stats=stats,
            )
        # The rhs changed under the anchor: re-anchor at this optimum.
        self._set_anchor()
        return self._optimal_solution(stats)

    # -- internals ---------------------------------------------------------

    def _standard_costs(self) -> list[Fraction]:
        costs = [_ZERO] * self.form.num_cols
        objective = self.model.objective
        if objective is None:
            return costs
        for name, coeff in objective.expr.coefficients():
            parts = self.form.recover.get(name)
            if parts is None:
                raise LPError(
                    f"objective variable {name!r} is not part of the "
                    "incremental model's constraint system"
                )
            coeff = as_fraction(coeff)
            for col, factor in parts:
                costs[col] += coeff * factor
        return costs

    def _cold_solve(self, costs: list[Fraction]) -> LPSolution:
        self.form.costs = costs
        self.stats["cold_solves"] += 1
        self._counted = {}
        ladder_stats: dict = {}
        solver, status = certify.solve_form_exact(
            self.form, ladder_stats,
            max_iterations=self.max_iterations,
            bland_trigger=self.bland_trigger,
            eta_limit=self.eta_limit,
        )
        self.solver = solver
        self._fold_float_stage(ladder_stats)
        stats = self._collect(path=f"cold:{ladder_stats.get('path')}")
        if status is INFEASIBLE:
            self._infeasible = True
            self._anchor = None
            return LPSolution(LPStatus.INFEASIBLE,
                              message="phase-1 optimum positive",
                              stats=stats)
        # Optimal or unbounded, the basis is primal feasible: anchor
        # here, never at a basis of a solver this one replaced.
        self._set_anchor()
        if status is UNBOUNDED:
            return LPSolution(LPStatus.UNBOUNDED,
                              message="phase-2 unbounded", stats=stats)
        return self._optimal_solution(stats)

    def _set_anchor(self) -> None:
        """Remember the current basis as the start point of future
        re-solves (valid while no refactorization replaces the LU)."""
        solver = self.solver
        self._anchor = (list(solver.basis), len(solver.fact.etas),
                        solver.stats["refactorizations"])

    def _rewind_to_anchor(self) -> None:
        """Restore the anchor basis in O(1) by truncating the eta file.

        Chaining re-solves from the previous witness's basis would let
        the eta file grow without bound; every re-solve instead starts
        from the anchor, whose factorization is the eta-file prefix.  A
        refactorization in between rebuilds the LU for a *newer*,
        still primal feasible basis — the old prefix is gone, so that
        newer basis becomes the anchor.
        """
        basis, eta_length, refactorizations = self._anchor
        if self.solver.stats["refactorizations"] != refactorizations:
            self._set_anchor()
        else:
            self._truncate_to(basis, eta_length)

    def _restore_anchor(self) -> None:
        """Return to the anchor after a rejected exchange.  When an
        exchange refactorized, the anchor's factorization is no longer
        an eta-file prefix, so the anchor basis gets a fresh LU."""
        basis, eta_length, refactorizations = self._anchor
        solver = self.solver
        if solver.stats["refactorizations"] == refactorizations:
            self._truncate_to(basis, eta_length)
            return
        if solver.warm_start(basis) is not WARM_READY:
            raise LPError("the anchor basis of a re-solve is not primal "
                          "feasible")
        self._set_anchor()

    def _truncate_to(self, basis: list[int], eta_length: int) -> None:
        solver = self.solver
        if len(solver.fact.etas) == eta_length:
            return
        del solver.fact.etas[eta_length:]
        for j in solver.basis:
            solver.in_basis[j] = False
        solver.basis = list(basis)
        for j in solver.basis:
            solver.in_basis[j] = True
        solver.xb = solver.fact.ftran_dense(solver.b)

    def _exchange_nomination(self) -> str:
        """Move the live basis from the anchor onto a basis HiGHS
        nominates for the current costs; returns the ``WARM_*`` verdict
        of the exchange, or ``"none"`` when nothing was nominated.

        A rejected nomination (singular, or primal infeasible) leaves
        the solver back at the primal feasible anchor.
        """
        ladder_stats: dict = {}
        basis = certify.scipy_candidate_basis(self.form, ladder_stats)
        self._fold_float_stage(ladder_stats)
        if basis is None:
            return "none"
        verdict = self.solver.exchange_basis(basis)
        if verdict is not WARM_READY:
            self._restore_anchor()
        return verdict

    def _fold_float_stage(self, ladder_stats: dict) -> None:
        for key in ("float_models", "time_float"):
            self.stats[key] += ladder_stats.get(key, 0)

    def _resolve(self, costs: list[Fraction]) -> LPSolution:
        solver = self.solver
        solver.costs = costs
        self.form.costs = costs
        self._rewind_to_anchor()
        nomination = self._exchange_nomination()
        pivots = solver.stats["pivots"]
        status = solver._run_phase(solver.phase2_costs(), 2)
        if nomination is not WARM_READY:
            path = "resolve:walked"
        elif solver.stats["pivots"] == pivots:
            path = "resolve:certified"
        else:
            path = "resolve:resumed"
        self.stats["resolves"] += 1
        stats = self._collect(path=path)
        stats["nomination"] = nomination
        if status is UNBOUNDED:
            return LPSolution(LPStatus.UNBOUNDED,
                              message="phase-2 unbounded", stats=stats)
        return self._optimal_solution(stats)

    def _collect(self, path: str) -> dict:
        """Fold the live solver's counter deltas into the cumulative
        totals; returns this solve's own stats (deltas plus path)."""
        delta: dict = {"path": path}
        solver_stats = self.solver.stats
        for key in _SOLVER_COUNTERS:
            step = solver_stats.get(key, 0) - self._counted.get(key, 0)
            self._counted[key] = solver_stats.get(key, 0)
            if step:
                delta[key] = step
                self.stats[key] += step
        for key in _SOLVER_TIMERS:
            step = solver_stats.get(key, 0.0) - self._counted.get(key, 0.0)
            self._counted[key] = solver_stats.get(key, 0.0)
            if step > 0:
                delta[key] = step
                self.stats[key] += step
        if solver_stats.get("max_eta", 0) > self.stats["max_eta"]:
            self.stats["max_eta"] = solver_stats["max_eta"]
        return delta

    def _optimal_solution(self, stats: dict) -> LPSolution:
        solution = optimal_solution(self.model, self.form,
                                    self.solver.assignment(), stats)
        self.stats["time_recover"] += stats["time_recover"]
        return solution


# Last, as certify imports this module.  Loading it (and numpy and scipy)
# here keeps their module code out of this module's exact regions, where
# ``REPRO_SANITIZE=1`` traps ``float``.
from repro.lp import certify  # noqa: E402
