"""Revised simplex over sparse columns in exact (``Fraction``) arithmetic.

The solver works directly on the sparse columns of a
:class:`~repro.lp.standard.SparseStandardForm` and keeps the basis as a
:class:`~repro.lp.basis.BasisFactorization` — a sparse LU factorization
plus a product-form eta file, refactorized periodically.  A pivot costs
``O(nnz)`` (one eta push) instead of the ``O(m^2)`` dense-inverse
update the previous revision paid, and ftran/btran stay sparse
triangular solves — exactly the QSopt_ex/SoPlex kernel shape, which
matters doubly here, where every dense entry is a ``Fraction``.

Pricing is Dantzig (most negative reduced cost, lowest index on ties)
with a Bland fallback: after :attr:`bland_trigger` consecutive
degenerate pivots the solver switches to Bland's smallest-index rule
until the objective strictly improves again.  In exact arithmetic this
guarantees termination — Bland's rule cannot cycle, and every return to
Dantzig is preceded by a strict objective decrease, so no basis repeats.
(Candidate-list partial pricing was tried and reverted: on the long
degenerate plateaus of these LPs, entering columns picked from a stale
bank more than doubled the pivot count — global Dantzig pays for
itself here.)

The reduced costs ``d`` are priced once per phase and then kept: each
pivot builds its pivot row ``alpha = e_r^T B^{-1} A`` (a unit-vector
``btran``, then a row-wise view of the columns) and applies
``d_j -= (d_q / alpha_q) alpha_j``.  Over ``Fraction`` the kept vector
equals a fresh pricing, so every pivot choice is the one full pricing
would make.  A fresh pricing runs in integers: ``y`` over one common
denominator against each column's integer entries (built once per
solver), one ``Fraction`` per column; it equals the ``Fraction`` sweep
it replaced, which ``tests/fraction_lp.py`` keeps as the oracle.

Every sign test compares against exact zero; floats only ever nominate
a starting basis (:mod:`repro.lp.certify`'s HiGHS stage), which
:meth:`RevisedSimplex.warm_start` then checks exactly.  The dual
simplex in :mod:`repro.lp.dual` drives the same basis object, so primal
and dual pivots share one factorization and one eta file.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from time import perf_counter

from repro.errors import LPError
from repro.lint.sanitizer import exact_method
from repro.lp.basis import (
    DEFAULT_ETA_BIT_LIMIT,
    DEFAULT_ETA_LIMIT,
    BasisFactorization,
)
from repro.lp.model import LPModel
from repro.lp.solution import LPSolution, LPStatus
from repro.lp.standard import (
    SparseStandardForm,
    optimal_solution,
    standardize,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: warm_start verdicts
WARM_READY = "ready"
WARM_SINGULAR = "singular"
WARM_INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RevisedSimplex:
    """Two-phase revised simplex over one standard-form instance.

    Artificial columns ``n .. n+m-1`` (the phase-1 identity basis) are
    created eagerly; they may never *enter* the basis, and in phase 2 a
    basic artificial is pinned at zero by the ratio test (any entering
    column crossing its row binds with step 0 and pivots it out), so the
    solved program is always the original one.
    """

    def __init__(self, form: SparseStandardForm, *,
                 max_iterations: int = 200_000, bland_trigger: int = 24,
                 eta_limit: int = DEFAULT_ETA_LIMIT,
                 eta_bit_limit: int = DEFAULT_ETA_BIT_LIMIT):
        self.form = form
        self.max_iterations = max_iterations
        self.bland_trigger = bland_trigger
        self.m = form.num_rows
        self.n = form.num_cols
        start = perf_counter()

        # Copies, not the form's own dicts: the flip below negates
        # entries.  ``standardize`` stores ``Fraction``s already.
        self.cols: list[dict[int, Fraction]] = [
            dict(col) for col in form.cols
        ]
        self.b = [Fraction(v) for v in form.rhs]
        # Incremental rhs tweaks can leave negative entries; equality
        # rows are sign-invariant, so renormalize for the phase-1
        # artificial start (a no-op for freshly standardized forms).
        negative = [i for i, value in enumerate(self.b) if value < 0]
        if negative:
            flip = set(negative)
            for i in negative:
                self.b[i] = -self.b[i]
            for col in self.cols:
                for i in col:
                    if i in flip:
                        col[i] = -col[i]
        #: Row-wise view of the structural columns, ``{column: value}``
        #: per row, for pivot rows; built by the first pivot row, as a
        #: certified warm start pivots none.  Columns never change
        #: after this constructor.
        self._rows: list[dict[int, Fraction]] | None = None
        #: Each structural column over its own common denominator,
        #: ``(denominator, ((row, integer), ...))``, for pricing.
        self.int_cols: list[tuple[int, tuple[tuple[int, int], ...]]] = [
            _integer_column(col) for col in self.cols
        ]
        for row in range(self.m):
            self.cols.append({row: _ONE})  # artificial e_row
        self.costs = [Fraction(v) for v in form.costs]

        self.stats: dict[str, object] = {
            "pivots": 0,
            "phase1_pivots": 0,
            "phase2_pivots": 0,
            "dual_pivots": 0,
            "degenerate_pivots": 0,
            "bland_pivots": 0,
            "refactorizations": 0,
            # Phase timers (seconds).  Together with the kernel timers
            # the BasisFactorization adds below (time_refactor/ftran/
            # btran/eta) these cover disjoint code regions, so their sum
            # is a lower bound on — and in practice most of — the solve
            # wall time.
            "time_pricing": 0.0,
            "time_ratio": 0.0,
            "time_update": 0.0,
            "time_certify": 0.0,
            "time_setup": 0.0,  # this constructor, less its LU
        }
        #: LU + eta factors; shares the stats dict so factorization and
        #: eta counters surface directly in solver stats.
        self.fact = BasisFactorization(
            self.m, eta_limit=eta_limit, eta_bit_limit=eta_bit_limit,
            stats=self.stats,
        )

        # Phase-1 start: artificial identity basis, x_B = b.
        self.basis: list[int] = list(range(self.n, self.n + self.m))
        self.in_basis: list[bool] = (
            [False] * self.n + [True] * self.m
        )
        self.xb: list[object] = list(self.b)
        self.phase = 1
        self.stats["time_setup"] = perf_counter() - start
        self.fact.factorize([self.cols[j] for j in self.basis])

    # -- linear algebra kernels ------------------------------------------

    def _ftran(self, col: dict[int, object]) -> list[object]:
        """``w = B^{-1} a`` for a sparse column ``a``."""
        return self.fact.ftran(col)

    # -- pricing -----------------------------------------------------------

    def _reduced_costs(self, costs: list[object],
                       timer: str = "time_pricing") -> list[object]:
        """Reduced costs ``c_j - y.a_j`` of the structural columns from
        scratch (``y = B^{-T} c_B``), priced in integers against
        :attr:`int_cols`; basic entries are zero."""
        y = self.fact.btran([costs[b] for b in self.basis])
        start = perf_counter()
        common = lcm(*{v.denominator for v in y if v})  # lint: allow[math-call] lcm of int denominators is exact
        scaled = [v.numerator * (common // v.denominator) for v in y]
        in_basis = self.in_basis
        d = [_ZERO] * self.n
        for j, (denominator, entries) in enumerate(self.int_cols):
            if in_basis[j]:
                continue
            total = 0
            for i, a in entries:
                yi = scaled[i]
                if yi:
                    total += yi * a
            cost = costs[j]
            if total:
                # y.a_j == total / scale
                scale = common * denominator
                d[j] = Fraction(
                    cost.numerator * scale - cost.denominator * total,
                    cost.denominator * scale)
            else:
                d[j] = cost
        self.stats[timer] += perf_counter() - start
        return d

    def _pivot_row(self, row: int) -> dict[int, object]:
        """``{column: alpha_j}`` of ``e_row^T B^{-1} A`` over the
        structural columns, basic ones included (may hold zeros)."""
        rows = self._rows
        if rows is None:
            start = perf_counter()
            rows = self._rows = [{} for _ in range(self.m)]
            for j, col in enumerate(self.cols[:self.n]):
                for i, a in col.items():
                    rows[i][j] = a
            self.stats["time_setup"] += perf_counter() - start
        rho = self.fact.btran_unit(row)
        start = perf_counter()
        alpha: dict[int, object] = {}
        for i, ri in enumerate(rho):
            if ri:
                for j, a in rows[i].items():
                    if j in alpha:
                        alpha[j] = alpha[j] + ri * a
                    else:
                        alpha[j] = ri * a
        self.stats["time_pricing"] += perf_counter() - start
        return alpha

    def _update_reduced_costs(self, d: list[object],
                              alpha: dict[int, object],
                              entering: int) -> None:
        """Carry ``d`` across the pivot that made ``entering`` basic,
        given that pivot's row ``alpha`` from before or after it (the
        update is scale-invariant); ``d_q`` drops to zero."""
        start = perf_counter()
        ratio = d[entering] / alpha[entering]
        if ratio:
            for j, a in alpha.items():
                if a:
                    d[j] = d[j] - ratio * a
        self.stats["time_pricing"] += perf_counter() - start

    def _entering(self, d: list[object], bland: bool) -> int:
        """Entering column (structural only), or -1 if dual feasible."""
        start = perf_counter()
        best_j, best = -1, None
        for j, reduced in enumerate(d):  # basic entries are zero
            if reduced < 0:
                if bland:
                    best_j = j  # smallest improving index
                    break
                if best is None or reduced < best:
                    best_j, best = j, reduced
        self.stats["time_pricing"] += perf_counter() - start
        return best_j

    def _ratio_test(self, w: list[object]) -> int:
        """Leaving row for the entering direction ``w``; -1 = unbounded.

        Ties break toward the smallest basic column index (required for
        Bland's termination guarantee, and deterministic).  In phase 2 a
        basic artificial is pinned at zero: any nonzero ``w[i]`` in its
        row — either sign — binds with step 0, so artificials can leave
        but never move off zero.
        """
        start = perf_counter()
        leaving = -1
        best = None
        xb, basis = self.xb, self.basis
        pinned = self.phase == 2
        for i in range(self.m):
            wi = w[i]
            if pinned and basis[i] >= self.n:
                if wi:
                    ratio = _ZERO
                else:
                    continue
            elif wi > 0:
                ratio = xb[i] / wi
            else:
                continue
            if (best is None or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])):
                best, leaving = ratio, i
        self.stats["time_ratio"] += perf_counter() - start
        return leaving

    def _pivot(self, row: int, entering: int, w: list[object]) -> object:
        """Make ``entering`` basic in ``row``; returns the step length.

        The basis change is an ``O(nnz(w))`` eta push; the factorization
        is rebuilt only when the eta file crosses its refactor policy.
        """
        start = perf_counter()
        theta = self.xb[row] / w[row]
        if theta:
            for i in range(self.m):
                if i == row:
                    continue
                wi = w[i]
                if wi:
                    self.xb[i] = self.xb[i] - wi * theta
        self.xb[row] = theta
        self.in_basis[self.basis[row]] = False
        self.in_basis[entering] = True
        self.basis[row] = entering
        self.stats["time_update"] += perf_counter() - start
        self.fact.push_eta(row, w)
        if self.fact.needs_refactor():
            if not self._refactorize():
                raise LPError("basis became singular on refactorization")
        return theta

    def _refactorize(self) -> bool:
        """Fresh LU of the current basis columns (drops the eta file)
        and recompute ``x_B``; returns False iff B is singular."""
        self.stats["refactorizations"] += 1
        if not self.fact.factorize([self.cols[j] for j in self.basis]):
            return False
        self.xb = self.fact.ftran_dense(self.b)
        return True

    # -- simplex driver ---------------------------------------------------

    @exact_method("lp-phase")
    def _run_phase(self, costs: list[object], phase: int) -> str:
        """Pivot until optimal or unbounded; returns the status."""
        self.phase = phase
        bland = False
        degenerate_run = 0
        d = None
        for _ in range(self.max_iterations):
            if d is None:
                d = self._reduced_costs(costs)
            entering = self._entering(d, bland)
            if entering < 0:
                return OPTIMAL
            w = self._ftran(self.cols[entering])
            leaving = self._ratio_test(w)
            if leaving < 0:
                return UNBOUNDED
            theta = self._pivot(leaving, entering, w)
            self._update_reduced_costs(d, self._pivot_row(leaving), entering)
            self.stats["pivots"] += 1
            self.stats[f"phase{phase}_pivots"] += 1
            if bland:
                self.stats["bland_pivots"] += 1
            if not theta:
                self.stats["degenerate_pivots"] += 1
                degenerate_run += 1
                if degenerate_run >= self.bland_trigger:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        raise LPError("simplex iteration limit exceeded")

    def _drive_out_artificials(self) -> None:
        """Pivot zero-level basic artificials out where a structural
        column can replace them; rows where none can are redundant and
        stay pinned behind the phase-2 ratio test."""
        for row in range(self.m):
            if self.basis[row] < self.n:
                continue
            replacement = min(
                (j for j, a in self._pivot_row(row).items()
                 if a and not self.in_basis[j]),
                default=-1,
            )
            if replacement >= 0:
                self._pivot(row, replacement, self._ftran(self.cols[replacement]))

    def phase2_costs(self) -> list[Fraction]:
        return self.costs + [_ZERO] * self.m

    @exact_method("lp-two-phase")
    def solve_two_phase(self) -> str:
        """Full solve from the artificial basis; returns a status."""
        status = self._run_phase([_ZERO] * self.n + [_ONE] * self.m, 1)
        if status is not OPTIMAL:  # pragma: no cover - phase 1 is bounded
            raise LPError("phase-1 solve reported unbounded")
        infeasibility = _ZERO
        for i, b in enumerate(self.basis):
            if b >= self.n:
                infeasibility = infeasibility + self.xb[i]
        if infeasibility > 0:
            return INFEASIBLE
        self._drive_out_artificials()
        return self._run_phase(self.phase2_costs(), 2)

    # -- warm starting ----------------------------------------------------

    @exact_method("lp-warm-start")
    def warm_start(self, basis: list[int]) -> str:
        """Install a candidate basis; returns a ``WARM_*`` verdict.

        ``ready`` means the basis is nonsingular and exactly primal
        feasible (all basic values nonnegative, artificials at zero);
        resume with ``_run_phase(phase2_costs(), 2)``.
        """
        if not self._is_basis_shaped(basis):
            return WARM_SINGULAR
        self.basis = list(basis)
        self.in_basis = [False] * (self.n + self.m)
        for j in self.basis:
            self.in_basis[j] = True
        if not self._refactorize():
            return WARM_SINGULAR
        return self._feasibility_verdict()

    @exact_method("lp-exchange")
    def exchange_basis(self, basis: list[int]) -> str:
        """Move the live basis onto the columns of ``basis`` by column
        exchanges on the current factorization; a ``WARM_*`` verdict.

        Each column of ``basis`` that is not yet basic enters with one
        ``ftran`` and one eta push.  It replaces, among the basic
        columns that ``basis`` lacks, the lowest-indexed one it has a
        nonzero coordinate on.  When none qualifies the entering column
        lies in the span of columns ``basis`` keeps, so ``basis`` is
        singular.  No fresh LU is taken unless the eta file crosses its
        refactorization policy, as on any pivot.

        Any verdict but ``ready`` leaves a half-exchanged basis that
        the caller must replace; ``ready`` is :meth:`warm_start`'s.
        """
        if not self._is_basis_shaped(basis):
            return WARM_SINGULAR
        target = set(basis)
        for entering in basis:
            if self.in_basis[entering]:
                continue
            w = self._ftran(self.cols[entering])
            row = -1
            for i, wi in enumerate(w):
                if (wi and self.basis[i] not in target
                        and (row < 0 or self.basis[i] < self.basis[row])):
                    row = i
            if row < 0:
                return WARM_SINGULAR
            self._pivot(row, entering, w)
        return self._feasibility_verdict()

    def _is_basis_shaped(self, basis: list[int]) -> bool:
        """``m`` distinct column indices, structural or artificial."""
        return (len(basis) == self.m and len(set(basis)) == self.m
                and all(0 <= j < self.n + self.m for j in basis))

    def _feasibility_verdict(self) -> str:
        """``ready`` iff ``x_B >= 0`` with basic artificials at zero."""
        for i, value in enumerate(self.xb):
            if value < 0:
                return WARM_INFEASIBLE
            if self.basis[i] >= self.n and value:
                # A nonzero artificial means A x = b is violated.
                return WARM_INFEASIBLE
        return WARM_READY

    # -- extraction -------------------------------------------------------

    def assignment(self) -> list[object]:
        """Values of the structural standard-form columns."""
        values = [_ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                values[b] = self.xb[i]
        return values


def _integer_column(col: dict[int, Fraction]
                    ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``col`` as ``(denominator, ((row, integer), ...))``: its entries
    are the integers over the common denominator."""
    denominator = lcm(*{a.denominator for a in col.values()})  # lint: allow[math-call] lcm of int denominators is exact
    return denominator, tuple(
        (i, a.numerator * (denominator // a.denominator))
        for i, a in col.items())


def _no_constraint_solution(model: LPModel,
                            form: SparseStandardForm) -> LPSolution:
    """The ``m == 0`` special case shared by the sparse exact backends."""
    if any(cost < 0 for cost in form.costs):
        return LPSolution(LPStatus.UNBOUNDED,
                          message="no constraints, improving ray")
    return optimal_solution(model, form, [_ZERO] * form.num_cols, {})


class RevisedSimplexBackend:
    """Exact sparse revised simplex (two-phase) over rationals."""

    name = "exact"

    def __init__(self, max_iterations: int = 200_000,
                 bland_trigger: int = 24):
        self._max_iterations = max_iterations
        self._bland_trigger = bland_trigger

    def solve(self, model: LPModel) -> LPSolution:
        """Solve ``model`` exactly; all reported values are Fractions."""
        timing: dict = {}
        form = standardize(model, timing)
        if form.num_rows == 0:
            return _no_constraint_solution(model, form)
        solver = RevisedSimplex(
            form, max_iterations=self._max_iterations,
            bland_trigger=self._bland_trigger,
        )
        solver.stats.update(timing)
        status = solver.solve_two_phase()
        if status is INFEASIBLE:
            return LPSolution(LPStatus.INFEASIBLE,
                              message="phase-1 optimum positive",
                              stats=dict(solver.stats))
        if status is UNBOUNDED:
            return LPSolution(LPStatus.UNBOUNDED,
                              message="phase-2 unbounded",
                              stats=dict(solver.stats))
        return optimal_solution(model, form, solver.assignment(),
                                dict(solver.stats))
