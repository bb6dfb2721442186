"""The dense two-phase tableau simplex: the test suite's LP oracle.

Classical primal simplex on a dense ``Fraction`` tableau with Bland's
rule.  It is slow — every pivot sweeps the whole ``m x n`` tableau —
but exact and algorithmically boring, and it shares nothing with the
product's sparse revised simplex (:mod:`repro.lp.revised`) except the
standard-form conversion (:mod:`repro.lp.standard`).  That makes it an
independent oracle for every agreement test.  Tests import it as a
plain module (``from dense_simplex import DenseSimplexBackend``).
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import LPError
from repro.lp.model import LPModel
from repro.lp.solution import LPSolution, LPStatus
from repro.lp.standard import (
    SparseStandardForm,
    model_objective_value,
    recover_values,
    standardize,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dense_rows(form: SparseStandardForm) -> list[list[Fraction]]:
    """Materialize the standard form's sparse columns as dense rows."""
    rows = [[_ZERO] * form.num_cols for _ in range(form.num_rows)]
    for j, col in enumerate(form.cols):
        for i, coeff in col.items():
            rows[i][j] = coeff
    return rows


class _Tableau:
    """Dense simplex tableau with an explicit basis."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]):
        self.rows = [list(row) for row in rows]
        self.rhs = list(rhs)
        self.basis: list[int] = [-1] * len(rows)
        # Normalize to nonnegative right-hand sides.
        for i, value in enumerate(self.rhs):
            if value < 0:
                self.rows[i] = [-x for x in self.rows[i]]
                self.rhs[i] = -value

    @property
    def num_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def pivot(self, row: int, col: int) -> None:
        """Make column ``col`` basic in ``row``."""
        pivot_value = self.rows[row][col]
        inverse = _ONE / pivot_value
        self.rows[row] = [x * inverse for x in self.rows[row]]
        self.rhs[row] *= inverse
        for i, other in enumerate(self.rows):
            if i != row and other[col] != 0:
                factor = other[col]
                self.rows[i] = [
                    a - factor * b for a, b in zip(other, self.rows[row])
                ]
                self.rhs[i] -= factor * self.rhs[row]
        self.basis[row] = col


def _simplex_phase(tableau: _Tableau, costs: list[Fraction],
                   max_iterations: int,
                   allowed_cols: int | None = None,
                   counters: dict | None = None) -> Fraction:
    """Run primal simplex with Bland's rule on the given costs.

    Only columns with index below ``allowed_cols`` may enter the basis
    (used in phase 2 to keep artificial columns out).  Returns the
    optimal objective value; raises on unboundedness (caller maps it to
    a status) or iteration exhaustion.
    """
    rows = tableau.rows
    rhs = tableau.rhs
    basis = tableau.basis
    num_cols = tableau.num_cols if allowed_cols is None else allowed_cols

    for _ in range(max_iterations):
        # Reduced costs: c_j - c_B . B^{-1} A_j; with the tableau kept in
        # canonical form we recompute lazily per column.
        basic_cost = [costs[b] for b in basis]
        entering = -1
        for j in range(num_cols):
            if j in basis:
                continue
            reduced = costs[j]
            for i, row in enumerate(rows):
                if basic_cost[i] != 0 and row[j] != 0:
                    reduced -= basic_cost[i] * row[j]
            if reduced < 0:
                entering = j
                break  # Bland: first improving index.
        if entering < 0:
            value = _ZERO
            for i, b in enumerate(basis):
                if costs[b] != 0:
                    value += costs[b] * rhs[i]
            return value
        leaving = -1
        best_ratio: Fraction | None = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                ratio = rhs[i] / row[entering]
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio
                            and basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise _Unbounded()
        tableau.pivot(leaving, entering)
        if counters is not None:
            counters["pivots"] += 1
    raise LPError("simplex iteration limit exceeded")


class _Unbounded(LPError):
    pass


class DenseSimplexBackend:
    """Two-phase dense tableau simplex over rationals (Bland's rule)."""

    name = "exact-dense"

    def __init__(self, max_iterations: int = 200_000):
        self._max_iterations = max_iterations

    def solve(self, model: LPModel) -> LPSolution:
        """Solve ``model`` exactly; all reported values are Fractions."""
        form = standardize(model)
        num_structural = form.num_cols
        num_rows = form.num_rows

        if num_rows == 0:
            # No constraints: optimal at the origin of standard form
            # unless some objective coefficient is negative (unbounded).
            if any(c < 0 for c in form.costs):
                return LPSolution(LPStatus.UNBOUNDED,
                                  message="no constraints, improving ray")
            values = recover_values(form, [_ZERO] * num_structural)
            return LPSolution(LPStatus.OPTIMAL, values=values,
                              objective_value=model_objective_value(
                                  model, values))

        tableau = _Tableau(dense_rows(form), form.rhs)
        counters = {"pivots": 0}

        # Phase 1: artificial basis.
        phase1_costs = [_ZERO] * num_structural
        for i in range(num_rows):
            _append_artificial(tableau, i)
            phase1_costs.append(_ONE)
        try:
            infeasibility = _simplex_phase(
                tableau, phase1_costs, self._max_iterations,
                counters=counters,
            )
        except _Unbounded:  # pragma: no cover - phase 1 is bounded below
            return LPSolution(LPStatus.ERROR, message="phase-1 unbounded")
        if infeasibility != 0:
            return LPSolution(LPStatus.INFEASIBLE,
                              message=f"phase-1 optimum {infeasibility}",
                              stats=dict(counters))

        _drive_out_artificials(tableau, num_structural)
        _remove_redundant_rows(tableau, num_structural)

        # Phase 2 on structural columns only; artificial columns may not
        # re-enter the basis, and after redundant-row removal none is
        # basic, so they are pinned at zero for the rest of the solve.
        phase2_costs = list(form.costs) + [_ZERO] * (
            tableau.num_cols - num_structural
        )
        try:
            _simplex_phase(tableau, phase2_costs, self._max_iterations,
                           allowed_cols=num_structural, counters=counters)
        except _Unbounded:
            return LPSolution(LPStatus.UNBOUNDED, message="phase-2 unbounded",
                              stats=dict(counters))

        assignment = [_ZERO] * tableau.num_cols
        for i, b in enumerate(tableau.basis):
            assignment[b] = tableau.rhs[i]
        values = recover_values(form, assignment[:num_structural])
        return LPSolution(LPStatus.OPTIMAL, values=values,
                          objective_value=model_objective_value(model, values),
                          stats=dict(counters))


def _append_artificial(tableau: _Tableau, row: int) -> int:
    """Add an artificial column that is basic in ``row``."""
    col = tableau.num_cols
    for i, r in enumerate(tableau.rows):
        r.append(_ONE if i == row else _ZERO)
    tableau.basis[row] = col
    return col


def _drive_out_artificials(tableau: _Tableau, num_structural: int) -> None:
    """Pivot basic artificial variables out of the basis when possible."""
    for i, b in enumerate(tableau.basis):
        if b >= num_structural and tableau.rhs[i] == 0:
            for j in range(num_structural):
                if tableau.rows[i][j] != 0:
                    tableau.pivot(i, j)
                    break


def _remove_redundant_rows(tableau: _Tableau, num_structural: int) -> None:
    """Delete rows whose basic variable is still an artificial one.

    After :func:`_drive_out_artificials`, such a row has zero in every
    structural column and rhs 0 (otherwise phase 1 would not have reached
    objective 0), i.e. the original constraint was linearly dependent.
    Keeping the row would let entering columns interact with the basic
    artificial; deleting it is the standard remedy.
    """
    keep = [i for i, b in enumerate(tableau.basis) if b < num_structural]
    if len(keep) != len(tableau.basis):
        tableau.rows = [tableau.rows[i] for i in keep]
        tableau.rhs = [tableau.rhs[i] for i in keep]
        tableau.basis = [tableau.basis[i] for i in keep]
