"""Sparse equality standard form shared by the exact LP solvers.

Converts an :class:`~repro.lp.model.LPModel` into

    min c.x   s.t.   A x = b,  x >= 0,  b >= 0

with the matrix stored *column-wise* as dicts (row index -> coefficient).
Appending a column never touches existing data — the seed's dense
builder zero-padded every row on each ``new_column`` call, a quadratic
amount of work before the solve even started.  Rows are sign-normalized
at build time (every right-hand side is nonnegative), so phase 1 of a
simplex solver can start directly from the artificial identity basis.

The transformation mirrors the classical textbook one:

- bounded-below variables are shifted to have lower bound 0;
- two-sided bounds add an explicit ``x + s = upper - lower`` row;
- upper-bound-only variables are reflected (``x = upper - x'``);
- free variables are split into positive and negative parts;
- ``>=`` constraints gain a slack column.

``recover``/``shifts`` keep enough bookkeeping to map a standard-form
assignment back to the original model variables.  Every original
variable owns its columns, and each recover factor is ``+1`` or ``-1``,
so rows and recovered values are built by copying or negating a
coefficient, never by multiplying through it, and zero shifts are
skipped (``tests/fraction_lp.py`` keeps the multiplying expansion as
the oracle).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from repro.errors import LPError
from repro.lp.model import EQ, GE, LPModel
from repro.lp.solution import LPSolution, LPStatus

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparseStandardForm:
    """``min c.x  s.t.  A x = b, x >= 0`` with sparse columns."""

    __slots__ = ("col_names", "cols", "costs", "rhs", "recover", "shifts",
                 "bound_rows", "float_model")

    def __init__(self):
        self.col_names: list[str] = []
        #: Per column: {row index: coefficient}; only nonzeros stored.
        self.cols: list[dict[int, Fraction]] = []
        self.costs: list[Fraction] = []
        self.rhs: list[Fraction] = []
        #: original variable -> list of (column index, factor +-1)
        self.recover: dict[str, list[tuple[int, int]]] = {}
        self.shifts: dict[str, Fraction] = {}
        #: two-sided-bounded variable -> row index of its
        #: ``x + s = upper - lower`` row (for incremental bound tweaks).
        self.bound_rows: dict[str, int] = {}
        #: HiGHS's model of this form, built by the float stage
        #: (:func:`repro.lp.certify.scipy_candidate_basis`) on first use
        #: and kept across cost changes.  It copies ``cols`` and
        #: ``rhs``: whoever changes either must reset it to ``None``.
        self.float_model: object | None = None

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    @property
    def num_nonzeros(self) -> int:
        return sum(len(col) for col in self.cols)

    def new_column(self, name: str, cost: Fraction = _ZERO) -> int:
        """Append an empty column; O(1), no row padding."""
        self.col_names.append(name)
        self.cols.append({})
        self.costs.append(cost)
        return len(self.cols) - 1

    def add_row(self, columns: dict[int, Fraction], rhs: Fraction) -> int:
        """Append the row ``columns . x = rhs``, sign-normalized."""
        row = len(self.rhs)
        if rhs < 0:
            rhs = -rhs
            columns = {col: -coeff for col, coeff in columns.items()}
        self.rhs.append(rhs)
        for col, coeff in columns.items():
            if coeff:
                self.cols[col][row] = coeff
        return row


def validate_bounds(model: LPModel) -> None:
    """Reject empty variable bounds (``upper < lower``) up front.

    Runs over every declared variable regardless of which standardization
    branch it would take, and always names the offending variable — the
    seed only caught this in the lower-bounded branch.
    """
    for name in model.variable_names:
        lower, upper = model.bounds(name)
        if lower is not None and upper is not None and upper < lower:
            raise LPError(
                f"variable {name!r} has empty bounds: "
                f"lower {lower} > upper {upper}"
            )


def standardize(model: LPModel,
                stats: dict | None = None) -> SparseStandardForm:
    """Convert ``model`` to sparse equality standard form; ``stats``
    (optional) gets the seconds spent as ``time_standardize``."""
    start = perf_counter()
    validate_bounds(model)
    form = SparseStandardForm()
    objective = model.objective.expr if model.objective is not None else None

    def objective_coeff(name: str) -> Fraction:
        if objective is None:
            return _ZERO
        return objective.coefficient(name)

    # Column layout per original variable; bound rows are collected and
    # emitted first so row order matches the historical dense builder.
    bound_rows: list[tuple[str, dict[int, Fraction], Fraction]] = []
    for name in model.variable_names:
        lower, upper = model.bounds(name)
        cost = objective_coeff(name)
        if lower is None and upper is None:
            pos = form.new_column(f"{name}+", cost)
            neg = form.new_column(f"{name}-", -cost)
            form.recover[name] = [(pos, 1), (neg, -1)]
            form.shifts[name] = _ZERO
        elif lower is not None:
            col = form.new_column(name, cost)
            form.recover[name] = [(col, 1)]
            form.shifts[name] = lower
            if upper is not None:
                slack = form.new_column(f"{name}.ub", _ZERO)
                bound_rows.append((name, {col: _ONE, slack: _ONE},
                                   upper - lower))
        else:
            # Only an upper bound: x = upper - x', x' >= 0.
            col = form.new_column(name, -cost)
            form.recover[name] = [(col, -1)]
            form.shifts[name] = upper

    shifts, recover = form.shifts, form.recover

    def expand_expr(expr) -> tuple[dict[int, Fraction], Fraction]:
        """Rewrite an AffineExpr over original variables into column
        space; returns (column coefficients, constant)."""
        columns: dict[int, Fraction] = {}
        constant = expr.constant_term
        for name, coeff in expr.coefficients():
            shift = shifts[name]
            if shift:
                constant += coeff * shift
            for col, factor in recover[name]:
                columns[col] = coeff if factor > 0 else -coeff
        return columns, constant

    for name, columns, rhs in bound_rows:
        form.bound_rows[name] = form.add_row(columns, rhs)

    for i, constraint in enumerate(model.constraints):
        columns, constant = expand_expr(constraint.expr)
        if constraint.sense == GE:
            slack = form.new_column(f"slack.{i}", _ZERO)
            columns[slack] = -_ONE
        elif constraint.sense != EQ:
            raise LPError(f"unsupported sense {constraint.sense!r}")
        # expr (==|>=) 0  becomes  columns . x = -constant
        form.add_row(columns, -constant)

    if stats is not None:
        stats["time_standardize"] = perf_counter() - start
    return form


def recover_values(form: SparseStandardForm,
                   assignment: list[Fraction]) -> dict[str, Fraction]:
    """Map a standard-form assignment back to model variables."""
    values: dict[str, Fraction] = {}
    shifts = form.shifts
    for name, parts in form.recover.items():
        total = shifts[name]
        for col, factor in parts:
            value = assignment[col]
            if value:
                if factor < 0:
                    value = -value
                total = total + value if total else value
        values[name] = total
    return values


def model_objective_value(model: LPModel,
                          values: dict[str, Fraction]) -> Fraction | None:
    """The model objective evaluated at recovered values."""
    if model.objective is None:
        return None
    return model.objective.expr.evaluate(values)


def optimal_solution(model: LPModel, form: SparseStandardForm,
                     assignment: list[Fraction], stats: dict) -> LPSolution:
    """The ``OPTIMAL`` solution of ``model`` at the standard-form
    ``assignment``; the recovery's seconds go to ``time_recover`` in
    ``stats``, which becomes the solution's stats."""
    start = perf_counter()
    values = recover_values(form, assignment)
    objective_value = model_objective_value(model, values)
    stats["time_recover"] = (stats.get("time_recover", 0.0)
                             + perf_counter() - start)
    return LPSolution(LPStatus.OPTIMAL, values=values,
                      objective_value=objective_value, stats=stats)
