"""The exact LP layer's ``Fraction`` reference code: pricing,
standardization and value recovery.

:mod:`repro.lp.revised` prices reduced costs in integers (``y`` over
one common denominator against each column's integer entries), and
:mod:`repro.lp.standard` builds rows and recovers values by copying or
negating coefficients, since every recover factor is ``+1`` or ``-1``,
and skips zero shifts.  This module keeps the code those replaced,
which multiplies and adds through every entry in ``Fraction``
arithmetic.  It shares only :class:`~repro.lp.standard.SparseStandardForm`
as a value type and :func:`~repro.lp.standard.validate_bounds` with the
library.  Tests import it as a plain module
(``from fraction_lp import reduced_costs``).
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import LPError
from repro.lp.model import EQ, GE, LPModel
from repro.lp.standard import SparseStandardForm, validate_bounds

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reduced_costs(solver, costs: list) -> list:
    """``c_j - y.a_j`` for the structural columns of a
    :class:`~repro.lp.revised.RevisedSimplex`, one ``Fraction`` multiply
    and subtract per nonzero; basic entries are zero."""
    y = solver.fact.btran([costs[b] for b in solver.basis])
    d = [_ZERO] * solver.n
    for j in range(solver.n):
        if solver.in_basis[j]:
            continue
        reduced = costs[j]
        for i, a in solver.cols[j].items():
            yi = y[i]
            if yi:
                reduced = reduced - yi * a
        d[j] = reduced
    return d


def standardize(model: LPModel) -> SparseStandardForm:
    """``model`` in sparse equality standard form, every row expanded
    by multiplying through the recover factors and adding every shift."""
    validate_bounds(model)
    form = SparseStandardForm()
    objective = model.objective.expr if model.objective is not None else None

    def objective_coeff(name: str) -> Fraction:
        if objective is None:
            return _ZERO
        return objective.coefficient(name)

    bound_rows: list[tuple[str, dict[int, Fraction], Fraction]] = []
    for name in model.variable_names:
        lower, upper = model.bounds(name)
        cost = objective_coeff(name)
        if lower is None and upper is None:
            pos = form.new_column(f"{name}+", cost)
            neg = form.new_column(f"{name}-", -cost)
            form.recover[name] = [(pos, _ONE), (neg, -_ONE)]
            form.shifts[name] = _ZERO
        elif lower is not None:
            col = form.new_column(name, cost)
            form.recover[name] = [(col, _ONE)]
            form.shifts[name] = lower
            if upper is not None:
                slack = form.new_column(f"{name}.ub", _ZERO)
                bound_rows.append((name, {col: _ONE, slack: _ONE},
                                   upper - lower))
        else:
            col = form.new_column(name, -cost)
            form.recover[name] = [(col, -_ONE)]
            form.shifts[name] = upper

    def expand_expr(expr) -> tuple[dict[int, Fraction], Fraction]:
        columns: dict[int, Fraction] = {}
        constant = expr.constant_term
        for name, coeff in expr.coefficients():
            constant += coeff * form.shifts[name]
            for col, factor in form.recover[name]:
                columns[col] = columns.get(col, _ZERO) + coeff * factor
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
        form.add_row(columns, -constant)
    return form


def recover_values(form: SparseStandardForm,
                   assignment: list) -> dict[str, Fraction]:
    """Model-variable values of a standard-form assignment: each
    variable's shift plus its factor times each of its columns."""
    values: dict[str, Fraction] = {}
    for name, parts in form.recover.items():
        total = form.shifts[name]
        for col, factor in parts:
            total += factor * assignment[col]
        values[name] = total
    return values
