"""Exact Farkas duals of small polyhedra.

Every LP question the invariant domain asks about a polyhedron
``P = {x : a_i·x + b_i >= 0}`` is decided through its dual, whose
certificates are the degree-1 (Farkas) case of the paper's Handelman
step (:func:`~repro.handelman.encode.encode_implication` with
``max_factors=1``):

- ``min{c·x : x in P} = -min{b·λ : Aᵀλ = c, λ >= 0}``
  (:func:`dual_minimum`).  An unbounded dual means ``P`` is empty; an
  infeasible one means ``P`` is empty *or* ``c·x`` is unbounded below
  on it, and only the caller's emptiness test tells which;
- ``P`` is empty iff some ``λ >= 0`` has ``Aᵀλ = 0`` and ``b·λ = -1``
  (:func:`farkas_empty`), Farkas' lemma.

The dual has one row per program variable and one column per
constraint, so these LPs have a handful of rows.  They are solved with
a two-phase dense tableau over Python integers, pivoted by Edmonds'
integer-preserving rule (Bareiss): the tableau is stored as integers
``T`` over one common denominator ``D > 0``, and a pivot on ``T[r][s]``
maps every other row to ``(T[r][s]*T[i][j] - T[i][s]*T[r][j]) / D`` —
a division that is always exact, because every entry is a minor of the
original integer matrix — and makes ``T[r][s]`` the new ``D``.
Bland's rule keeps degenerate pivots from cycling.  Artificial columns
are never stored: an artificial that leaves the basis never re-enters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.lint.sanitizer import exact_region

# The outcomes of dual_minimum, named by what they say about P.
#: The dual has an optimum, so ``c·x`` attains its minimum on ``P``.
OPTIMAL = "optimal"
#: The dual is unbounded: a Farkas ray certifies that ``P`` is empty.
EMPTY = "empty"
#: The dual is infeasible: ``P`` is empty or the objective is
#: unbounded below on it.
EMPTY_OR_UNBOUNDED = "empty-or-unbounded"


def _div(numerators: list[int], denominator: int) -> list[int]:
    """The Bareiss division of one row; exact by construction."""
    if denominator == 1:
        return numerators
    return [numerator // denominator for numerator in numerators]


def dual_minimum(rows: Sequence[Sequence[int]], constants: Sequence[int],
                 objective: Sequence[int | Fraction],
                 ) -> tuple[str, Fraction | None]:
    """``min{c·x : rows[i]·x + constants[i] >= 0}`` through its dual.

    ``rows`` are integer coefficient vectors over one variable order,
    which ``objective`` (``c``, rational) shares.  Returns
    ``(OPTIMAL, minimum)``, ``(EMPTY, None)`` or
    ``(EMPTY_OR_UNBOUNDED, None)``.
    """
    # Scaling c by a positive integer scales the dual optimum alike.
    scale = 1
    for value in objective:
        if scale % value.denominator:
            scale *= value.denominator
    rhs = [value.numerator * (scale // value.denominator)
           for value in objective]
    if not rows:  # P is everything: c·x is bounded iff c = 0
        if any(rhs):
            return EMPTY_OR_UNBOUNDED, None
        return OPTIMAL, Fraction(0)
    with exact_region("farkas-dual"):
        width = len(rows)
        tableau = [list(column) + [target]
                   for column, target in zip(zip(*rows), rhs)]
        cost = list(constants) + [0]
        start = _phase1(tableau, width, [cost])
        if start is None:
            return EMPTY_OR_UNBOUNDED, None
        basis, denominator = start
        denominator = _drive_out(tableau, basis, width, cost, denominator)
        denominator, bounded = _run(tableau, basis, [cost], denominator)
        if not bounded:
            return EMPTY, None
        return OPTIMAL, Fraction(cost[-1], denominator * scale)


def farkas_empty(rows: Sequence[Sequence[int]],
                 constants: Sequence[int]) -> bool:
    """Is ``{x : rows[i]·x + constants[i] >= 0}`` empty?  Searches for
    ``λ >= 0`` with ``Aᵀλ = 0`` and ``-b·λ = 1``."""
    if not rows:
        return False
    with exact_region("farkas-empty"):
        tableau = [list(column) + [0] for column in zip(*rows)]
        tableau.append([-constant for constant in constants] + [1])
        return _phase1(tableau, len(rows), []) is not None


def _phase1(tableau: list[list[int]], width: int,
            objectives: list[list[int]]) -> tuple[list[int], int] | None:
    """Drive the artificials of ``tableau`` (rows ``[coefficients |
    rhs]`` over ``width`` columns, ``λ >= 0``) to zero, in place,
    updating ``objectives`` alongside.  Returns ``(basis,
    denominator)``, or ``None`` when the system is infeasible."""
    for row in tableau:
        if row[-1] < 0:
            row[:] = [-entry for entry in row]
    # Artificial i is basic in row i; it sorts after every column.
    basis = list(range(width, width + len(tableau)))
    phase1 = [-sum(column) for column in zip(*tableau)] or [0] * (width + 1)
    denominator, _ = _run(tableau, basis, [phase1] + objectives, 1)
    if phase1[-1]:
        return None  # the artificials cannot all reach zero
    return basis, denominator


def _drive_out(tableau: list[list[int]], basis: list[int], width: int,
               cost: list[int], denominator: int) -> int:
    """Pivot every zero-level artificial out of the basis, or drop its
    row when that row is all zero (redundant); returns the denominator."""
    index = 0
    while index < len(tableau):
        row = tableau[index]
        if basis[index] < width:
            index += 1
            continue
        column = next((k for k in range(width) if row[k]), None)
        if column is None:
            tableau.pop(index)
            basis.pop(index)
            continue
        denominator = _pivot(tableau, [cost], index, column, denominator)
        basis[index] = column
        index += 1
    return denominator


def _run(rows: list[list[int]], basis: list[int],
         objectives: list[list[int]], denominator: int) -> tuple[int, bool]:
    """Bland's-rule simplex minimizing the first of ``objectives`` (all
    of them are kept up to date); returns the final denominator and
    whether the objective stayed bounded.

    An objective row holds the reduced costs and, last, minus the
    objective value, all times the denominator.
    """
    objective = objectives[0]
    while True:
        entering = next(
            (k for k, reduced in enumerate(objective[:-1]) if reduced < 0),
            None)
        if entering is None:
            return denominator, True
        leaving = None
        for index, row in enumerate(rows):
            entry = row[entering]
            if entry <= 0:
                continue
            if leaving is None:
                leaving = index
                continue
            best = rows[leaving]
            lhs = row[-1] * best[entering]
            rhs = best[-1] * entry
            if lhs < rhs or (lhs == rhs and basis[index] < basis[leaving]):
                leaving = index
        if leaving is None:
            return denominator, False
        denominator = _pivot(rows, objectives, leaving, entering,
                             denominator)
        basis[leaving] = entering


def _pivot(rows: list[list[int]], objectives: list[list[int]],
           r: int, s: int, denominator: int) -> int:
    """Edmonds' integer-preserving pivot on ``rows[r][s]`` (in place);
    returns the new denominator, kept positive."""
    pivot_row = rows[r]
    pivot = pivot_row[s]
    for row in rows + objectives:
        factor = row[s]
        if row is pivot_row or (not factor and pivot == denominator):
            continue  # the pivot row, or a row the pivot leaves as is
        if factor:
            row[:] = _div([pivot * entry - factor * p
                           for entry, p in zip(row, pivot_row)], denominator)
        else:
            row[:] = _div([pivot * entry for entry in row], denominator)
    if pivot < 0:
        # Only _drive_out pivots on a negative entry (its row's rhs is
        # 0); negating the whole tableau keeps D > 0, so signs read off
        # T are true signs.
        for row in rows + objectives:
            row[:] = [-entry for entry in row]
        pivot = -pivot
    return pivot
