"""The invariant domain's exact dual kernel against the primal reference.

:mod:`repro.invariants.farkas` answers every polyhedron query through
the query's Farkas dual.  Over seeded random integer polyhedra these
tests require its verdicts to match the exact revised simplex run on
the *primal* LP, and every Bareiss division it makes to be exact.
"""

import random
from fractions import Fraction

import pytest

from repro.invariants import farkas
from repro.lint.sanitizer import ExactnessViolation
from repro.lp.model import LPModel
from repro.lp.revised import RevisedSimplexBackend
from repro.lp.solution import LPStatus
from repro.poly.linexpr import AffineExpr

REFERENCE = RevisedSimplexBackend()


def random_instance(rng: random.Random):
    """``(rows, constants, objective)``; the objective may mention a
    ``spare`` variable that no row does."""
    variables = rng.randint(1, 5)
    spare = rng.choice((0, 0, 0, 1))
    width = variables + spare
    rows: list[list[int]] = []
    constants: list[int] = []
    if rng.random() < 0.4:  # a box, so that many P are bounded
        for k in range(variables):
            for sign in (1, -1):
                row = [0] * width
                row[k] = sign
                rows.append(row)
                constants.append(rng.randint(0, 6))
    for _ in range(rng.randint(1 if not rows else 0, 12 - len(rows))):
        if rows and rng.random() < 0.15:  # a duplicate row
            index = rng.randrange(len(rows))
            rows.append(list(rows[index]))
            constants.append(constants[index])
            continue
        row = [rng.randint(-4, 4) if rng.random() < 0.7 else 0
               for _ in range(variables)]
        rows.append(row + [0] * spare)
        constants.append(rng.randint(-12, 12))
    objective = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 1, 2, 3)))
                 for _ in range(width)]
    return rows, constants, objective


def primal_reference(rows, constants, objective):
    """``min objective·x`` over the rows with the exact revised simplex."""
    names = [f"x{k}" for k in range(len(objective))]
    model = LPModel()
    for name in names:
        model.add_variable(name)
    for row, constant in zip(rows, constants):
        model.add_inequality(AffineExpr(dict(zip(names, row)), constant))
    model.minimize(AffineExpr(dict(zip(names, objective))))
    solution = REFERENCE.solve(model)
    return solution.status, solution.objective_value


@pytest.fixture
def exact_divisions(monkeypatch):
    """Wrap the kernel's division helper: every division must be exact."""
    divisions = []
    original = farkas._div

    def checked(numerators: list[int], denominator: int) -> list[int]:
        assert denominator > 0
        for numerator in numerators:
            assert numerator % denominator == 0, (numerator, denominator)
        divisions.append(denominator)
        return original(numerators, denominator)

    monkeypatch.setattr(farkas, "_div", checked)
    return divisions


def test_kernel_agrees_with_the_primal_reference(exact_divisions):
    rng = random.Random(20221)
    outcomes = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 0,
                LPStatus.UNBOUNDED: 0}
    for _ in range(700):
        rows, constants, objective = random_instance(rng)
        status, value = farkas.dual_minimum(rows, constants, objective)
        empty = farkas.farkas_empty(rows, constants)
        expected, optimum = primal_reference(rows, constants, objective)
        outcomes[expected] += 1
        context = (rows, constants, objective)
        if expected is LPStatus.OPTIMAL:
            assert (status, value) == (farkas.OPTIMAL, optimum), context
            assert not empty, context
        elif expected is LPStatus.UNBOUNDED:
            assert status == farkas.EMPTY_OR_UNBOUNDED, context
            assert not empty, context
        else:
            assert status in (farkas.EMPTY, farkas.EMPTY_OR_UNBOUNDED), context
            assert empty, context
    assert all(outcomes.values()), outcomes
    assert exact_divisions and max(exact_divisions) > 1


def test_unbounded_dual_certifies_emptiness():
    # x >= 1 and x <= 0: the dual of min x is unbounded.
    rows, constants = [[1], [-1]], [-1, 0]
    assert farkas.dual_minimum(rows, constants, [1]) == (farkas.EMPTY, None)
    assert farkas.farkas_empty(rows, constants)


def test_no_rows_and_no_variables():
    assert farkas.dual_minimum([], [], [0, 0]) == (farkas.OPTIMAL, 0)
    assert farkas.dual_minimum([], [], [Fraction(1, 2)]) == (
        farkas.EMPTY_OR_UNBOUNDED, None)
    assert not farkas.farkas_empty([], [])
    # Variable-free rows: constants alone decide.
    assert farkas.dual_minimum([[], []], [3, 0], []) == (farkas.OPTIMAL, 0)
    assert farkas.dual_minimum([[], []], [3, -1], []) == (farkas.EMPTY, None)
    assert farkas.farkas_empty([[], []], [3, -1])
    assert not farkas.farkas_empty([[], []], [3, 0])


def test_kernel_runs_inside_an_exact_region(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    original = farkas._div
    monkeypatch.setattr(
        farkas, "_div", lambda row, d: original([float(row[0])] + row, d))
    with pytest.raises(ExactnessViolation):
        farkas.dual_minimum([[1], [-1]], [-1, 3], [1])
    with pytest.raises(ExactnessViolation):
        farkas.farkas_empty([[1], [-1]], [-1, 0])
