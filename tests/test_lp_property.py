"""Property-based differential tests of the exact LP backends.

A seeded random-LP generator (bounded *rational* coefficients, every
bound kind including degenerate fixed variables, duplicated constraints
and empty bounds) drives two differential properties:

- the exact backends (``exact``, ``exact-warm``) and the dense
  tableau oracle (``tests/dense_simplex.py``) are interchangeable: identical statuses on every instance, bit-identical
  ``Fraction`` optima, exactly-feasible reported points, and the same
  structured rejection of empty bounds;
- :class:`~repro.lp.dual.IncrementalLP` is invisible: a chain of
  objective swaps and bound tweaks over one factorized basis produces
  exactly the status and optimum a cold re-encode of each intermediate
  model produces.

Plain ``random`` with fixed seeds — deterministic, stdlib only.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from dense_simplex import DenseSimplexBackend
from repro.errors import LPError
from repro.lp.certify import WarmStartExactBackend
from repro.lp.dual import IncrementalLP
from repro.lp.model import LPModel
from repro.lp.revised import RevisedSimplexBackend
from repro.lp.solution import LPStatus
from repro.poly.linexpr import AffineExpr

SEED = 20260731

FREE, LOWER, UPPER, BOTH, FIXED, EMPTY = (
    "free", "lower", "upper", "both", "fixed", "empty"
)


@dataclass(frozen=True)
class LPSpec:
    """A fully materializable random LP (so cold re-encodes can build
    as many fresh, identical models as they need)."""

    bounds: tuple  # (name, kind, low, high) per variable
    constraints: tuple  # (coeffs, constant, sense) per constraint
    objective: tuple  # coeffs by name


def _rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 9))


def make_spec(rng: random.Random, allow_empty: bool = False) -> LPSpec:
    names = [f"v{i}" for i in range(rng.randint(2, 4))]
    kinds = [FREE, LOWER, LOWER, UPPER, BOTH, BOTH, FIXED]
    if allow_empty:
        kinds = kinds + [EMPTY]
    bounds = []
    for name in names:
        kind = rng.choice(kinds)
        low = _rational(rng, 5)
        width = abs(_rational(rng, 6))
        if kind == FIXED:
            bounds.append((name, kind, low, low))
        elif kind == EMPTY:
            bounds.append((name, kind, low + width + 1, low))
        else:
            bounds.append((name, kind, low, low + width))
        del width
    constraints = []
    for _ in range(rng.randint(1, 5)):
        if constraints and rng.random() < 0.2:
            # A duplicated (fully redundant) constraint: primal
            # degeneracy by construction.
            constraints.append(rng.choice(constraints))
            continue
        coeffs = tuple(
            (name, _rational(rng)) for name in names if rng.random() < 0.8
        )
        constraints.append(
            (coeffs, _rational(rng, 6), "==" if rng.random() < 0.4 else ">=")
        )
    objective = tuple((name, _rational(rng, 3)) for name in names)
    return LPSpec(tuple(bounds), tuple(constraints), objective)


def build_model(spec: LPSpec, objective: tuple | None = None,
                overrides: dict | None = None) -> LPModel:
    """A fresh model for ``spec`` — the cold re-encode the incremental
    solver must be indistinguishable from.  ``overrides`` replaces
    ``(low, high)`` bounds per variable (for bound-tweak chains)."""
    model = LPModel()
    for name, kind, low, high in spec.bounds:
        if overrides and name in overrides:
            low, high = overrides[name]
            model.add_variable(name, low, high)
        elif kind == FREE:
            model.add_variable(name)
        elif kind == LOWER:
            model.add_variable(name, low)
        elif kind == UPPER:
            model.add_variable(name, None, high)
        else:  # BOTH / FIXED / EMPTY
            model.add_variable(name, low, high)
    for coeffs, constant, sense in spec.constraints:
        expr = AffineExpr.constant(constant)
        for name, coeff in coeffs:
            expr = expr + coeff * AffineExpr.variable(name)
        if sense == "==":
            model.add_equality(expr)
        else:
            model.add_inequality(expr)
    expr = AffineExpr.zero()
    for name, coeff in (objective or spec.objective):
        expr = expr + coeff * AffineExpr.variable(name)
    model.minimize(expr)
    return model


def _objective_expr(objective: tuple) -> AffineExpr:
    expr = AffineExpr.zero()
    for name, coeff in objective:
        expr = expr + coeff * AffineExpr.variable(name)
    return expr


EXACT_BACKENDS = (RevisedSimplexBackend, WarmStartExactBackend,
                  DenseSimplexBackend)


class TestExactTrioProperty:
    def test_exact_backends_bit_identical(self):
        rng = random.Random(SEED)
        statuses_seen = set()
        for trial in range(80):
            spec = make_spec(rng)
            solutions = [cls().solve(build_model(spec))
                         for cls in EXACT_BACKENDS]
            reference = solutions[0]
            for solution in solutions[1:]:
                assert solution.status == reference.status, (trial, spec)
            statuses_seen.add(reference.status)
            if reference.status is LPStatus.OPTIMAL:
                for solution in solutions:
                    assert isinstance(solution.objective_value, Fraction), \
                        trial
                    # Bit-identical rational optimum.
                    assert solution.objective_value \
                        == reference.objective_value, (trial, spec)
                    # The reported point is *exactly* feasible and
                    # exactly attains the optimum.
                    model = build_model(spec)
                    assert model.check_assignment(solution.values) == [], \
                        (trial, spec)
                    attained = _objective_expr(spec.objective).evaluate(
                        {name: solution.values.get(name, Fraction(0))
                         for name in dict(spec.objective)}
                    )
                    assert attained == reference.objective_value, \
                        (trial, spec)
        # The population must exercise every outcome, or the property
        # quietly stops meaning anything.
        assert statuses_seen == {
            LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED
        }

    def test_empty_bounds_rejected_identically(self):
        rng = random.Random(SEED + 1)
        exercised = 0
        for _trial in range(40):
            spec = make_spec(rng, allow_empty=True)
            empty_names = [name for name, kind, _low, _high in spec.bounds
                           if kind == EMPTY]
            if not empty_names:
                continue
            exercised += 1
            for cls in EXACT_BACKENDS:
                with pytest.raises(LPError) as excinfo:
                    cls().solve(build_model(spec))
                # Every backend names an offending variable.
                assert any(name in str(excinfo.value)
                           for name in empty_names), (cls, spec)
        assert exercised >= 5, "generator stopped producing empty bounds"


class TestIncrementalProperty:
    def test_objective_swaps_match_cold_re_encodes(self):
        rng = random.Random(SEED + 2)
        compared = 0
        for trial in range(25):
            spec = make_spec(rng)
            incremental = IncrementalLP(build_model(spec))
            objectives = [spec.objective] + [
                tuple((name, _rational(rng, 3))
                      for name, _kind, _low, _high in spec.bounds)
                for _ in range(4)
            ]
            for step, objective in enumerate(objectives):
                warm = incremental.solve(_objective_expr(objective))
                cold = RevisedSimplexBackend().solve(
                    build_model(spec, objective=objective))
                assert warm.status == cold.status, (trial, step, spec)
                if cold.status is LPStatus.OPTIMAL:
                    compared += 1
                    assert warm.objective_value == cold.objective_value, \
                        (trial, step, spec)
                    model = build_model(spec, objective=objective)
                    assert model.check_assignment(warm.values) == [], \
                        (trial, step, spec)
        assert compared >= 25, "too few optimal swaps exercised"

    def test_bound_tweaks_match_cold_re_encodes(self):
        rng = random.Random(SEED + 3)
        compared = 0
        for trial in range(15):
            spec = make_spec(rng)
            # Give every variable two-sided bounds so any of them can be
            # tweaked (update_upper needs a finite upper to patch).
            spec = replace(spec, bounds=tuple(
                (name, BOTH, low, low + abs(high - low) + 2)
                for name, _kind, low, high in spec.bounds
            ))
            current = {name: (low, high)
                       for name, _kind, low, high in spec.bounds}
            incremental = IncrementalLP(
                build_model(spec, overrides=current))
            incremental.solve(_objective_expr(spec.objective))
            for step in range(4):
                name = rng.choice(list(current))
                low, _high = current[name]
                new_upper = low + abs(_rational(rng, 5))
                current[name] = (low, new_upper)
                warm = incremental.update_upper(name, new_upper)
                cold = RevisedSimplexBackend().solve(
                    build_model(spec, overrides=current))
                assert warm.status == cold.status, (trial, step, name)
                if cold.status is LPStatus.OPTIMAL:
                    compared += 1
                    assert warm.objective_value == cold.objective_value, \
                        (trial, step, name, spec)
                    model = build_model(spec, overrides=current)
                    assert model.check_assignment(warm.values) == [], \
                        (trial, step, name)
        assert compared >= 15, "too few optimal tweaks exercised"

    def test_mixed_swap_and_tweak_chain_matches_dense_oracle(self):
        """One long interleaved chain, checked against the seed dense
        simplex (the independent oracle) at every step."""
        rng = random.Random(SEED + 4)
        spec = make_spec(rng)
        spec = replace(spec, bounds=tuple(
            (name, BOTH, low, low + abs(high - low) + 3)
            for name, _kind, low, high in spec.bounds
        ))
        current = {name: (low, high) for name, _kind, low, high in spec.bounds}
        objective = spec.objective
        incremental = IncrementalLP(build_model(spec, overrides=current))
        incremental.solve(_objective_expr(objective))
        for step in range(12):
            if step % 3 == 2:
                name = rng.choice(list(current))
                low, _high = current[name]
                new_upper = low + abs(_rational(rng, 5))
                current[name] = (low, new_upper)
                warm = incremental.update_upper(name, new_upper)
            else:
                objective = tuple((name, _rational(rng, 3))
                                  for name in current)
                warm = incremental.solve(_objective_expr(objective))
            cold = DenseSimplexBackend().solve(
                build_model(spec, objective=objective, overrides=current))
            assert warm.status == cold.status, step
            if cold.status is LPStatus.OPTIMAL:
                assert warm.objective_value == cold.objective_value, step
