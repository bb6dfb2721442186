"""Integer pricing and the +-1 standard form against their ``Fraction``
originals (``tests/fraction_lp.py``).

Both replacements change how a value is computed, never which value:
reduced costs, standard forms and recovered values must equal the
oracle's exactly, in value and in type, so that every pivot choice and
every reported ``Fraction`` stays where it was.
"""

import random
from fractions import Fraction

import pytest

import fraction_lp
from repro.bench.perf import build_lp_model
from repro.bench.suite import SUITE, get_pair, load_pair
from repro.core import refute_threshold
from repro.lp.certify import WarmStartExactBackend
from repro.lp.dual import IncrementalLP
from repro.lp.revised import RevisedSimplex, RevisedSimplexBackend
from repro.lp.standard import recover_values, standardize
from repro.poly.linexpr import AffineExpr
from test_lp_agreement import make_random_lp
from test_lp_property import (BOTH, FREE, LOWER, SEED, UPPER, build_model,
                              make_spec)


def typed(values) -> list:
    """``values`` as ``(type, value)`` pairs: equal lists hold equal
    values of equal types."""
    return [(type(value), value) for value in values]


# -- pricing -----------------------------------------------------------------

def _check_pricing(monkeypatch) -> dict:
    """Compare every from-scratch pricing with the oracle; returns
    counts of the cases the pricings met."""
    integer_pricing = RevisedSimplex._reduced_costs
    construct = RevisedSimplex.__init__
    seen = {"phase 1": 0, "phase 2": 0, "flipped rows": 0,
            "fractional columns": 0, "1/10000 columns": 0}
    flipped = set()

    def constructed(self, form, *args, **kwargs):
        # A negative right-hand side is negated, with its row.
        if any(b < 0 for b in form.rhs):
            flipped.add(id(self))
        construct(self, form, *args, **kwargs)

    def checked(self, costs, *args, **kwargs):
        d = integer_pricing(self, costs, *args, **kwargs)
        assert typed(d) == typed(fraction_lp.reduced_costs(self, costs))
        seen["phase 1" if any(costs[self.n:]) else "phase 2"] += 1
        seen["flipped rows"] += id(self) in flipped
        denominators = {denominator for denominator, _ in self.int_cols}
        seen["fractional columns"] += max(denominators, default=1) > 1
        seen["1/10000 columns"] += 10000 in denominators
        return d

    monkeypatch.setattr(RevisedSimplex, "__init__", constructed)
    monkeypatch.setattr(RevisedSimplex, "_reduced_costs", checked)
    return seen


def _upper_only(model) -> list[str]:
    return [name for name in model.variable_names
            if model.bounds(name)[0] is None
            and model.bounds(name)[1] is not None]


def test_integer_pricing_matches_fraction_pricing(monkeypatch):
    seen = _check_pricing(monkeypatch)
    rng = random.Random(SEED)
    for _ in range(40):
        spec = make_spec(rng)
        for backend in (RevisedSimplexBackend(), WarmStartExactBackend()):
            backend.solve(build_model(spec))
    # Moving a reflected variable's bound shifts the rhs of its rows;
    # a row driven negative is sign-flipped by the next solver built
    # on the patched form.
    rng = random.Random(SEED + 1)
    for _ in range(40):
        model = make_random_lp(rng)
        names = _upper_only(model)
        if not names:
            continue
        incremental = IncrementalLP(model)
        for _ in range(3):
            name = rng.choice(names)
            incremental.update_upper(name, rng.randint(-9, 12))
            objective = AffineExpr.zero()
            for symbol in model.variable_names:
                objective = (objective + rng.randint(-2, 2)
                             * AffineExpr.variable(symbol))
            incremental.solve(objective)
    # Handelman's columns are scaled to unit max-coefficient: entries
    # over 100, 9801 or 10000.
    RevisedSimplexBackend().solve(build_lp_model("dis2"))
    pair = get_pair("dis2")
    refute_threshold(*load_pair("dis2"), Fraction(pair.tight) - 1,
                     pair.config("exact-warm"))
    assert all(seen.values()), seen


# -- standard forms ----------------------------------------------------------

def form_fields(form) -> tuple:
    """Everything a solver reads from ``form``, as text that shows each
    entry's type and order.  Recover factors are compared by value:
    the library stores them as ``int`` +-1, the oracle as ``Fraction``."""
    recover = {name: [(col, Fraction(factor)) for col, factor in parts]
               for name, parts in form.recover.items()}
    return (form.col_names, repr(form.cols), repr(form.costs),
            repr(form.rhs), repr(form.shifts), form.bound_rows, recover)


@pytest.mark.parametrize("name", [pair.name for pair in SUITE])
def test_table1_standard_form_matches_oracle(name):
    model = build_lp_model(name)
    assert form_fields(standardize(model)) == form_fields(
        fraction_lp.standardize(model))


def test_random_standard_forms_and_values_match_oracle():
    rng = random.Random(SEED + 2)
    kinds = set()
    for _ in range(150):
        spec = make_spec(rng)
        for _name, kind, low, _high in spec.bounds:
            kinds.add("shifted" if kind == LOWER and low else kind)
        model = build_model(spec)
        form = standardize(model)
        assert form_fields(form) == form_fields(
            fraction_lp.standardize(model))
        # Mostly zero, like a basic solution, with a few fractions.
        assignment = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      if rng.random() < 0.3 else Fraction(0)
                      for _ in range(form.num_cols)]
        assert repr(recover_values(form, assignment)) == repr(
            fraction_lp.recover_values(form, assignment))
    assert {FREE, "shifted", UPPER, BOTH} <= kinds


def test_solved_values_match_oracle_recovery():
    rng = random.Random(SEED + 3)
    solved = 0
    for _ in range(40):
        model = build_model(make_spec(rng))
        form = standardize(model)
        solver = RevisedSimplex(form)
        if solver.solve_two_phase() != "optimal":
            continue
        assignment = solver.assignment()
        assert repr(recover_values(form, assignment)) == repr(
            fraction_lp.recover_values(form, assignment))
        solved += 1
    assert solved >= 10
