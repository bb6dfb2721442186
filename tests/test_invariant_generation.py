"""Integration and property tests for the invariant generator.

The key soundness property: every state visited by any concrete run must
satisfy the generated invariant at its location.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.suite import get_pair, load_pair
from repro.core.diffcost import THRESHOLD_SYMBOL, DiffCostAnalyzer
from repro.invariants import generate_invariants
from repro.lang import load_program
from repro.lp.revised import RevisedSimplexBackend
from repro.lp.scipy_backend import ScipyBackend
from repro.poly.template import TemplatePolynomial
from repro.ts import Interpreter
from repro.ts.guards import LinIneq
from repro.ts.interpreter import random_choice
from repro.ts.system import COST_VAR, NondetUpdate

JOIN = """
proc join(lenA, lenB) {
  assume(1 <= lenA && lenA <= 12);
  assume(1 <= lenB && lenB <= 12);
  var i = 0;
  var j = 0;
  while (i < lenA) {
    j = 0;
    while (j < lenB) { tick(1); j = j + 1; }
    i = i + 1;
  }
}
"""


def run_and_check(source: str, inputs: dict, seed: int = 0) -> None:
    """Execute with random nondet resolution; assert the invariant holds
    at every visited state."""
    lowered = load_program(source)
    invariants = generate_invariants(lowered.system,
                                     hints=lowered.invariant_hints)
    interpreter = Interpreter(lowered.system)
    rng = random.Random(seed)
    state = interpreter.initial_state(inputs)
    steps = 0
    while steps < 20_000:
        valuation = state.values()
        valuation.pop(COST_VAR)
        assert invariants.check_state(state.location, valuation), (
            f"invariant violated at {state.location}: {valuation} "
            f"not in {invariants.at(state.location)}"
        )
        if interpreter.is_terminal(state):
            return
        options = interpreter.enabled(state)
        transition = rng.choice(options)
        nondet = {}
        for var, update in transition.updates.items():
            if isinstance(update, NondetUpdate):
                low = int(update.lower.evaluate(state.values()))
                high = int(update.upper.evaluate(state.values()))
                nondet[var] = rng.randint(low, high)
        state = interpreter.apply(state, transition, nondet)
        steps += 1
    raise AssertionError("did not terminate")


class TestJoinInvariants:
    def test_loop_bound_facts_present(self):
        lowered = load_program(JOIN)
        invariants = generate_invariants(lowered.system)
        system = lowered.system
        from repro.poly.polynomial import Polynomial

        i = Polynomial.variable("i")
        lena = Polynomial.variable("lenA")
        # The inner-body location must know i <= lenA - 1 (the paper's
        # "expected invariants about the loop bounds").
        inner = system.location_by_name("l2")
        assert invariants.at(inner).entails(LinIneq.leq(i, lena - 1))
        assert invariants.at(inner).entails(
            LinIneq.geq(Polynomial.variable("j"), 0)
        )

    def test_initial_location_is_theta0(self):
        lowered = load_program(JOIN)
        invariants = generate_invariants(lowered.system)
        polyhedron = invariants.at(lowered.system.initial_location)
        assert polyhedron.contains_point(
            {"lenA": 1, "lenB": 12, "i": 0, "j": 0}
        )
        assert not polyhedron.contains_point(
            {"lenA": 0, "lenB": 12, "i": 0, "j": 0}
        )


class TestSoundnessOnRuns:
    def test_join(self):
        run_and_check(JOIN, {"lenA": 3, "lenB": 4, "i": 0, "j": 0})

    def test_nondet_branching(self):
        source = """
        proc p(n) {
          assume(1 <= n && n <= 10);
          var x = 0;
          var y = 0;
          while (x + y < n) {
            if (*) { x = x + 1; } else { tick(1); y = y + 1; }
          }
        }
        """
        for seed in range(5):
            run_and_check(source, {"n": 8, "x": 0, "y": 0}, seed)

    def test_nondet_assignment(self):
        source = """
        proc p(n) {
          assume(1 <= n && n <= 8);
          var i = 0;
          var k = 0;
          while (i < n) {
            k = nondet(0, n);
            tick(k);
            i = i + 1;
          }
        }
        """
        for seed in range(5):
            run_and_check(source, {"n": 6, "i": 0, "k": 0}, seed)

    def test_down_counting(self):
        source = """
        proc p(n) {
          assume(1 <= n && n <= 10);
          var x = n;
          while (x > 0) { tick(1); x = x - 1; }
        }
        """
        run_and_check(source, {"n": 10, "x": 0})

    def test_nonaffine_update(self):
        source = """
        proc p(n) {
          assume(1 <= n && n <= 5);
          var q = 0;
          var k = 0;
          q = n * n;
          while (k < q) { tick(1); k = k + 1; }
        }
        """
        run_and_check(source, {"n": 4, "q": 0, "k": 0})


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 100))
def test_join_invariants_hold_on_random_inputs(lena, lenb, seed):
    run_and_check(JOIN, {"lenA": lena, "lenB": lenb, "i": 0, "j": 0}, seed)


class TestHints:
    def test_hints_are_conjoined(self):
        source = """
        proc p(n) {
          assume(1 <= n && n <= 10);
          var i = 0;
          while (i < n) {
            invariant(i <= 9);
            tick(1);
            i = i + 1;
          }
        }
        """
        lowered = load_program(source)
        invariants = generate_invariants(lowered.system,
                                         hints=lowered.invariant_hints)
        from repro.poly.polynomial import Polynomial

        (head_name,) = lowered.invariant_hints.keys()
        head = lowered.system.location_by_name(head_name)
        assert invariants.at(head).entails(
            LinIneq.leq(Polynomial.variable("i"), 9)
        )


# str(InvariantMap) of both versions of every Table 1 pair: 40 maps,
# recorded while Fourier-Motzkin still combined constraints in Fraction
# arithmetic. ddec, join, nested and simple_multiple_dep match maps
# recorded earlier still, while a float LP (HiGHS) decided most
# invariant queries. simple_multiple_dep is the pair whose non-affine
# update reaches Polyhedron.minimize.
PINNED_MAPS = json.loads(
    (Path(__file__).parent / "pinned_invariant_maps.json").read_text())


@pytest.fixture
def lp_backend_calls(monkeypatch):
    """Count solves on the float and exact LP backends."""
    calls = []
    for backend in (ScipyBackend, RevisedSimplexBackend):
        original = backend.solve

        def counted(self, model, _original=original, _name=backend.__name__):
            calls.append(_name)
            return _original(self, model)

        monkeypatch.setattr(backend, "solve", counted)
    return calls


@pytest.mark.parametrize("name", sorted(PINNED_MAPS))
def test_table1_invariants_are_pinned_and_need_no_lp_backend(
        name, lp_backend_calls):
    old, new = load_pair(name)
    analyzer = DiffCostAnalyzer(old, new, get_pair(name).config())
    # Invariant generation plus build_constraints' premise-emptiness
    # checks: every query goes to the exact dual kernel.
    analyzer.build_constraints(
        TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL))
    maps = [str(invariants) for invariants in analyzer.invariants()]
    assert maps == PINNED_MAPS[name]
    assert lp_backend_calls == []
