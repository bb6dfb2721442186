"""Unit and property tests for the polyhedra-lite domain."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.invariants.polyhedron import Polyhedron
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq, box
from repro.ts.system import Transition, Location, NondetUpdate

X = Polynomial.variable("x")
Y = Polynomial.variable("y")
N = Polynomial.variable("n")


def poly_box(**bounds):
    return Polyhedron(box({k: v for k, v in bounds.items()}))


class TestBasics:
    def test_top_and_bottom(self):
        assert not Polyhedron.top().is_empty()
        assert Polyhedron.bottom().is_empty()
        assert Polyhedron.bottom().entails(LinIneq.geq(X, 10**6))

    def test_syntactic_contradiction_detected(self):
        polyhedron = Polyhedron([LinIneq.geq(Polynomial.constant(-1), 0)])
        assert polyhedron.is_bottom()

    def test_semantic_emptiness(self):
        polyhedron = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 0)])
        assert not polyhedron.is_bottom()  # not syntactic
        assert polyhedron.is_empty()

    def test_contains_point(self):
        assert poly_box(x=(0, 5)).contains_point({"x": 3})
        assert not poly_box(x=(0, 5)).contains_point({"x": 6})

    def test_duplicates_normalized_away(self):
        polyhedron = Polyhedron([
            LinIneq.geq(X, 1),
            LinIneq.geq(2 * X, 2),
        ])
        assert len(polyhedron.ineqs) == 1


class TestQueries:
    def test_entailment(self):
        polyhedron = poly_box(x=(1, 10))
        assert polyhedron.entails(LinIneq.geq(X, 0))
        assert polyhedron.entails(LinIneq.leq(X, 10))
        assert not polyhedron.entails(LinIneq.geq(X, 2))

    def test_relational_entailment(self):
        polyhedron = Polyhedron([LinIneq.leq(X, Y), LinIneq.leq(Y, N)])
        assert polyhedron.entails(LinIneq.leq(X, N))
        assert not polyhedron.entails(LinIneq.leq(N, X))

    def test_entails_all_inclusion(self):
        small = poly_box(x=(2, 3))
        big = poly_box(x=(0, 5))
        assert small.entails_all(big)
        assert not big.entails_all(small)

    def test_var_bounds(self):
        interval = poly_box(x=(3, 8)).var_bounds("x")
        assert interval.lower == 3 and interval.upper == 8

    def test_var_bounds_unbounded(self):
        polyhedron = Polyhedron([LinIneq.geq(X, 0)])
        interval = polyhedron.var_bounds("x")
        assert interval.lower == 0 and interval.upper is None

    def test_minimize(self):
        assert poly_box(x=(2, 9)).minimize(
            LinIneq.geq(X, 0).expr
        ) == Fraction(2)


class TestLattice:
    def test_meet(self):
        met = poly_box(x=(0, 10)).meet(poly_box(x=(5, 20)).ineqs)
        assert met.var_bounds("x").lower == 5
        assert met.var_bounds("x").upper == 10

    def test_join_keeps_mutually_entailed(self):
        a = Polyhedron(LinIneq.equals(X, Polynomial.constant(0)) +
                       box({"n": (1, 10)}))
        b = Polyhedron(LinIneq.equals(X, N) + box({"n": (1, 10)}))
        joined = a.join(b)
        assert joined.entails(LinIneq.geq(X, 0))
        assert joined.entails(LinIneq.leq(X, N))
        assert not joined.entails(LinIneq.leq(X, 0))

    def test_join_with_bottom(self):
        polyhedron = poly_box(x=(1, 2))
        assert polyhedron.join(Polyhedron.bottom()) == polyhedron
        assert Polyhedron.bottom().join(polyhedron) == polyhedron

    def test_join_keeps_redundant_stable_bounds(self):
        # The nested_single regression: i <= n+1 must survive the join
        # even though the transient i <= 1 makes it redundant.
        a = Polyhedron([LinIneq.geq(X, 0), LinIneq.leq(X, 0)]
                       + list(box({"n": (1, 100)})))
        b = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 1),
                        LinIneq.leq(X, N + 1)] + list(box({"n": (1, 100)})))
        joined = a.join(b)
        assert any("n" in str(i) and "x" in str(i) for i in joined.ineqs)

    def test_widen_drops_unstable(self):
        old = poly_box(x=(0, 1))
        new = poly_box(x=(0, 2))
        widened = old.widen(new)
        assert widened.entails(LinIneq.geq(X, 0))
        assert not widened.entails(LinIneq.leq(X, 2))

    def test_reduce_removes_redundant(self):
        polyhedron = Polyhedron([
            LinIneq.geq(X, 0), LinIneq.geq(X, -5), LinIneq.leq(X, 3),
        ])
        assert len(polyhedron.reduce().ineqs) == 2

    def test_reduce_detects_empty(self):
        polyhedron = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 0)])
        assert polyhedron.reduce().is_bottom()


class TestProjection:
    def test_project_out_transfers_bounds(self):
        polyhedron = Polyhedron([
            LinIneq.leq(X, Y), LinIneq.leq(Y, 5), LinIneq.geq(Y, 0),
        ])
        projected = polyhedron.project_out(["y"])
        assert projected.entails(LinIneq.leq(X, 5))
        assert "y" not in projected.variables

    def test_projection_is_sound_overapproximation(self):
        polyhedron = Polyhedron([
            LinIneq.geq(X + Y, 2), LinIneq.leq(X - Y, 0),
            LinIneq.leq(X, 4), LinIneq.geq(Y, -1), LinIneq.leq(Y, 6),
        ])
        projected = polyhedron.project_out(["y"])
        for x in range(-10, 11):
            for y in range(-10, 11):
                if polyhedron.contains_point({"x": x, "y": y}):
                    assert projected.contains_point({"x": x})


class TestTransfer:
    def _transition(self, guard=(), updates=None):
        return Transition(Location("a"), Location("b"),
                          tuple(guard), updates or {})

    def test_affine_assignment(self):
        polyhedron = poly_box(x=(0, 5))
        post = polyhedron.transfer(
            self._transition(updates={"x": X + 1}), ["x"]
        )
        interval = post.var_bounds("x")
        assert (interval.lower, interval.upper) == (1, 6)

    def test_guard_restricts(self):
        polyhedron = poly_box(x=(0, 5))
        post = polyhedron.transfer(
            self._transition(guard=[LinIneq.geq(X, 3)]), ["x"]
        )
        assert post.var_bounds("x").lower == 3

    def test_blocked_guard_gives_bottom(self):
        polyhedron = poly_box(x=(0, 5))
        post = polyhedron.transfer(
            self._transition(guard=[LinIneq.geq(X, 7)]), ["x"]
        )
        assert post.is_bottom()

    def test_nondet_update_bounded_by_expressions(self):
        polyhedron = poly_box(n=(1, 10))
        post = polyhedron.transfer(
            self._transition(
                updates={"x": NondetUpdate(Polynomial.constant(0), N)}
            ),
            ["x", "n"],
        )
        assert post.entails(LinIneq.geq(X, 0))
        assert post.entails(LinIneq.leq(X, N))

    def test_nonaffine_update_falls_back_to_intervals(self):
        polyhedron = poly_box(n=(2, 4))
        post = polyhedron.transfer(
            self._transition(updates={"x": N * N}), ["x", "n"]
        )
        interval = post.var_bounds("x")
        assert interval.lower <= 4 and interval.upper >= 16

    def test_relational_fact_preserved(self):
        polyhedron = Polyhedron([LinIneq.leq(X, N)] + list(box({"n": (1, 9)})))
        post = polyhedron.transfer(
            self._transition(updates={"x": X - 1}), ["x", "n"]
        )
        assert post.entails(LinIneq.leq(X, N - 1))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-6, 6)), min_size=1, max_size=5))
def test_join_contains_both_operands(rows):
    ineqs = [
        LinIneq(Fraction(a) * LinIneq.geq(X, 0).expr
                + Fraction(b) * LinIneq.geq(Y, 0).expr
                + Fraction(c))
        for a, b, c in rows
    ]
    base = list(box({"x": (-5, 5), "y": (-5, 5)}))
    a_side = Polyhedron(base + ineqs[: len(ineqs) // 2 + 1])
    b_side = Polyhedron(base + ineqs[len(ineqs) // 2:])
    joined = a_side.join(b_side)
    for x in range(-5, 6):
        for y in range(-5, 6):
            point = {"x": x, "y": y}
            if a_side.contains_point(point) or b_side.contains_point(point):
                assert joined.contains_point(point)


_LARGE_COEFFICIENTS = """
from repro.invariants.polyhedron import Polyhedron
from repro.poly.linexpr import AffineExpr
from repro.ts.guards import LinIneq, box

rows = [
    LinIneq(AffineExpr({"x0": 5194107, "x1": 27745356}, -26479118)),
    LinIneq(AffineExpr({"x0": -39922313, "x1": 17788329}, -13208513)),
] + list(box({"x0": (-100, 100), "x1": (-100, 100)}))
query = LinIneq(AffineExpr({"x0": -54337158, "x1": 79908321}, 58946038))
polyhedron = Polyhedron(rows)
print(polyhedron.entails(query), polyhedron.minimize(query.expr))
"""


def test_large_coefficient_queries_are_exact_in_a_fresh_process():
    # A 2-variable, 6-row polyhedron with ~1e7 coefficients: decided
    # exactly, without aborting the interpreter (a float LP solver
    # crashed on it in most fresh runs).
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", _LARGE_COEFFICIENTS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "True", "51670554295364987814717/400017756901877"]
