"""Unit and property tests for the Handelman encoding."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_handelman
from repro.bench.suite import load_pair
from repro.config import AnalysisConfig
from repro.core.diffcost import DiffCostAnalyzer
from repro.handelman import (
    ImplicationConstraint,
    ProductTable,
    encode_implication,
    generate_products,
)
from repro.handelman import products as products_mod
from repro.handelman.encode import EncodingStats
from repro.lp.model import LPModel
from repro.lp.revised import RevisedSimplexBackend
from repro.lp.scipy_backend import ScipyBackend
from repro.lp.solution import LPStatus
from repro.poly.linexpr import AffineExpr
from repro.poly.monomial import monomials_up_to_degree
from repro.poly.polynomial import Polynomial
from repro.poly.template import TemplatePolynomial
from repro.ts.guards import LinIneq, box
from repro.utils.naming import FreshNameGenerator

X = Polynomial.variable("x")
Y = Polynomial.variable("y")


class TestProducts:
    def test_includes_one(self):
        products = generate_products([X], 2)
        assert products[0] == Polynomial.constant(1)

    def test_counts(self):
        products = generate_products([X, Y], 2)
        # 1, x, y, x^2, xy, y^2.
        assert len(products) == 6

    def test_deduplication(self):
        products = generate_products([X, X], 2)
        assert len(products) == 3  # 1, x, x^2

    def test_zero_generator_skipped(self):
        products = generate_products([Polynomial.zero(), X], 1)
        assert products == [Polynomial.constant(1), X]


def solve_implication(premise, consequent_poly, max_factors=2,
                      backend=None):
    """Encode one concrete implication and report LP feasibility."""
    constraint = ImplicationConstraint(
        premise=tuple(premise),
        consequent=TemplatePolynomial.from_polynomial(consequent_poly),
        name="test",
    )
    model = LPModel()
    encode_implication(constraint, model, FreshNameGenerator(), max_factors)
    solution = (backend or RevisedSimplexBackend()).solve(model)
    return solution


class TestEncodingSoundAndComplete:
    def test_valid_implication_certified(self):
        # 0 <= x <= 10  =>  10 - x >= 0.
        solution = solve_implication(box({"x": (0, 10)}), 10 - X)
        assert solution.status is LPStatus.OPTIMAL

    def test_invalid_implication_rejected(self):
        # 0 <= x <= 10  =/=>  x - 5 >= 0.
        solution = solve_implication(box({"x": (0, 10)}), X - 5)
        assert solution.status is not LPStatus.OPTIMAL

    def test_quadratic_needs_k2(self):
        # 0 <= x <= 10 => x*(10 - x) >= 0: needs a degree-2 product.
        premise = box({"x": (0, 10)})
        poly = X * (10 - X)
        assert solve_implication(premise, poly, max_factors=1).status \
            is not LPStatus.OPTIMAL
        assert solve_implication(premise, poly, max_factors=2).status \
            is LPStatus.OPTIMAL

    def test_relational_premise(self):
        # x <= y and y <= 5 => 5 - x >= 0.
        premise = [LinIneq.leq(X, Y), LinIneq.leq(Y, 5)]
        assert solve_implication(premise, 5 - X).status is LPStatus.OPTIMAL

    def test_farkas_case_certifies_affine_consequent(self):
        # K = 1 is Farkas' lemma: 0 <= x <= 10 => 10 - x >= 0.
        solution = solve_implication(box({"x": (0, 10)}), 10 - X,
                                     max_factors=1)
        assert solution.status is LPStatus.OPTIMAL

    def test_symbolic_threshold_minimization(self):
        # min t s.t. 1 <= x <= 100 => t - x >= 0 gives t = 100.
        constraint = ImplicationConstraint(
            premise=box({"x": (1, 100)}),
            consequent=TemplatePolynomial.from_symbol("t")
            - TemplatePolynomial.from_polynomial(X),
            name="thr",
        )
        model = LPModel()
        encode_implication(constraint, model, FreshNameGenerator(), 2)
        from repro.poly.linexpr import AffineExpr

        model.minimize(AffineExpr.variable("t"))
        solution = RevisedSimplexBackend().solve(model)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.values["t"] == Fraction(100)

    def test_quadratic_threshold(self):
        # min t s.t. box => t - x*y >= 0 gives t = 100 (needs K = 2).
        constraint = ImplicationConstraint(
            premise=box({"x": (1, 10), "y": (1, 10)}),
            consequent=TemplatePolynomial.from_symbol("t")
            - TemplatePolynomial.from_polynomial(X * Y),
            name="quad",
        )
        model = LPModel()
        encode_implication(constraint, model, FreshNameGenerator(), 2)
        from repro.poly.linexpr import AffineExpr

        model.minimize(AffineExpr.variable("t"))
        solution = RevisedSimplexBackend().solve(model)
        assert solution.values["t"] == Fraction(100)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(0, 5)),
                min_size=1, max_size=3),
       st.integers(1, 3))
def test_certified_combinations_are_pointwise_sound(rows, max_factors):
    """Whatever the LP certifies really is nonnegative on the premise."""
    premise = list(box({"x": (0, 4), "y": (0, 4)}))
    premise += [
        LinIneq(Fraction(a) * LinIneq.geq(X, 0).expr
                + Fraction(b) * LinIneq.geq(Y, 0).expr + Fraction(c))
        for a, b, c in rows
    ]
    products = generate_products([p.expr.to_polynomial() for p in premise],
                                 max_factors)
    # Every product must be nonnegative wherever the premise holds.
    for x in range(0, 5):
        for y in range(0, 5):
            point = {"x": x, "y": y}
            if all(p.holds(point) for p in premise):
                for product in products:
                    assert product.evaluate(point) >= 0


def reference_encode(constraint, model, fresh, max_factors):
    """Reference encoder: ``consequent − Σ c_g·ĝ`` summed as
    :class:`TemplatePolynomial` objects (``ĝ`` is ``g`` scaled to unit
    max-coefficient), then one equality per monomial. The products come
    from the ``Fraction`` table in ``fraction_handelman.py``."""
    table = fraction_handelman.ProductTable()
    products = [table.product(key) for key in table.keys(
        [ineq.expr.to_polynomial() for ineq in constraint.premise],
        max_factors)]
    combination = TemplatePolynomial.zero()
    for product in products:
        multiplier = fresh.fresh(f"c[{constraint.name}]")
        model.add_variable(multiplier, lower=0)
        largest = max(abs(coeff) for _, coeff in product.terms())
        if largest > 1:
            product = product.scale(1 / largest)
        combination = combination + TemplatePolynomial.from_symbol(
            multiplier
        ).multiply_polynomial(product)
    difference = constraint.consequent - combination
    for mono in difference.monomials():
        model.add_equality(difference.coefficient(mono),
                           name=f"{constraint.name}:{mono}")
    return EncodingStats(products=len(products),
                         monomials=len(difference.monomials()))


def model_contents(model):
    """Everything an LP backend reads from ``model``, comparable by ``==``."""
    return ([(name, model.bounds(name)) for name in model.variable_names],
            model.constraints, model.objective)


def assert_same_encoding(constraints, max_factors):
    """Both encoders build equal models and stats, constraint by
    constraint; the encoder shares one product table across the set."""
    shared = functools.partial(encode_implication, products=ProductTable())
    encoded = []
    for encode in (shared, reference_encode):
        model, fresh = LPModel(), FreshNameGenerator()
        stats = [encode(c, model, fresh, max_factors) for c in constraints]
        encoded.append((model_contents(model), stats))
    assert encoded[0] == encoded[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=7),
                          st.fractions(-3, 3, max_denominator=7),
                          st.fractions(-5, 5, max_denominator=7)),
                max_size=4),
       st.booleans(), st.booleans(),
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=6, max_size=6),
       st.integers(1, 3))
def test_encoding_matches_reference(rows, duplicate, zero, coefficients,
                                    max_factors):
    """Premise rows may repeat, vanish, carry fractions with
    denominators up to 7, or coefficients > 1 (which the unit
    max-coefficient normalisation rescales); the consequent is
    symbolic with constants. A second implication over the reversed
    premise draws on the products the first left in the shared table,
    in another order."""
    rows = rows + rows[:1] * duplicate + [(0, 0, 0)] * zero
    premise = tuple(LinIneq(AffineExpr({"x": a, "y": b}, c))
                    for a, b, c in rows)
    monomials = monomials_up_to_degree(["x", "y"], 2)
    consequent = TemplatePolynomial({
        mono: AffineExpr({f"u{index}": symbolic, "t": int(index == 0)},
                         constant)
        for index, (mono, (symbolic, constant))
        in enumerate(zip(monomials, coefficients))
    })
    assert_same_encoding([ImplicationConstraint(premise, consequent, "p"),
                          ImplicationConstraint(premise[::-1], consequent,
                                                "q")], max_factors)


@functools.cache
def pair_implications(name):
    """The implications of Table 1 pair ``name`` at d = 2, K = 3."""
    old, new = load_pair(name)
    analyzer = DiffCostAnalyzer(old, new,
                                AnalysisConfig(degree=2, max_products=3))
    bound = TemplatePolynomial.from_symbol("t")
    return analyzer.build_constraints(bound)[2]


@pytest.mark.parametrize("name", ["dis2", "join"])
def test_encoding_matches_reference_on_pairs(name):
    assert_same_encoding(pair_implications(name), max_factors=3)


def test_encoding_builds_one_affine_expr_per_row(monkeypatch):
    """A count, not a clock: summing products as polynomials rebuilds
    every coefficient once per product, about products × monomials."""
    constraint = max(pair_implications("join"),
                     key=lambda c: len(c.premise))
    built = 0
    init = AffineExpr.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(AffineExpr, "__init__", counting_init)
    stats = encode_implication(constraint, LPModel(), FreshNameGenerator(),
                               max_factors=3)
    assert stats.products > 300
    assert built <= stats.monomials
    built = 0
    reference_encode(constraint, LPModel(), FreshNameGenerator(), 3)
    assert built > stats.products


def test_shared_table_multiplies_and_normalizes_each_product_once(
        monkeypatch):
    """A count, not a clock: join's 13 implications at d = 2, K = 3
    enumerate 3,967 products over 24 distinct premises, 1,285 of them
    products of two or more premises once shared, and nested's 17
    enumerate 14,498 from 2,901. Multiplying and normalizing per
    implication took 4,122 multiplications and 3,149 normalizations on
    join. Each distinct key's column is built once."""
    calls = {"_multiply": 0, "_column": 0}
    for function in calls:
        original = getattr(products_mod, function)

        def counted(*args, _original=original, _function=function):
            calls[_function] += 1
            return _original(*args)

        monkeypatch.setattr(products_mod, function, counted)
    distinct = set()
    keys = ProductTable.keys

    def recorded(self, *args):
        result = keys(self, *args)
        distinct.update(result)
        return result

    monkeypatch.setattr(ProductTable, "keys", recorded)
    for name, products, multiplications in [("join", 3967, 1285),
                                            ("nested", 14498, 2901)]:
        calls.update(_multiply=0, _column=0)
        distinct.clear()
        model, fresh, table = LPModel(), FreshNameGenerator(), ProductTable()
        stats = [encode_implication(c, model, fresh, 3, table)
                 for c in pair_implications(name)]
        assert sum(s.products for s in stats) == products
        assert calls["_multiply"] == multiplications
        assert calls["_column"] == len(distinct)
