"""The integer product table and the one-pass template substitution
against their ``Fraction`` originals (``tests/fraction_handelman.py``).

Both replacements change how a value is computed, never which value:
product keys, products and columns, and substituted templates must
equal the oracle's exactly, in value and in type (every column entry
and every template coefficient a ``Fraction``), so that every LP model
stays where it was.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_handelman
from repro.bench.suite import SUITE, load_pair
from repro.config import AnalysisConfig
from repro.core.diffcost import DiffCostAnalyzer
from repro.handelman import ImplicationConstraint, encode_implication
from repro.handelman import products as products_mod
from repro.handelman.products import ProductTable
from repro.lint.sanitizer import ExactnessViolation
from repro.lp.model import LPModel
from repro.poly.linexpr import AffineExpr
from repro.poly.monomial import Monomial, monomials_up_to_degree
from repro.poly.polynomial import Polynomial
from repro.poly.template import TemplatePolynomial
from repro.ts.guards import LinIneq
from repro.utils.naming import FreshNameGenerator

X = Polynomial.variable("x")
Y = Polynomial.variable("y")
HALF = Fraction(1, 2)


def typed_column(column) -> list:
    """``column`` as ``(monomial, type, value)`` triples."""
    return [(mono, type(coeff), coeff) for mono, coeff in column]


def typed_template(template: TemplatePolynomial) -> list:
    """``template``'s terms with the type of every coefficient."""
    return [(mono,
             [(name, type(coeff), coeff)
              for name, coeff in expr.coefficients()],
             type(expr.constant_term), expr.constant_term)
            for mono, expr in template.terms()]


def assert_same_tables(premise_lists, max_factors) -> None:
    """One integer table and one oracle table, each shared across
    ``premise_lists``, give equal keys, products and columns."""
    table, oracle = ProductTable(), fraction_handelman.ProductTable()
    for premises in premise_lists:
        keys = table.keys(premises, max_factors)
        assert keys == oracle.keys(premises, max_factors)
        for key in keys:
            assert table.product(key) == oracle.product(key)
            assert (typed_column(table.column(key))
                    == typed_column(oracle.column(key)))


rationals = (st.builds(Fraction, st.integers(-6, 6), st.integers(2, 7))
            | st.integers(-3, 3).map(Fraction))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(rationals, rationals, rationals), max_size=4),
       st.booleans(), st.booleans(), st.integers(1, 3))
def test_tables_match_oracle_on_fraction_premises(rows, duplicate, zero,
                                                  max_factors):
    """Premises with denominators 2-7 may repeat or vanish; the table
    also serves their reversal and their negations (opposite
    generators, whose even products coincide)."""
    rows = rows + rows[:1] * duplicate + [(0, 0, 0)] * zero
    premises = [a * X + b * Y + c for a, b, c in rows]
    assert_same_tables([premises, premises[::-1],
                        [-premise for premise in premises]], max_factors)


@pytest.mark.parametrize("max_factors", [1, 2, 3])
@pytest.mark.parametrize("premises", [
    [X - 1, 1 - X],
    [HALF * X - Fraction(1, 3), Fraction(1, 3) - HALF * X, Y],
    # Scaled copies of one generator.
    [X + 1, 2 * X + 2, HALF * X + HALF],
    [Polynomial.zero(), X, X, Y * Fraction(1, 3), Polynomial.zero(),
     Y * Fraction(1, 3)],
], ids=["opposite", "opposite-fractional", "scaled", "zero-repeated"])
def test_tables_match_oracle_on_coinciding_products(premises, max_factors):
    assert_same_tables([premises, premises[::-1]], max_factors)


def test_coinciding_products_are_deduplicated():
    # (x - 1)^2 == (1 - x)^2.
    keys = ProductTable().keys([X - 1, 1 - X], 2)
    assert keys == [(), (0,), (1,), (0, 0), (0, 1)]
    # (2x + 2)(x/2 + 1/2) == (x + 1)^2: equal forms only once the
    # product's terms are divided by their gcd with its denominator.
    keys = ProductTable().keys([X + 1, 2 * X + 2, HALF * X + HALF], 2)
    assert keys == [(), (0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 1),
                    (2, 2)]


@functools.cache
def table1_at_degree_3():
    """Every ``TemplatePolynomial.substitute`` call (template, update,
    result) and every implication set of Table 1's pairs at d = 3."""
    calls = []
    substitute = TemplatePolynomial.substitute

    def recording(self, mapping):
        result = substitute(self, mapping)
        calls.append((self, dict(mapping), result))
        return result

    implications = {}
    TemplatePolynomial.substitute = recording
    try:
        for pair in SUITE:
            old, new = load_pair(pair.name)
            analyzer = DiffCostAnalyzer(
                old, new, AnalysisConfig(degree=3, max_products=3))
            implications[pair.name] = analyzer.build_constraints(
                TemplatePolynomial.from_symbol("t"))[2]
    finally:
        TemplatePolynomial.substitute = substitute
    return calls, implications


def test_substitution_matches_oracle_on_table1():
    calls, _ = table1_at_degree_3()
    assert len(calls) > 100
    for template, mapping, result in calls:
        expected = fraction_handelman.substitute(template, mapping)
        assert typed_template(result) == typed_template(expected)


@pytest.mark.parametrize("name", [pair.name for pair in SUITE])
def test_tables_match_oracle_on_table1(name):
    _, implications = table1_at_degree_3()
    premise_lists = [[ineq.expr.to_polynomial() for ineq in c.premise]
                     for c in implications[name]]
    assert_same_tables(premise_lists, 3)


polynomials = st.lists(st.tuples(st.sampled_from(
    monomials_up_to_degree(["x", "y", "z"], 2)), rationals),
    max_size=4).map(lambda terms: sum(
        (Polynomial.from_monomial(mono, coeff) for mono, coeff in terms),
        Polynomial.zero()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), min_size=10, max_size=10),
       st.dictionaries(st.sampled_from(["x", "y"]), polynomials))
def test_substitution_matches_oracle_on_fraction_updates(coefficients,
                                                         mapping):
    """Degree-3 templates with symbolic and constant parts, under
    updates of degree up to 2 (unmapped variables stay)."""
    monomials = monomials_up_to_degree(["x", "y"], 3)
    template = TemplatePolynomial({
        mono: AffineExpr({f"u{index}": symbolic}, constant)
        for index, (mono, (symbolic, constant))
        in enumerate(zip(monomials, coefficients))})
    assert (typed_template(template.substitute(mapping))
            == typed_template(fraction_handelman.substitute(template,
                                                            mapping)))


def test_encoder_runs_inside_an_exact_region(monkeypatch):
    """Under ``REPRO_SANITIZE=1`` a float built while encoding raises."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    column = products_mod._column
    monkeypatch.setattr(products_mod, "_column", lambda form: column(form)
                        + ((Monomial.of("x"), float(0)),))
    constraint = ImplicationConstraint(
        premise=(LinIneq(AffineExpr({"x": 1})),),
        consequent=TemplatePolynomial.from_symbol("t"), name="armed")
    with pytest.raises(ExactnessViolation, match="handelman-encode"):
        encode_implication(constraint, LPModel(), FreshNameGenerator(), 2)
