"""Encoding of implication constraints into LP equalities.

Each :class:`ImplicationConstraint` ``⋀ aff_i >= 0 ⇒ poly >= 0`` becomes

    poly(x)  ==  Σ_{g ∈ Prod_K(Aff)} c_g · g(x),   c_g >= 0

as a polynomial identity: one equality per monomial of ``poly − Σ c_g·g``,
linear in the template symbols and the fresh ``c_g``.  One pass builds
it: rows seeded with ``poly``'s coefficients take ``−coeff·c_g`` for each
term of each product, and each nonzero row is added once as an
:class:`AffineExpr`, so the cost is linear in the number of product terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.handelman.products import generate_products
from repro.lp.model import LPModel
from repro.poly.linexpr import AffineExpr
from repro.poly.template import TemplatePolynomial
from repro.ts.guards import LinIneq
from repro.utils.naming import FreshNameGenerator


@dataclass
class ImplicationConstraint:
    """``premise ⇒ consequent >= 0`` with a template-linear consequent."""

    premise: tuple[LinIneq, ...]
    consequent: TemplatePolynomial
    name: str

    def __str__(self) -> str:
        premise = " and ".join(str(p) for p in self.premise) or "true"
        return f"[{self.name}] {premise} => {self.consequent} >= 0"


@dataclass
class EncodingStats:
    """Size accounting for one encoded implication."""

    products: int
    monomials: int


def encode_implication(constraint: ImplicationConstraint, model: LPModel,
                       fresh: FreshNameGenerator,
                       max_factors: int) -> EncodingStats:
    """Encode one implication into ``model``; returns size statistics.

    Fresh nonnegative multiplier variables are named
    ``c[<constraint name>]!<index>``.
    """
    affine_polys = [ineq.expr.to_polynomial() for ineq in constraint.premise]
    products = generate_products(affine_polys, max_factors)

    rows = {mono: (dict(expr.coefficients()), expr.constant_term)
            for mono, expr in constraint.consequent.terms()}
    for product in products:
        multiplier = fresh.fresh(f"c[{constraint.name}]")
        model.add_variable(multiplier, lower=0)
        # Normalize the product to unit max-coefficient: mathematically
        # a reparametrization of c_g (which is nonnegative either way)
        # but it keeps the LP matrix well-conditioned — degree-3
        # products of [1,100]-box constraints otherwise reach 1e6-scale
        # coefficients that make HiGHS fail.
        largest = max(abs(coeff) for _, coeff in product.terms())
        if largest > 1:
            product = product.scale(1 / largest)
        for mono, coeff in product.terms():
            coeffs = rows.setdefault(mono, ({}, 0))[0]
            coeffs[multiplier] = coeffs.get(multiplier, 0) - coeff

    monomials = [mono for mono in sorted(rows)
                 if rows[mono][1] or any(rows[mono][0].values())]
    for mono in monomials:
        model.add_equality(AffineExpr(*rows[mono]),
                           name=f"{constraint.name}:{mono}")
    return EncodingStats(products=len(products), monomials=len(monomials))
