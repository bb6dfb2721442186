"""Encoding of implication constraints into LP equalities.

Each :class:`ImplicationConstraint` ``⋀ aff_i >= 0 ⇒ poly >= 0`` becomes

    poly(x)  ==  Σ_{g ∈ Prod_K(Aff)} c_g · g(x),   c_g >= 0

as a polynomial identity: one equality per monomial of ``poly − Σ c_g·g``,
linear in the template symbols and the fresh ``c_g``.  One pass builds
it: rows seeded with ``poly``'s coefficients take each term of each
product's column (see :meth:`ProductTable.column`) times ``c_g``, and
each nonzero row is added once as an :class:`AffineExpr`, so the cost is
linear in the number of product terms.  The implications of one set
share a :class:`ProductTable`, so each distinct product is multiplied
(in integers) and its column built once per set.

The encoder runs in an :func:`~repro.lint.sanitizer.exact_region`
(``"handelman-encode"``): under ``REPRO_SANITIZE=1`` a float built in
products, columns or rows raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.handelman.products import ProductTable
from repro.lint.sanitizer import exact_region
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
                       fresh: FreshNameGenerator, max_factors: int,
                       products: ProductTable | None = None) -> EncodingStats:
    """Encode one implication into ``model``; returns size statistics.

    Fresh nonnegative multiplier variables are named
    ``c[<constraint name>]!<index>``.  Pass one ``products`` table to
    every implication of a set encoded into one model; the model does
    not depend on what the table already holds.
    """
    with exact_region("handelman-encode"):
        table = ProductTable() if products is None else products
        keys = table.keys([ineq.expr.to_polynomial()
                           for ineq in constraint.premise], max_factors)

        rows = {mono: (dict(expr.coefficients()), expr.constant_term)
                for mono, expr in constraint.consequent.terms()}
        for key in keys:
            multiplier = fresh.fresh(f"c[{constraint.name}]")
            model.add_variable(multiplier, lower=0)
            for mono, coeff in table.column(key):
                rows.setdefault(mono, ({}, 0))[0][multiplier] = coeff

        monomials = [mono for mono in sorted(rows)
                     if rows[mono][1] or any(rows[mono][0].values())]
        for mono in monomials:
            model.add_equality(AffineExpr(*rows[mono]),
                               name=f"{constraint.name}:{mono}")
    return EncodingStats(products=len(keys), monomials=len(monomials))
