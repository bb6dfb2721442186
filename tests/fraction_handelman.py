"""The Handelman encode path's ``Fraction`` reference code: the product
table and template substitution.

:class:`repro.handelman.products.ProductTable` multiplies and
deduplicates products as integer terms over one denominator, and
:meth:`repro.poly.template.TemplatePolynomial.substitute` expands each
monomial once off its prefix and builds one ``AffineExpr`` per result
monomial.  This module keeps the code those replaced: products as
:class:`~repro.poly.polynomial.Polynomial` objects, multiplied and
deduplicated in ``Fraction`` arithmetic and scaled by
``Polynomial.scale``, and a substitution that raises each replacement
to its power and re-adds a ``TemplatePolynomial`` per term.  Tests
import it as a plain module (``from fraction_handelman import
ProductTable``).
"""

from __future__ import annotations

from fractions import Fraction

from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial
from repro.poly.template import TemplatePolynomial

ProductKey = tuple[int, ...]
Column = tuple[tuple[Monomial, Fraction], ...]


class ProductTable:
    """The Handelman products of one implication set, as polynomials."""

    def __init__(self) -> None:
        self._ids: dict[Polynomial, int] = {}
        self._products: dict[ProductKey, Polynomial] = {
            (): Polynomial.constant(1)}
        self._columns: dict[ProductKey, Column] = {}

    def _generator(self, expr: Polynomial) -> int:
        gid = self._ids.get(expr)
        if gid is None:
            gid = self._ids[expr] = len(self._ids)
            self._products[(gid,)] = expr
        return gid

    def keys(self, affine_exprs: list[Polynomial],
             max_factors: int) -> list[ProductKey]:
        """Keys of ``Prod_K`` over ``affine_exprs``, deduplicated as
        polynomials, first occurrence kept, ``1`` first."""
        ids = list(dict.fromkeys(self._generator(expr)
                                 for expr in affine_exprs
                                 if not expr.is_zero()))
        products = self._products
        keys: list[ProductKey] = [()]
        seen = {products[()]}
        level: list[tuple[ProductKey, int]] = [((), 0)]
        for _ in range(max_factors):
            next_level: list[tuple[ProductKey, int]] = []
            for prefix, start in level:
                for index in range(start, len(ids)):
                    gid = ids[index]
                    key = tuple(sorted((*prefix, gid)))
                    product = products.get(key)
                    if product is None:
                        product = products[key] = (
                            products[prefix] * products[(gid,)])
                    if product not in seen:
                        seen.add(product)
                        keys.append(key)
                    next_level.append((key, index))
            level = next_level
        return keys

    def product(self, key: ProductKey) -> Polynomial:
        """The product of the generators in ``key``."""
        return self._products[key]

    def column(self, key: ProductKey) -> Column:
        """``key``'s product scaled to unit max-coefficient (when the
        largest exceeds 1), negated."""
        column = self._columns.get(key)
        if column is None:
            product = self._products[key]
            largest = max(abs(coeff) for _, coeff in product.terms())
            if largest > 1:
                product = product.scale(1 / largest)
            column = self._columns[key] = tuple(
                (mono, -coeff) for mono, coeff in product.terms())
        return column


def substitute(template: TemplatePolynomial,
               mapping: dict[str, Polynomial]) -> TemplatePolynomial:
    """``template`` with ``mapping`` substituted for its program
    variables, each monomial expanded from scratch."""
    result = TemplatePolynomial.zero()
    for mono, expr in template.terms():
        expansion = Polynomial.constant(1)
        for var, exp in mono.items():
            replacement = mapping.get(var, Polynomial.variable(var))
            expansion = expansion * replacement**exp
        result = result + TemplatePolynomial(
            {m: expr.scale(c) for m, c in expansion.terms()}
        )
    return result
