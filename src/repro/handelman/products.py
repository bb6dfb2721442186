"""Generation of the product set ``Prod_K(Aff)``, shared across a set.

``Prod_K(Aff)`` is the set of products of at most ``K`` (with
repetition) affine expressions from ``Aff``, including the empty product
``1``.  Every element is nonnegative wherever all ``aff_i >= 0`` hold,
which is what makes the encoding sound.

The implications of one encoding draw on few distinct premises (Table
1's ``nested`` at d = K = 3: 17 implications, 29 distinct premise
polynomials, 14,498 products of which 2,741 are distinct), so one
:class:`ProductTable` serves the whole set.  Each distinct premise
polynomial gets a generator id; a product is keyed by the sorted tuple
of its generators' ids and multiplied at most once, off the product of
its prefix.  Its LP column is normalized once too.

Per implication the enumeration order is that of
``itertools.combinations_with_replacement`` per level, over the
implication's own generators in first-occurrence order, so generated LP
columns (and hence pivot sequences) do not depend on what the table
already holds.
"""

from __future__ import annotations

from fractions import Fraction

from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial

ProductKey = tuple[int, ...]
Column = tuple[tuple[Monomial, Fraction], ...]


class ProductTable:
    """The Handelman products of one implication set, each computed once.

    >>> x, y = Polynomial.variable("x"), Polynomial.variable("y")
    >>> table = ProductTable()
    >>> table.keys([x, y], 2), table.keys([y], 2)
    ([(), (0,), (1,), (0, 0), (0, 1), (1, 1)], [(), (1,), (1, 1)])
    >>> str(table.product((0, 1))), table.column((0, 1))[0][1]
    ('x*y', Fraction(-1, 1))
    """

    __slots__ = ("_ids", "_products", "_columns")

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
        """Keys of ``Prod_K`` over ``affine_exprs`` (``K = max_factors``),
        deduplicated as polynomials, first occurrence kept, ``1`` first."""
        # Zero generators are skipped and repeated ones (guards often
        # repeat invariant inequalities verbatim) used once.
        ids = list(dict.fromkeys(self._generator(expr)
                                 for expr in affine_exprs
                                 if not expr.is_zero()))
        products = self._products
        keys: list[ProductKey] = [()]
        seen = {products[()]}
        # Level k holds every product of exactly k generators as
        # (key, smallest local generator index allowed to extend it).
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
        """The multiplier column of ``key``'s product: its terms scaled to
        unit max-coefficient (when the largest exceeds 1), negated.

        The scaling is a reparametrization of the nonnegative multiplier,
        but it keeps the LP matrix well-conditioned: degree-3 products of
        [1,100]-box constraints otherwise reach 1e6-scale coefficients
        that make HiGHS fail.
        """
        column = self._columns.get(key)
        if column is None:
            product = self._products[key]
            largest = max(abs(coeff) for _, coeff in product.terms())
            if largest > 1:
                product = product.scale(1 / largest)
            column = self._columns[key] = tuple(
                (mono, -coeff) for mono, coeff in product.terms())
        return column


def generate_products(affine_exprs: list[Polynomial],
                      max_factors: int) -> list[Polynomial]:
    """All products of at most ``max_factors`` expressions (paper's
    ``Prod_K``), deduplicated as polynomials, constant ``1`` first.

    >>> x = Polynomial.variable("x")
    >>> [str(p) for p in generate_products([x], 2)]
    ['1', 'x', 'x^2']
    """
    table = ProductTable()
    return [table.product(key) for key in table.keys(affine_exprs,
                                                     max_factors)]
