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
its prefix.  Its LP column is built once too.

The table computes on Python integers.  Each generator and product is
a :data:`Form`: integer terms over one positive denominator, the terms'
content coprime to it, so equal polynomials have equal forms and
products are deduplicated by form.  Only a column leaves the integers,
as ``Fraction(-c, s)`` per term (see :func:`_column`).

Per implication the enumeration order is that of
``itertools.combinations_with_replacement`` per level, over the
implication's own generators in first-occurrence order, so generated LP
columns (and hence pivot sequences) do not depend on what the table
already holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial, _monomial_product

ProductKey = tuple[int, ...]
Column = tuple[tuple[Monomial, Fraction], ...]
#: ``(denominator, ((monomial, integer), ...))``: the polynomial
#: ``sum(c * m for m, c in terms) / denominator``, its nonzero terms in
#: monomial order and their gcd coprime to the positive denominator.
Form = tuple[int, tuple[tuple[Monomial, int], ...]]

_ONE: Form = (1, ((Monomial.one(), 1),))


def _form(poly: Polynomial) -> Form:
    """``poly`` over the lcm of its coefficients' denominators; the
    terms' content is then coprime to it, as the coefficients are in
    lowest terms."""
    terms = tuple(poly.terms())
    denominator = lcm(*(coeff.denominator for _, coeff in terms))  # lint: allow[math-call] lcm of int denominators is exact
    return denominator, tuple(
        (mono, coeff.numerator * (denominator // coeff.denominator))
        for mono, coeff in terms)


def _multiply(a: Form, b: Form) -> Form:
    """The form of the product of ``a`` and ``b``, in integers."""
    terms: dict[Monomial, int] = {}
    mono_mul = _monomial_product
    for mono_a, coeff_a in a[1]:
        for mono_b, coeff_b in b[1]:
            product = mono_mul(mono_a, mono_b)
            terms[product] = terms.get(product, 0) + coeff_a * coeff_b
    items = sorted((item for item in terms.items() if item[1]),
                   key=lambda item: item[0])
    denominator = a[0] * b[0]
    if denominator > 1:
        divisor = gcd(denominator, *(coeff for _, coeff in items))  # lint: allow[math-call] gcd of ints is exact
        if divisor > 1:
            denominator //= divisor
            items = [(mono, coeff // divisor) for mono, coeff in items]
    return denominator, tuple(items)


def _column(form: Form) -> Column:
    """The multiplier column of ``form``: its terms scaled to unit
    max-coefficient (when the largest exceeds 1), negated.

    With ``c`` the integer terms over denominator ``D``, the largest
    coefficient is ``max|c| / D``; scaled by its inverse a term is
    ``c / max|c|``, and unscaled it is ``c / D``.
    """
    denominator, terms = form
    largest = max(abs(coeff) for _, coeff in terms)
    scale = largest if largest > denominator else denominator
    return tuple((mono, Fraction(-coeff, scale)) for mono, coeff in terms)


class ProductTable:
    """The Handelman products of one implication set, each computed once.

    >>> x, y = Polynomial.variable("x"), Polynomial.variable("y")
    >>> table = ProductTable()
    >>> table.keys([x, y], 2), table.keys([y], 2)
    ([(), (0,), (1,), (0, 0), (0, 1), (1, 1)], [(), (1,), (1, 1)])
    >>> str(table.product((0, 1))), table.column((0, 1))[0][1]
    ('x*y', Fraction(-1, 1))
    """

    __slots__ = ("_ids", "_forms", "_columns")

    def __init__(self) -> None:
        self._ids: dict[Form, int] = {}
        self._forms: dict[ProductKey, Form] = {(): _ONE}
        self._columns: dict[ProductKey, Column] = {}

    def _generator(self, expr: Polynomial) -> int:
        form = _form(expr)
        gid = self._ids.get(form)
        if gid is None:
            gid = self._ids[form] = len(self._ids)
            self._forms[(gid,)] = form
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
        forms = self._forms
        keys: list[ProductKey] = [()]
        seen = {forms[()]}
        # Level k holds every product of exactly k generators as
        # (key, smallest local generator index allowed to extend it).
        level: list[tuple[ProductKey, int]] = [((), 0)]
        for _ in range(max_factors):
            next_level: list[tuple[ProductKey, int]] = []
            for prefix, start in level:
                for index in range(start, len(ids)):
                    gid = ids[index]
                    key = tuple(sorted((*prefix, gid)))
                    form = forms.get(key)
                    if form is None:
                        form = forms[key] = _multiply(forms[prefix],
                                                      forms[(gid,)])
                    if form not in seen:
                        seen.add(form)
                        keys.append(key)
                    next_level.append((key, index))
            level = next_level
        return keys

    def product(self, key: ProductKey) -> Polynomial:
        """The product of the generators in ``key``."""
        denominator, terms = self._forms[key]
        return Polynomial({mono: Fraction(coeff, denominator)
                           for mono, coeff in terms})

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
            column = self._columns[key] = _column(self._forms[key])
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
