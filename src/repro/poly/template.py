"""Symbolic polynomial templates (the paper's Step 1).

A :class:`TemplatePolynomial` is a polynomial over *program* variables
whose coefficients are :class:`~repro.poly.linexpr.AffineExpr` objects
over *template* (LP) variables.  The template fixed for location ``ℓ`` is

    φ(ℓ) = Σ_{f ∈ Mono_d(V)} u_ℓ_f · f

where each ``u_ℓ_f`` is a fresh LP variable.  Constraint collection
manipulates these objects symbolically: substitution of transition
updates, subtraction of templates at different locations, and addition of
concrete cost polynomials all stay linear in the ``u`` symbols — which is
precisely what makes the final system an LP.

Substitution (:meth:`TemplatePolynomial.substitute`) expands each
monomial once per call, off its prefix monomial, and sums the
distributed coefficients per result monomial before building any
:class:`~repro.poly.linexpr.AffineExpr`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Mapping

from repro.poly.linexpr import AffineExpr
from repro.poly.monomial import Monomial, monomials_up_to_degree
from repro.poly.polynomial import Polynomial
from repro.utils.rationals import Numeric, as_fraction


class TemplatePolynomial:
    """A polynomial whose coefficients are affine in template symbols.

    >>> t = TemplatePolynomial.fresh(["x"], degree=1, name_of=lambda m: f"u_{m}")
    >>> str(t)
    '(u_1) + (u_x)*x'
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, AffineExpr] | None = None):
        normalized: dict[Monomial, AffineExpr] = {}
        if terms:
            for mono, expr in terms.items():
                if not expr.is_zero():
                    normalized[mono] = expr
        self._terms: tuple[tuple[Monomial, AffineExpr], ...] = tuple(
            sorted(normalized.items(), key=lambda item: item[0])
        )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "TemplatePolynomial":
        """The zero template."""
        return TemplatePolynomial()

    @staticmethod
    def fresh(variables: list[str], degree: int,
              name_of: Callable[[Monomial], str]) -> "TemplatePolynomial":
        """A full template of the given degree with fresh symbols.

        ``name_of`` maps each monomial to the LP-variable name of its
        coefficient (callers encode the location into the name).
        """
        terms = {
            mono: AffineExpr.variable(name_of(mono))
            for mono in monomials_up_to_degree(variables, degree)
        }
        return TemplatePolynomial(terms)

    @staticmethod
    def from_polynomial(poly: Polynomial) -> "TemplatePolynomial":
        """Embed a concrete polynomial (constant coefficients)."""
        return TemplatePolynomial(
            {mono: AffineExpr.constant(coeff) for mono, coeff in poly.terms()}
        )

    @staticmethod
    def from_symbol(symbol: str) -> "TemplatePolynomial":
        """The template consisting of a single symbolic constant."""
        return TemplatePolynomial({Monomial.one(): AffineExpr.variable(symbol)})

    # -- inspection -----------------------------------------------------

    def coefficient(self, mono: Monomial) -> AffineExpr:
        """Symbolic coefficient of ``mono`` (zero expression if absent)."""
        for m, expr in self._terms:
            if m == mono:
                return expr
        return AffineExpr.zero()

    def monomials(self) -> list[Monomial]:
        """Monomials with a (symbolically) nonzero coefficient."""
        return [mono for mono, _ in self._terms]

    def terms(self) -> Iterator[tuple[Monomial, AffineExpr]]:
        """Iterate ``(monomial, symbolic coefficient)`` pairs."""
        return iter(self._terms)

    @property
    def symbols(self) -> frozenset[str]:
        """All template symbols used by any coefficient."""
        names: set[str] = set()
        for _, expr in self._terms:
            names.update(expr.symbols)
        return frozenset(names)

    @property
    def degree(self) -> int:
        """Total degree in the program variables."""
        if not self._terms:
            return 0
        return max(mono.degree for mono, _ in self._terms)

    def is_zero(self) -> bool:
        """True iff the template is identically the zero expression."""
        return not self._terms

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "TemplatePolynomial", sign: int) -> "TemplatePolynomial":
        terms = {mono: expr for mono, expr in self._terms}
        for mono, expr in other._terms:
            if mono in terms:
                terms[mono] = terms[mono] + expr.scale(sign)
            else:
                terms[mono] = expr.scale(sign)
        return TemplatePolynomial(terms)

    def __add__(self, other: "TemplatePolynomial | Polynomial | Numeric") -> "TemplatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    def __radd__(self, other: "Polynomial | Numeric") -> "TemplatePolynomial":
        return self.__add__(other)

    def __sub__(self, other: "TemplatePolynomial | Polynomial | Numeric") -> "TemplatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other: "Polynomial | Numeric") -> "TemplatePolynomial":
        coerced = _coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced._combine(self, -1)

    def __neg__(self) -> "TemplatePolynomial":
        return self.scale(-1)

    def scale(self, factor: Numeric) -> "TemplatePolynomial":
        """Multiply every symbolic coefficient by a rational constant."""
        frac = as_fraction(factor)
        return TemplatePolynomial(
            {mono: expr.scale(frac) for mono, expr in self._terms}
        )

    def multiply_polynomial(self, poly: Polynomial) -> "TemplatePolynomial":
        """Multiply by a concrete polynomial (stays linear in symbols)."""
        terms: dict[Monomial, AffineExpr] = {}
        for mono_t, expr in self._terms:
            for mono_p, coeff in poly.terms():
                product = mono_t * mono_p
                scaled = expr.scale(coeff)
                if product in terms:
                    terms[product] = terms[product] + scaled
                else:
                    terms[product] = scaled
        return TemplatePolynomial(terms)

    # -- substitution and instantiation -----------------------------------

    def substitute(self, mapping: Mapping[str, Polynomial]) -> "TemplatePolynomial":
        """Substitute concrete polynomials for *program* variables.

        This implements the paper's ``φ(ℓ', Up_τ(x))``: each monomial is
        expanded under the update and its symbolic coefficient is
        distributed over the expansion.  Template symbols are untouched.

        A monomial's expansion is its prefix's (the monomial with one
        factor of its last variable removed) times that variable's
        replacement, so each monomial costs one multiplication per call.
        The distributed coefficients are summed per result monomial, and
        each sum becomes one :class:`AffineExpr`.
        """
        expansions = {Monomial.one(): Polynomial.constant(1)}

        def expand(mono: Monomial) -> Polynomial:
            expansion = expansions.get(mono)
            if expansion is None:
                powers = dict(mono.items())
                var = next(reversed(powers))
                powers[var] -= 1
                replacement = mapping.get(var)
                if replacement is None:
                    replacement = Polynomial.variable(var)
                expansion = expansions[mono] = (
                    expand(Monomial(powers)) * replacement)
            return expansion

        coeffs: dict[Monomial, dict[str, Fraction]] = {}
        constants: dict[Monomial, Fraction] = {}
        for mono, expr in self._terms:
            constant = expr.constant_term
            for result_mono, factor in expand(mono).terms():
                row = coeffs.setdefault(result_mono, {})
                for name, coeff in expr.coefficients():
                    row[name] = row.get(name, 0) + coeff * factor
                if constant:
                    constants[result_mono] = (
                        constants.get(result_mono, 0) + constant * factor)
        return TemplatePolynomial({
            mono: AffineExpr(row, constants.get(mono, 0))
            for mono, row in coeffs.items()})

    def instantiate(self, assignment: Mapping[str, Numeric]) -> Polynomial:
        """Plug in values for all template symbols, yielding a concrete
        polynomial over the program variables."""
        terms: dict[Monomial, Fraction] = {}
        for mono, expr in self._terms:
            value = expr.evaluate(assignment)
            if value != 0:
                terms[mono] = value
        return Polynomial(terms)

    def evaluate_program_vars(self, valuation: Mapping[str, Numeric]) -> AffineExpr:
        """Evaluate the *program* variables, leaving an affine expression
        over the template symbols (used for initial-state constraints)."""
        result = AffineExpr.zero()
        for mono, expr in self._terms:
            result = result + expr.scale(as_fraction(mono.evaluate(valuation)))
        return result

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, expr in self._terms:
            if mono.is_constant():
                parts.append(f"({expr})")
            else:
                parts.append(f"({expr})*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TemplatePolynomial({str(self)!r})"


def _coerce(value: "TemplatePolynomial | Polynomial | Numeric") -> "TemplatePolynomial":
    if isinstance(value, TemplatePolynomial):
        return value
    if isinstance(value, Polynomial):
        return TemplatePolynomial.from_polynomial(value)
    if isinstance(value, (int, float, Fraction)):
        return TemplatePolynomial.from_polynomial(Polynomial.constant(value))
    return NotImplemented
