"""Multivariate polynomials with exact rational coefficients.

:class:`Polynomial` is immutable and hashable; arithmetic returns new
objects.  All coefficients are :class:`fractions.Fraction`, so the
constraint pipeline (guards, invariants, Handelman identities) is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from repro.errors import PolynomialError
from repro.poly.monomial import Monomial
from repro.utils.rationals import Numeric, as_fraction, fraction_to_str


class Polynomial:
    """An immutable multivariate polynomial over ``Fraction`` coefficients.

    >>> x = Polynomial.variable("x")
    >>> y = Polynomial.variable("y")
    >>> str((x + y) * (x - y))
    '-y^2 + x^2'
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Numeric] | None = None):
        normalized: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                frac = as_fraction(coeff)
                if frac != 0:
                    normalized[mono] = frac
        self._terms: tuple[tuple[Monomial, Fraction], ...] = tuple(
            sorted(normalized.items(), key=lambda item: item[0])
        )
        self._hash = hash(self._terms)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        """The zero polynomial."""
        return _ZERO

    @staticmethod
    def constant(value: Numeric) -> "Polynomial":
        """A constant polynomial."""
        return Polynomial({Monomial.one(): as_fraction(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        """The polynomial consisting of a single variable."""
        return Polynomial({Monomial.of(name): Fraction(1)})

    @staticmethod
    def from_monomial(mono: Monomial, coeff: Numeric = 1) -> "Polynomial":
        """``coeff * mono`` as a polynomial."""
        return Polynomial({mono: as_fraction(coeff)})

    # -- inspection -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self._terms:
            return 0
        return max(mono.degree for mono, _ in self._terms)

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring with nonzero coefficient."""
        names: set[str] = set()
        for mono, _ in self._terms:
            names.update(mono.variables)
        return frozenset(names)

    def coefficient(self, mono: Monomial) -> Fraction:
        """Coefficient of ``mono`` (0 when absent)."""
        for m, c in self._terms:
            if m == mono:
                return c
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        """Coefficient of the constant monomial."""
        return self.coefficient(Monomial.one())

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate ``(monomial, coefficient)`` pairs in canonical order."""
        return iter(self._terms)

    def monomials(self) -> list[Monomial]:
        """Monomials with nonzero coefficient, in canonical order."""
        return [mono for mono, _ in self._terms]

    def is_zero(self) -> bool:
        """True iff this is the zero polynomial."""
        return not self._terms

    def is_constant(self) -> bool:
        """True iff this polynomial mentions no variables."""
        return all(mono.is_constant() for mono, _ in self._terms)

    def is_affine(self) -> bool:
        """True iff total degree is at most 1."""
        return self.degree <= 1

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        terms = {mono: coeff for mono, coeff in self._terms}
        for mono, coeff in other._terms:
            terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
        return Polynomial(terms)

    def __add__(self, other: "Polynomial | Numeric") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    def __radd__(self, other: Numeric) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other: "Polynomial | Numeric") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other: Numeric) -> "Polynomial":
        coerced = _coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced._combine(self, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial({mono: -coeff for mono, coeff in self._terms})

    def __mul__(self, other: "Polynomial | Numeric") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        mono_mul = _monomial_product
        for mono_a, coeff_a in self._terms:
            for mono_b, coeff_b in other._terms:
                product = mono_mul(mono_a, mono_b)
                terms[product] = terms.get(product, Fraction(0)) + coeff_a * coeff_b
        return Polynomial(terms)

    def __rmul__(self, other: Numeric) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolynomialError(f"polynomial power must be a nonnegative int, got {exponent!r}")
        result = Polynomial.constant(1)
        base = self
        power = exponent
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def scale(self, factor: Numeric) -> "Polynomial":
        """Multiply every coefficient by ``factor``."""
        frac = as_fraction(factor)
        return Polynomial({mono: coeff * frac for mono, coeff in self._terms})

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, valuation: Mapping[str, Numeric]) -> Fraction:
        """Evaluate at a total valuation of the occurring variables."""
        total = Fraction(0)
        for mono, coeff in self._terms:
            total += coeff * as_fraction(mono.evaluate(valuation))
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables simultaneously.

        Variables absent from ``mapping`` are left unchanged.
        """
        result = Polynomial.zero()
        for mono, coeff in self._terms:
            factor = Polynomial.constant(coeff)
            for var, exp in mono.items():
                replacement = mapping.get(var, Polynomial.variable(var))
                factor = factor * replacement**exp
            result = result + factor
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables; unmapped variables are kept."""
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms:
            renamed = mono.rename(mapping)
            terms[renamed] = terms.get(renamed, Fraction(0)) + coeff
        return Polynomial(terms)

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # Render highest-degree terms first for readability.
        parts: list[str] = []
        for mono, coeff in sorted(self._terms, key=lambda item: item[0], reverse=True):
            if mono.is_constant():
                body = fraction_to_str(abs(coeff))
            elif abs(coeff) == 1:
                body = str(mono)
            else:
                body = f"{fraction_to_str(abs(coeff))}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


@lru_cache(maxsize=1 << 16)
def _monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """Cached monomial product for the ``Polynomial.__mul__`` hot path.

    Handelman product generation multiplies the same low-degree
    monomial pairs over and over (every guard inequality shares the
    program variables); building each product ``Monomial`` involves a
    dict merge plus a sort, which the cache skips entirely on repeats.
    Monomials are immutable and hashable, so memoization is sound.
    """
    return a.multiply(b)


def _coerce(value: "Polynomial | Numeric") -> "Polynomial":
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


_ZERO = Polynomial()
