"""Affine expressions: rational linear combinations of symbols plus a constant.

:class:`AffineExpr` plays two roles in the library:

1. affine expressions over *program variables* (transition guards,
   invariant inequalities, Θ0 constraints) — the paper's ``aff_i``;
2. linear combinations of *LP variables* (template coefficients ``u_f``,
   the threshold ``t``, Handelman multipliers ``c_g``) inside
   :class:`~repro.poly.template.TemplatePolynomial` and the LP model.

Both roles need exactly the same arithmetic, so one class serves both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from repro.errors import PolynomialError
from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial
from repro.utils.rationals import Numeric, as_fraction, fraction_to_str


class AffineExpr:
    """An immutable affine expression ``c0 + c1*s1 + ... + cn*sn``.

    >>> e = AffineExpr.variable("x") - 2 * AffineExpr.variable("y") + 3
    >>> str(e)
    'x - 2*y + 3'
    """

    __slots__ = ("_coeffs", "_constant", "_hash")

    def __init__(self, coeffs: Mapping[str, Numeric] | None = None,
                 constant: Numeric = 0):
        normalized: dict[str, Fraction] = {}
        if coeffs:
            for name, value in coeffs.items():
                frac = as_fraction(value)
                if frac != 0:
                    normalized[name] = frac
        self._coeffs: tuple[tuple[str, Fraction], ...] = tuple(
            sorted(normalized.items())
        )
        self._constant = as_fraction(constant)
        # Hashed on first use: LP rows never are.
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "AffineExpr":
        """The zero expression."""
        return _ZERO

    @staticmethod
    def constant(value: Numeric) -> "AffineExpr":
        """A constant expression."""
        return AffineExpr(constant=value)

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        """A single symbol with coefficient 1."""
        return AffineExpr({name: 1})

    @staticmethod
    def from_polynomial(poly: Polynomial) -> "AffineExpr":
        """Convert an affine :class:`Polynomial`; raises otherwise."""
        if not poly.is_affine():
            raise PolynomialError(f"polynomial is not affine: {poly}")
        coeffs: dict[str, Fraction] = {}
        constant = Fraction(0)
        for mono, coeff in poly.terms():
            if mono.is_constant():
                constant = coeff
            else:
                (var,) = mono.variables
                coeffs[var] = coeff
        return AffineExpr(coeffs, constant)

    # -- inspection -----------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        """The constant part of the expression."""
        return self._constant

    @property
    def symbols(self) -> frozenset[str]:
        """Symbols occurring with nonzero coefficient."""
        return frozenset(name for name, _ in self._coeffs)

    def coefficient(self, name: str) -> Fraction:
        """Coefficient of ``name`` (0 when absent)."""
        for sym, coeff in self._coeffs:
            if sym == name:
                return coeff
        return Fraction(0)

    def coefficients(self) -> Iterator[tuple[str, Fraction]]:
        """Iterate ``(symbol, coefficient)`` pairs in sorted order."""
        return iter(self._coeffs)

    def is_constant(self) -> bool:
        """True iff no symbol occurs."""
        return not self._coeffs

    def is_zero(self) -> bool:
        """True iff this is the zero expression."""
        return not self._coeffs and self._constant == 0

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "AffineExpr", sign: int) -> "AffineExpr":
        coeffs = {name: coeff for name, coeff in self._coeffs}
        for name, coeff in other._coeffs:
            coeffs[name] = coeffs.get(name, Fraction(0)) + sign * coeff
        return AffineExpr(coeffs, self._constant + sign * other._constant)

    def __add__(self, other: "AffineExpr | Numeric") -> "AffineExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    def __radd__(self, other: Numeric) -> "AffineExpr":
        return self.__add__(other)

    def __sub__(self, other: "AffineExpr | Numeric") -> "AffineExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other: Numeric) -> "AffineExpr":
        coerced = _coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced._combine(self, -1)

    def __neg__(self) -> "AffineExpr":
        return self.scale(-1)

    def __mul__(self, factor: Numeric) -> "AffineExpr":
        if not isinstance(factor, (int, float, Fraction)):
            return NotImplemented
        return self.scale(factor)

    def __rmul__(self, factor: Numeric) -> "AffineExpr":
        return self.__mul__(factor)

    def scale(self, factor: Numeric) -> "AffineExpr":
        """Multiply all coefficients and the constant by ``factor``."""
        frac = as_fraction(factor)
        return AffineExpr(
            {name: coeff * frac for name, coeff in self._coeffs},
            self._constant * frac,
        )

    # -- evaluation / conversion ------------------------------------------

    def evaluate(self, valuation: Mapping[str, Numeric]) -> Fraction:
        """Evaluate at a valuation covering all occurring symbols."""
        total = self._constant
        for name, coeff in self._coeffs:
            total += coeff * as_fraction(valuation[name])
        return total

    def evaluate_partial(self, valuation: Mapping[str, Numeric]) -> "AffineExpr":
        """Substitute values for the symbols present in ``valuation``."""
        coeffs: dict[str, Fraction] = {}
        constant = self._constant
        for name, coeff in self._coeffs:
            if name in valuation:
                constant += coeff * as_fraction(valuation[name])
            else:
                coeffs[name] = coeff
        return AffineExpr(coeffs, constant)

    def to_polynomial(self) -> Polynomial:
        """View this expression as a degree-≤1 polynomial."""
        terms: dict[Monomial, Fraction] = {Monomial.one(): self._constant}
        for name, coeff in self._coeffs:
            terms[Monomial.of(name)] = coeff
        return Polynomial(terms)

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename symbols; unmapped symbols are kept."""
        coeffs: dict[str, Fraction] = {}
        for name, coeff in self._coeffs:
            target = mapping.get(name, name)
            coeffs[target] = coeffs.get(target, Fraction(0)) + coeff
        return AffineExpr(coeffs, self._constant)

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = AffineExpr.constant(other)
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return (self._coeffs, self._constant) == (other._coeffs, other._constant)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._coeffs, self._constant))
        return self._hash

    def __str__(self) -> str:
        parts: list[str] = []
        for name, coeff in self._coeffs:
            if abs(coeff) == 1:
                body = name
            else:
                body = f"{fraction_to_str(abs(coeff))}*{name}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        if self._constant != 0 or not parts:
            body = fraction_to_str(abs(self._constant))
            if not parts:
                parts.append(body if self._constant >= 0 else f"-{body}")
            else:
                parts.append(
                    f"+ {body}" if self._constant > 0 else f"- {body}"
                )
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"AffineExpr({str(self)!r})"


def _coerce(value: "AffineExpr | Numeric") -> "AffineExpr":
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return AffineExpr.constant(value)
    return NotImplemented


_ZERO = AffineExpr()
