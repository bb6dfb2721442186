"""Affine inequalities used in guards, Θ0 and invariants.

A :class:`LinIneq` represents ``expr >= 0`` for an affine expression over
program variables.  The paper assumes all transition guards, Θ0 and
invariants are conjunctions of such inequalities (assumptions 1-3 of the
algorithm); keeping one normal form everywhere simplifies the Handelman
step, which consumes exactly these ``aff_i >= 0`` premises.

Because program variables range over integers, strict inequalities
normalize exactly: ``a < b`` becomes ``b - a - 1 >= 0``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from repro.errors import PolynomialError
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.utils.rationals import Numeric, as_fraction


class LinIneq:
    """The constraint ``expr >= 0`` for an affine ``expr``.

    >>> x = Polynomial.variable("x")
    >>> str(LinIneq.less_than(x, 10))
    '-x + 9 >= 0'
    """

    __slots__ = ("_expr", "_normal")

    def __init__(self, expr: AffineExpr):
        self._expr = expr
        # The memoized normal form, or True on a normal form itself (a
        # self-reference would be a reference cycle).
        self._normal: LinIneq | bool | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _affine(value: Polynomial | AffineExpr | Numeric) -> AffineExpr:
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, Polynomial):
            return AffineExpr.from_polynomial(value)
        if isinstance(value, (int, float, Fraction)):
            return AffineExpr.constant(value)
        raise PolynomialError(f"not an affine expression: {value!r}")

    @classmethod
    def geq(cls, lhs, rhs) -> "LinIneq":
        """``lhs >= rhs``."""
        return cls(cls._affine(lhs) - cls._affine(rhs))

    @classmethod
    def leq(cls, lhs, rhs) -> "LinIneq":
        """``lhs <= rhs``."""
        return cls(cls._affine(rhs) - cls._affine(lhs))

    @classmethod
    def greater_than(cls, lhs, rhs) -> "LinIneq":
        """``lhs > rhs`` over the integers (``lhs - rhs - 1 >= 0``)."""
        return cls(cls._affine(lhs) - cls._affine(rhs) - 1)

    @classmethod
    def less_than(cls, lhs, rhs) -> "LinIneq":
        """``lhs < rhs`` over the integers (``rhs - lhs - 1 >= 0``)."""
        return cls(cls._affine(rhs) - cls._affine(lhs) - 1)

    @classmethod
    def equals(cls, lhs, rhs) -> tuple["LinIneq", "LinIneq"]:
        """``lhs == rhs`` as a pair of opposite inequalities."""
        return (cls.geq(lhs, rhs), cls.leq(lhs, rhs))

    @staticmethod
    def always_true() -> "LinIneq":
        """The trivially satisfied inequality ``0 >= 0``."""
        return LinIneq(AffineExpr.zero())

    # -- inspection -----------------------------------------------------

    @property
    def expr(self) -> AffineExpr:
        """The affine expression constrained to be nonnegative."""
        return self._expr

    @property
    def variables(self) -> frozenset[str]:
        """Variables mentioned by the inequality."""
        return self._expr.symbols

    def is_trivial(self) -> bool:
        """True iff the inequality is variable-free and satisfied."""
        return self._expr.is_constant() and self._expr.constant_term >= 0

    def is_contradiction(self) -> bool:
        """True iff the inequality is variable-free and violated."""
        return self._expr.is_constant() and self._expr.constant_term < 0

    # -- logic ----------------------------------------------------------

    def negate(self) -> "LinIneq":
        """Integer negation: ``¬(e >= 0)`` is ``-e - 1 >= 0``.

        Sound and complete for integer-valued variables with rational
        coefficients scaled to integers; our frontend produces integer
        coefficients so the ``-1`` slack is exact.
        """
        return LinIneq(-self._expr - 1)

    def holds(self, valuation: Mapping[str, Numeric]) -> bool:
        """Evaluate at an (integer) valuation."""
        return self._expr.evaluate(valuation) >= 0

    def substitute(self, mapping: Mapping[str, Polynomial]) -> "LinIneq":
        """Substitute affine polynomials for variables.

        Raises if the result would not be affine.
        """
        substituted = self._expr.to_polynomial().substitute(mapping)
        return LinIneq(AffineExpr.from_polynomial(substituted))

    def rename(self, mapping: Mapping[str, str]) -> "LinIneq":
        """Rename variables."""
        return LinIneq(self._expr.rename(mapping))

    def normalize(self) -> "LinIneq":
        """Scale so coefficients are coprime integers (canonical form).

        Useful for deduplication in invariants: ``2x - 4 >= 0`` and
        ``x - 2 >= 0`` normalize identically.  Computed once per
        instance; a normal form is its own normal form.
        """
        normal = self._normal
        if normal is True:
            return self
        if normal is None:
            normal = self._normal = self._scaled_coprime()
            normal._normal = True
        return normal

    def _scaled_coprime(self) -> "LinIneq":
        pairs = list(self._expr.coefficients())
        values = [coeff for _, coeff in pairs]
        values.append(self._expr.constant_term)
        row = normal_row(values)
        if row == tuple(values):
            return self
        return LinIneq.from_row([name for name, _ in pairs], row)

    @staticmethod
    def from_row(names: Sequence[str], row: Sequence[int]) -> "LinIneq":
        """``row[0]*names[0] + ... + row[-1] >= 0`` for a row of coprime
        integers (one more entry than ``names``: the constant), built as
        its own normal form.  Names whose entry is 0 are left out, so
        they may repeat."""
        ineq = LinIneq(AffineExpr(
            {name: coeff for name, coeff in zip(names, row) if coeff},
            row[-1]))
        ineq._normal = True
        return ineq

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinIneq):
            return NotImplemented
        return self._expr == other._expr

    def __hash__(self) -> int:
        return hash(("LinIneq", self._expr))

    def __str__(self) -> str:
        return f"{self._expr} >= 0"

    def __repr__(self) -> str:
        return f"LinIneq({self._expr!r})"


def coprime_row(row: list[int]) -> tuple[int, ...]:
    """An integer row divided by the gcd of its entries: the entries of
    its normal form (an all-zero row stays zero)."""
    divisor = gcd(*row)
    if divisor > 1:
        return tuple([entry // divisor for entry in row])
    return tuple(row)


def normal_row(values: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The coprime integers that are a positive multiple of ``values``:
    the entries of a normal form, from its numerators and denominators
    (all zero when ``values`` are)."""
    lcm = 1
    for value in values:
        denominator = value.denominator
        if lcm % denominator:
            lcm = lcm // gcd(lcm, denominator) * denominator
    return coprime_row([value.numerator * (lcm // value.denominator)
                        for value in values])


def all_hold(ineqs: Iterable[LinIneq], valuation: Mapping[str, Numeric]) -> bool:
    """True iff every inequality holds at ``valuation``."""
    return all(ineq.holds(valuation) for ineq in ineqs)


def box(bounds: Mapping[str, tuple[Numeric, Numeric]]) -> tuple[LinIneq, ...]:
    """Inequalities for a box ``lo <= v <= hi`` per variable.

    Convenience for Θ0 sets such as the paper's ``1 <= lenA <= 100``.
    """
    ineqs: list[LinIneq] = []
    for var in sorted(bounds):
        low, high = bounds[var]
        poly = Polynomial.variable(var)
        ineqs.append(LinIneq.geq(poly, as_fraction(low)))
        ineqs.append(LinIneq.leq(poly, as_fraction(high)))
    return tuple(ineqs)
