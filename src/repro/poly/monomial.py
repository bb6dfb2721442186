"""Monomials: power products of variables such as ``lenA*lenB`` or ``i**2``.

A monomial is an immutable, hashable mapping from variable names to
positive integer exponents.  The empty monomial is the constant ``1``.
Monomials are ordered by (degree, lexicographic) so that iteration over
polynomials and generated LP instances are deterministic.
"""

from __future__ import annotations

import itertools
from functools import total_ordering
from typing import Iterable, Iterator, Mapping


@total_ordering
class Monomial:
    """An immutable power product of variables.

    >>> m = Monomial({"x": 2, "y": 1})
    >>> m.degree
    3
    >>> str(m)
    'x^2*y'
    """

    __slots__ = ("_powers", "_key", "_hash")

    def __init__(self, powers: Mapping[str, int] | None = None):
        items = []
        if powers:
            for var, exp in sorted(powers.items()):
                if not isinstance(exp, int):
                    raise TypeError(f"exponent of {var} must be int, got {exp!r}")
                if exp < 0:
                    raise ValueError(f"negative exponent for {var}: {exp}")
                if exp > 0:
                    items.append((var, exp))
        self._powers: tuple[tuple[str, int], ...] = tuple(items)
        # The (degree, lexicographic) sort key, built once: sorting
        # polynomial terms and encoding rows compares monomials often.
        self._key = (sum(exp for _, exp in items), self._powers)
        self._hash = hash(self._powers)

    @staticmethod
    def one() -> "Monomial":
        """The constant monomial ``1``."""
        return _ONE

    @staticmethod
    def of(var: str, exponent: int = 1) -> "Monomial":
        """The monomial ``var**exponent``."""
        return Monomial({var: exponent})

    @property
    def degree(self) -> int:
        """Total degree (sum of exponents)."""
        return self._key[0]

    @property
    def variables(self) -> tuple[str, ...]:
        """Variables occurring with positive exponent, sorted."""
        return tuple(var for var, _ in self._powers)

    def exponent(self, var: str) -> int:
        """Exponent of ``var`` (0 when absent)."""
        for name, exp in self._powers:
            if name == var:
                return exp
        return 0

    def is_constant(self) -> bool:
        """True iff this is the constant monomial ``1``."""
        return not self._powers

    def is_linear(self) -> bool:
        """True iff this monomial is a single variable to the power 1."""
        return len(self._powers) == 1 and self._powers[0][1] == 1

    def items(self) -> Iterator[tuple[str, int]]:
        """Iterate ``(variable, exponent)`` pairs in sorted order."""
        return iter(self._powers)

    def multiply(self, other: "Monomial") -> "Monomial":
        """Product of two monomials (exponents add)."""
        powers = dict(self._powers)
        for var, exp in other._powers:
            powers[var] = powers.get(var, 0) + exp
        return Monomial(powers)

    __mul__ = multiply

    def divides(self, other: "Monomial") -> bool:
        """True iff ``self`` divides ``other`` componentwise."""
        return all(exp <= other.exponent(var) for var, exp in self._powers)

    def evaluate(self, valuation: Mapping[str, object]):
        """Evaluate at a valuation mapping each variable to a number."""
        result = 1
        for var, exp in self._powers:
            result *= valuation[var] ** exp
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Monomial":
        """Rename variables; unmapped variables are kept.

        Renaming two variables onto the same target merges exponents.
        """
        powers: dict[str, int] = {}
        for var, exp in self._powers:
            target = mapping.get(var, var)
            powers[target] = powers.get(target, 0) + exp
        return Monomial(powers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._powers == other._powers

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._key < other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._powers:
            return "1"
        parts = []
        for var, exp in self._powers:
            parts.append(var if exp == 1 else f"{var}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({dict(self._powers)!r})"


_ONE = Monomial()


def monomials_up_to_degree(variables: Iterable[str], degree: int) -> list[Monomial]:
    """All monomials over ``variables`` with total degree at most ``degree``.

    The result is sorted (degree-lexicographic), starting with the
    constant monomial ``1``.  This is the paper's ``Mono_d(V)``.

    >>> [str(m) for m in monomials_up_to_degree(["x", "y"], 2)]
    ['1', 'x', 'y', 'x*y', 'x^2', 'y^2']
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    names = sorted(set(variables))
    result = [Monomial.one()]
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(names, total):
            powers: dict[str, int] = {}
            for var in combo:
                powers[var] = powers.get(var, 0) + 1
            result.append(Monomial(powers))
    return sorted(result)
