"""A polyhedra-lite abstract domain: conjunctions of affine inequalities.

Every semantic query — emptiness, entailment, minimization, redundancy
pruning — is decided exactly through the query's Farkas dual
(:mod:`repro.invariants.farkas`), a tiny integer LP with one row per
program variable; no floating-point solver or tolerance enters
invariant generation.  The join is the *weak join* (mutual entailment
filter), which over-approximates the convex hull; widening is the
standard constraint-dropping widening.  Existential projection uses
Fourier-Motzkin elimination with eager redundancy pruning, on integer
rows: a normal form's coefficients are coprime integers, so each
combination is an integer multiply-add divided by the gcd of its
entries, and becomes a :class:`LinIneq` once, already in normal form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.invariants.farkas import (
    EMPTY,
    EMPTY_OR_UNBOUNDED,
    OPTIMAL,
    dual_minimum,
    farkas_empty,
)
from repro.invariants.intervals import Interval, polynomial_range
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq, coprime_row, normal_row
from repro.ts.system import COST_VAR, NondetUpdate, Transition

_POST_SUFFIX = "!post"

#: Past this many constraints after an elimination, projection prunes
#: redundant ones and then keeps the first this many.
_MAX_CONSTRAINTS = 64

# Memo tables (polyhedra are immutable value objects, so results are
# shared freely across instances with equal constraint sets).
_ENTAILS_CACHE: dict[tuple, bool] = {}
_EMPTY_CACHE: dict[frozenset, bool] = {}
_CACHE_LIMIT = 200_000


class Polyhedron:
    """An immutable conjunction of :class:`LinIneq` (or bottom)."""

    __slots__ = ("_ineqs", "_bottom", "_rows", "_key")

    def __init__(self, ineqs: Iterable[LinIneq] = (), bottom: bool = False):
        normalized: list[LinIneq] = []
        seen: set[LinIneq] = set()
        for ineq in ineqs:
            canonical = ineq.normalize()
            if canonical.is_trivial() or canonical in seen:
                continue
            if canonical.is_contradiction():
                bottom = True
                break
            seen.add(canonical)
            normalized.append(canonical)
        self._bottom = bottom
        self._ineqs: tuple[LinIneq, ...] = () if bottom else tuple(normalized)
        self._rows: tuple | None = None
        self._key: frozenset[LinIneq] | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def top() -> "Polyhedron":
        """The universe (no constraints)."""
        return Polyhedron()

    @staticmethod
    def bottom() -> "Polyhedron":
        """The empty polyhedron."""
        return Polyhedron(bottom=True)

    # -- inspection -----------------------------------------------------

    @property
    def ineqs(self) -> tuple[LinIneq, ...]:
        """The constraint conjunction (empty for top and bottom)."""
        return self._ineqs

    def is_bottom(self) -> bool:
        """True iff the polyhedron is (known) empty.

        The constructor only detects syntactic contradictions; call
        :meth:`reduce` to decide emptiness semantically.
        """
        return self._bottom

    def _constraint_set(self) -> frozenset[LinIneq]:
        """The constraints as a set, built once: the memo tables' key."""
        if self._key is None:
            self._key = frozenset(self._ineqs)
        return self._key

    @property
    def variables(self) -> frozenset[str]:
        """Variables mentioned by any constraint."""
        names: set[str] = set()
        for ineq in self._ineqs:
            names.update(ineq.variables)
        return frozenset(names)

    def contains_point(self, valuation: Mapping[str, int]) -> bool:
        """Membership test for a concrete valuation."""
        if self._bottom:
            return False
        return all(ineq.holds(valuation) for ineq in self._ineqs)

    # -- exact queries (through the Farkas dual) -----------------------------

    def _matrix(self) -> tuple[dict[str, int], list[tuple[int, ...]],
                               list[int]]:
        """``(variable positions, rows a_i, constants b_i)`` with
        ``a_i·x + b_i >= 0`` for each constraint, built once.
        Normalized constraints have coprime integer coefficients."""
        if self._rows is None:
            position = {name: k
                        for k, name in enumerate(sorted(self.variables))}
            rows = _rows(self._ineqs, position)
            self._rows = (position, [row[:-1] for row in rows],
                          [row[-1] for row in rows])
        return self._rows

    def _dual_minimum(self, expr) -> tuple[str, Fraction | None]:
        """:func:`~repro.invariants.farkas.dual_minimum` of ``expr``
        (constant included) over the constraints."""
        position, rows, constants = self._matrix()
        objective: list[int | Fraction] = [0] * len(position)
        for name, coeff in expr.coefficients():
            if name not in position:
                # The dual row of a variable no constraint mentions
                # reads 0 = coeff: infeasible.
                return EMPTY_OR_UNBOUNDED, None
            objective[position[name]] = coeff
        status, value = dual_minimum(rows, constants, objective)
        if status == OPTIMAL:
            value += expr.constant_term
        return status, value

    def _infeasible(self) -> bool:
        """Are the constraints unsatisfiable?  Farkas' lemma, memoized.
        (Bottom carries no constraints, so this is False for it.)"""
        if not self._ineqs:
            return False
        key = self._constraint_set()
        cached = _EMPTY_CACHE.get(key)
        if cached is not None:
            return cached
        _, rows, constants = self._matrix()
        result = farkas_empty(rows, constants)
        if len(_EMPTY_CACHE) < _CACHE_LIMIT:
            _EMPTY_CACHE[key] = result  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only
        return result

    def is_empty(self) -> bool:
        """Semantic emptiness: bottom, or constraints that a Farkas
        certificate (``λ >= 0`` with ``Aᵀλ = 0``, ``b·λ = -1``) refutes."""
        if self._bottom:
            return True
        return self._infeasible()

    def minimize(self, expr) -> Fraction | None:
        """Exact minimum of an affine expression over the polyhedron.

        Returns ``None`` when unbounded below and raises ``ValueError``
        when the constraints are infeasible.  Bottom carries no
        constraints, so it is treated as the universe (callers should
        check).  ``expr`` is an :class:`~repro.poly.linexpr.AffineExpr`.
        """
        status, value = self._dual_minimum(expr)
        if status == OPTIMAL:
            return value
        if status == EMPTY_OR_UNBOUNDED and not self._infeasible():
            return None
        raise ValueError("minimize called on an empty polyhedron")

    def entails(self, ineq: LinIneq) -> bool:
        """Does every point of the polyhedron satisfy ``ineq``?

        Exact: entailed iff the polyhedron is empty or the minimum of
        ``ineq``'s expression over it is ``>= 0``.  An optimal dual
        gives that minimum, an unbounded dual certifies emptiness, and
        an infeasible dual leaves emptiness to :meth:`is_empty`'s test.
        Verdicts are memoized.
        """
        if self._bottom:
            return True
        canonical = ineq.normalize()
        if canonical.is_trivial():
            return True
        if not self._ineqs:
            return False
        if canonical in self._constraint_set():
            return True
        key = (self._constraint_set(), canonical)
        cached = _ENTAILS_CACHE.get(key)
        if cached is not None:
            return cached
        status, value = self._dual_minimum(canonical.expr)
        if status == OPTIMAL:
            result = value >= 0
        else:
            result = status == EMPTY or self._infeasible()
        if len(_ENTAILS_CACHE) < _CACHE_LIMIT:
            _ENTAILS_CACHE[key] = result  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only
        return result

    def entails_all(self, other: "Polyhedron") -> bool:
        """Inclusion check ``self ⊆ other``."""
        if self._bottom:
            return True
        if other._bottom:
            return self.is_empty()
        return all(self.entails(ineq) for ineq in other._ineqs)

    def var_bounds(self, var: str) -> Interval:
        """Exact interval bounds of ``var`` over the polyhedron."""
        if self._bottom:
            return Interval.point(0)
        from repro.poly.linexpr import AffineExpr

        expr = AffineExpr.variable(var)
        lower = self.minimize(expr)
        negated_upper = self.minimize(-expr)
        upper = None if negated_upper is None else -negated_upper
        if lower is not None and upper is not None and lower > upper:
            return Interval.point(0)  # empty; callers treat as degenerate
        return Interval(lower, upper)

    def all_bounds(self) -> dict[str, Interval]:
        """Interval bounds for every mentioned variable."""
        return {var: self.var_bounds(var) for var in sorted(self.variables)}

    # -- lattice operations --------------------------------------------------

    def meet(self, other: "Polyhedron | Iterable[LinIneq]") -> "Polyhedron":
        """Conjunction."""
        if isinstance(other, Polyhedron):
            if self._bottom or other._bottom:
                return Polyhedron.bottom()
            return Polyhedron(self._ineqs + other._ineqs)
        if self._bottom:
            return Polyhedron.bottom()
        return Polyhedron(self._ineqs + tuple(other))

    def join(self, other: "Polyhedron") -> "Polyhedron":
        """Weak join: keep each side's constraints entailed by the other.

        Sound (the result contains both operands) though weaker than the
        convex hull.  All mutually entailed constraints are kept, even
        mutually redundant ones: a constraint such as ``i <= n + 1`` may
        be redundant w.r.t. a transient ``i <= 1`` now but must survive
        the widening that later drops the transient one — eager
        redundancy elimination here is exactly what loses loop bounds.
        """
        if self._bottom or self.is_empty():
            return other
        if other._bottom or other.is_empty():
            return self
        kept = [ineq for ineq in self._ineqs if other.entails(ineq)]
        present = set(kept)
        for ineq in other._ineqs:
            canonical = ineq.normalize()
            if canonical not in present and self.entails(ineq):
                present.add(canonical)
                kept.append(ineq)
        return Polyhedron(kept)

    def widen(self, newer: "Polyhedron") -> "Polyhedron":
        """Standard widening: drop constraints not entailed by ``newer``."""
        if self._bottom:
            return newer
        if newer._bottom:
            return self
        return Polyhedron(
            ineq for ineq in self._ineqs if newer.entails(ineq)
        )

    def reduce(self) -> "Polyhedron":
        """Remove redundant constraints; detect emptiness.

        A constraint is dropped when the remaining ones imply it with
        slack: its exact minimum over them is strictly positive.  One
        they imply with minimum exactly 0 stays.  Dropping constraints
        only enlarges the polyhedron, so pruning never costs soundness.
        """
        if self._bottom:
            return self
        if self.is_empty():
            return Polyhedron.bottom()
        _, rows, constants = self._matrix()
        kept = list(range(len(rows)))
        index = 0
        while index < len(kept):
            candidate = kept[index]
            others = kept[:index] + kept[index + 1:]
            # The others describe a superset of this nonempty
            # polyhedron, so the dual is never unbounded here.
            status, value = dual_minimum(
                [rows[k] for k in others], [constants[k] for k in others],
                rows[candidate])
            if status == OPTIMAL and value + constants[candidate] > 0:
                kept.pop(index)
            else:
                index += 1
        return Polyhedron(self._ineqs[k] for k in kept)

    # -- projection -------------------------------------------------------------

    def project_out(self, variables: Sequence[str],
                    max_constraints: int = _MAX_CONSTRAINTS) -> "Polyhedron":
        """Existentially quantify ``variables`` via Fourier-Motzkin.

        After each elimination the constraint set is pruned; if it still
        exceeds ``max_constraints``, the loosest constraints are dropped
        (sound: dropping constraints only enlarges the polyhedron).
        """
        if self._bottom:
            return self
        names = sorted(self.variables)
        rows = _rows(self._ineqs, {name: k for k, name in enumerate(names)})
        rows = _fourier_motzkin(rows, names, variables, max_constraints)
        return Polyhedron(LinIneq.from_row(names, row) for row in rows)

    # -- transfer function ---------------------------------------------------------

    def transfer(self, transition: Transition,
                 state_variables: Sequence[str]) -> "Polyhedron":
        """Strongest affine postcondition (over-approximated).

        The pre-state is constrained by the guard; post-state variables
        are introduced as primed copies related to the pre-state by the
        updates (equalities for affine updates, interval bounds for
        non-affine ones, bound inequalities for nondet); pre-state
        variables are then projected out and the primed copies renamed
        back.  The ``cost`` variable is not tracked (potentials never
        mention it).
        """
        guarded = self.meet(transition.guard)
        if guarded.is_empty():
            return Polyhedron.bottom()

        # (post variable, sign, affine bound): sign*(post - bound) >= 0.
        bounds: list[tuple[str, int, Polynomial]] = []
        interval_cache: dict[str, Interval] | None = None
        state = [var for var in state_variables if var != COST_VAR]
        for var in state:
            update = transition.update_of(var)
            post = var + _POST_SUFFIX
            if isinstance(update, NondetUpdate):
                if update.lower is not None:
                    bounds.append((post, 1, update.lower))
                if update.upper is not None:
                    bounds.append((post, -1, update.upper))
                continue
            if update.is_affine():
                bounds.append((post, 1, update))
                bounds.append((post, -1, update))
                continue
            # Non-affine polynomial update: fall back to interval bounds.
            if interval_cache is None:
                interval_cache = guarded.all_bounds()
            value_range = polynomial_range(update, interval_cache)
            if value_range.lower is not None:
                bounds.append(
                    (post, 1, Polynomial.constant(value_range.lower)))
            if value_range.upper is not None:
                bounds.append(
                    (post, -1, Polynomial.constant(value_range.upper)))

        names_set = set(guarded.variables)
        for post, _, bound in bounds:
            names_set.add(post)
            names_set.update(bound.variables)
        names = sorted(names_set)
        position = {name: k for k, name in enumerate(names)}
        rows = _rows(guarded.ineqs, position)
        # Each bound row mentions its own primed copy, so none is
        # trivial or repeats another row.
        for post, sign, bound in bounds:
            values: list[Fraction | int] = [0] * (len(names) + 1)
            values[position[post]] = sign
            for mono, coeff in bound.terms():
                k = position[mono.variables[0]] if mono.variables else -1
                values[k] -= sign * coeff
            rows.append(normal_row(values))
        rows = _fourier_motzkin(rows, names, state, _MAX_CONSTRAINTS)
        # Only primed copies and untracked variables survive the
        # projection, so renaming each copy to its variable is injective
        # and keeps every row in normal form.
        unprimed = {var + _POST_SUFFIX: var for var in state}
        names = [unprimed.get(name, name) for name in names]
        return Polyhedron(LinIneq.from_row(names, row) for row in rows)

    # -- dunder plumbing ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        if self._bottom or other._bottom:
            return self._bottom == other._bottom
        return self._constraint_set() == other._constraint_set()

    def __hash__(self) -> int:
        return hash((self._bottom, self._constraint_set()))

    def __str__(self) -> str:
        if self._bottom:
            return "false"
        if not self._ineqs:
            return "true"
        return " and ".join(str(ineq) for ineq in self._ineqs)

    def __repr__(self) -> str:
        return f"Polyhedron({str(self)!r})"


def _rows(ineqs: Iterable[LinIneq],
          position: Mapping[str, int]) -> list[tuple[int, ...]]:
    """Normal-form constraints as integer rows: the coefficient of each
    name at its position, then the constant."""
    rows: list[tuple[int, ...]] = []
    for ineq in ineqs:
        row = [0] * (len(position) + 1)
        for name, coeff in ineq.expr.coefficients():
            row[position[name]] = coeff.numerator
        row[-1] = ineq.expr.constant_term.numerator
        rows.append(tuple(row))
    return rows


def _fourier_motzkin(rows: list[tuple[int, ...]], names: Sequence[str],
                     variables: Sequence[str],
                     max_constraints: int) -> list[tuple[int, ...]]:
    """:meth:`Polyhedron.project_out` on normal-form integer rows over
    ``names``; returns normal-form rows, none trivial or repeated.  When
    the prune finds the rows empty, the result is the contradiction
    ``-1 >= 0`` alone."""
    position = {name: k for k, name in enumerate(names)}
    # The trivial normal forms, 0 >= 0 and 1 >= 0, count as seen.
    trivial = ((0,) * (len(names) + 1), (0,) * len(names) + (1,))

    def elimination_size(var: str) -> int:
        k = position.get(var)
        if k is None:
            return 0
        positive = negative = 0
        for row in rows:
            if row[k] > 0:
                positive += 1
            elif row[k] < 0:
                negative += 1
        return positive * negative

    remaining = list(variables)
    while remaining:
        # Pick the variable with the fewest pairings to limit growth.
        remaining.sort(key=elimination_size)
        var = remaining.pop(0)
        if var in position:
            rows = _eliminate(rows, position[var], trivial)
        if len(rows) > max_constraints:
            reduced = Polyhedron(
                LinIneq.from_row(names, row) for row in rows).reduce()
            if reduced.is_bottom():
                # Bottom has no constraints to carry on: eliminating
                # further from none would read as top.
                return [(0,) * len(names) + (-1,)]
            rows = _rows(reduced.ineqs, position)[:max_constraints]
    return rows


def _eliminate(rows: list[tuple[int, ...]], k: int,
               trivial: tuple[tuple[int, ...], ...],
               ) -> list[tuple[int, ...]]:
    """One Fourier-Motzkin step on column ``k``: the rows free of it,
    then each positive×negative pair's combination in input order,
    deduplicated with the first occurrence kept and trivial rows
    dropped (a contradiction, ``-1 >= 0``, stays)."""
    free: list[tuple[int, ...]] = []
    positive: list[tuple[int, ...]] = []
    negative: list[tuple[int, ...]] = []
    for row in rows:
        if row[k] > 0:
            positive.append(row)
        elif row[k] < 0:
            negative.append(row)
        else:
            free.append(row)
    for pos in positive:
        a_pos = pos[k]
        for neg in negative:
            a_neg = -neg[k]
            free.append(coprime_row(
                [p * a_neg + n * a_pos for p, n in zip(pos, neg)]))
    seen = set(trivial)
    result: list[tuple[int, ...]] = []
    for row in free:
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result
