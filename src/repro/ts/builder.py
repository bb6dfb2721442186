"""A fluent builder for transition systems.

The frontend lowers `imp` programs to transition systems automatically;
the builder exists for tests, examples and for transcribing systems given
explicitly in papers (such as the paper's Fig. 2).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import TransitionSystemError
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq
from repro.ts.system import (
    COST_VAR,
    Location,
    NondetUpdate,
    Transition,
    TransitionSystem,
    UpdateExpr,
)
from repro.ts.validate import validate_system
from repro.utils.rationals import Numeric


class TransitionSystemBuilder:
    """Accumulates locations and transitions, then builds a validated
    :class:`TransitionSystem`.

    >>> b = TransitionSystemBuilder("demo", ["x"])
    >>> l0, lout = b.location("l0"), b.location("l_out")
    >>> t = b.transition(l0, lout, cost=Polynomial.variable("x"))
    >>> t.updates["cost"]
    Polynomial('x + cost')
    >>> ts = b.build(initial="l0", terminal="l_out")
    >>> len(ts.transitions)
    1
    """

    def __init__(self, name: str, variables: Iterable[str]):
        self._name = name
        variables = list(variables)
        if COST_VAR not in variables:
            variables.append(COST_VAR)
        self._variables = tuple(variables)
        self._locations: dict[str, Location] = {}
        self._transitions: list[Transition] = []
        self._init_constraint: list[LinIneq] = []
        self._transition_counter = 0

    def location(self, name: str) -> Location:
        """Declare (or fetch) a location by name."""
        if name not in self._locations:
            self._locations[name] = Location(name)
        return self._locations[name]

    def assume_init(self, *ineqs: LinIneq) -> None:
        """Conjoin inequalities to Θ0."""
        self._init_constraint.extend(ineqs)

    def assume_init_box(self, bounds: Mapping[str, tuple[Numeric, Numeric]]) -> None:
        """Conjoin box constraints ``lo <= v <= hi`` to Θ0."""
        from repro.ts.guards import box

        self._init_constraint.extend(box(bounds))

    def transition(self, source: Location | str, target: Location | str,
                   guard: Iterable[LinIneq] = (),
                   updates: Mapping[str, UpdateExpr] | None = None,
                   cost: Polynomial | Numeric | None = None,
                   name: str = "") -> Transition:
        """Add a transition.

        ``cost`` is a convenience: ``cost=delta`` adds the update
        ``cost' = cost + delta``.  Explicit cost updates in ``updates``
        and the ``cost`` shorthand are mutually exclusive.
        """
        source = self.location(source) if isinstance(source, str) else source
        target = self.location(target) if isinstance(target, str) else target
        updates = dict(updates or {})
        if cost is not None:
            if COST_VAR in updates:
                raise TransitionSystemError(
                    "pass either cost= or an explicit cost update, not both"
                )
            delta = cost if isinstance(cost, Polynomial) else Polynomial.constant(cost)
            updates[COST_VAR] = Polynomial.variable(COST_VAR) + delta
        if not name:
            name = f"t{self._transition_counter}"
        self._transition_counter += 1
        transition = Transition(source, target, tuple(guard), updates, name)
        self._transitions.append(transition)
        return transition

    def havoc(self, var: str, lower: Polynomial | Numeric | None = None,
              upper: Polynomial | Numeric | None = None) -> NondetUpdate:
        """Convenience constructor for a bounded nondet update."""
        def as_poly(value):
            if value is None or isinstance(value, Polynomial):
                return value
            return Polynomial.constant(value)

        if var == COST_VAR:
            raise TransitionSystemError("cost cannot be assigned nondeterministically")
        return NondetUpdate(as_poly(lower), as_poly(upper))

    def build(self, initial: Location | str, terminal: Location | str,
              validate: bool = True) -> TransitionSystem:
        """Finalize the system; validation is on by default."""
        initial = self.location(initial) if isinstance(initial, str) else initial
        terminal = self.location(terminal) if isinstance(terminal, str) else terminal
        system = TransitionSystem(
            name=self._name,
            variables=self._variables,
            locations=list(self._locations.values()),
            transitions=self._transitions,
            initial_location=initial,
            terminal_location=terminal,
            init_constraint=self._init_constraint,
        )
        if validate:
            validate_system(system)
        return system
