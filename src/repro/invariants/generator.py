"""Top-level invariant generation API."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.invariants.engine import FixpointEngine
from repro.invariants.polyhedron import Polyhedron
from repro.ts.guards import LinIneq
from repro.ts.system import Location, TransitionSystem


@dataclass
class InvariantMap:
    """Invariants per location, as consumed by constraint collection."""

    system: TransitionSystem
    invariants: dict[Location, Polyhedron] = field(default_factory=dict)

    def at(self, location: Location) -> Polyhedron:
        """Invariant at ``location`` (top when the engine proved
        nothing; bottom for unreachable locations)."""
        return self.invariants.get(location, Polyhedron.top())

    def ineqs_at(self, location: Location) -> tuple[LinIneq, ...]:
        """The invariant's inequalities (empty tuple for top/bottom)."""
        return self.at(location).ineqs

    def check_state(self, location: Location,
                    valuation: dict[str, int]) -> bool:
        """Does a concrete state satisfy the claimed invariant?  Used by
        property tests for soundness checking."""
        polyhedron = self.at(location)
        if polyhedron.is_bottom():
            return False
        return polyhedron.contains_point(valuation)

    def __str__(self) -> str:
        lines = [f"invariants for {self.system.name}:"]
        for location in self.system.locations:
            lines.append(f"  {location}: {self.at(location)}")
        return "\n".join(lines)


def generate_invariants(system: TransitionSystem,
                        hints: dict[str, tuple[LinIneq, ...]] | None = None,
                        ) -> InvariantMap:
    """Generate affine invariants for ``system``.

    ``hints`` maps location names to *trusted* inequality conjunctions
    (frontend ``invariant(...)`` annotations end up here); they are
    conjoined during propagation, exactly like the paper's manual
    strengthening of Aspic/Sting output (the ``*`` rows of Table 1).
    """
    engine = FixpointEngine(system, hints)
    return InvariantMap(system, engine.run())
