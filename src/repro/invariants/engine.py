"""Worklist fixpoint engine for forward invariant generation.

Standard Cousot-style analysis: start from Θ0 at the initial location,
propagate through transitions with the polyhedral transfer function,
join at merge points, widen at widening points (targets of back edges)
after :data:`WIDENING_DELAY` visits, then run up to
:data:`NARROWING_PASSES` narrowing (descending) passes to recover
precision lost to widening.
"""

from __future__ import annotations

from repro.invariants.polyhedron import Polyhedron
from repro.ts.system import Location, TransitionSystem

#: A safety bound on the ascending iteration's worklist steps.
MAX_ITERATIONS = 10_000

#: Joins at a back-edge target before the engine widens there.
WIDENING_DELAY = 3

#: Descending passes after the ascending iteration stabilizes.
NARROWING_PASSES = 2


class FixpointEngine:
    """Computes one polyhedron per location over-approximating
    reachability, widening at a back-edge target after
    :data:`WIDENING_DELAY` visits and then running
    :data:`NARROWING_PASSES` descending passes."""

    def __init__(self, system: TransitionSystem,
                 hints: dict[str, tuple] | None = None):
        self.system = system
        # Hints (trusted annotations) are conjoined at their location on
        # every propagation, mirroring the paper's manual strengthening.
        self.hints = {
            name: tuple(ineqs) for name, ineqs in (hints or {}).items()
        }

    def _apply_hints(self, location: Location,
                     polyhedron: Polyhedron) -> Polyhedron:
        hint = self.hints.get(location.name)
        if hint and not polyhedron.is_bottom():
            return polyhedron.meet(hint)
        return polyhedron

    def _widening_points(self) -> set[Location]:
        """Locations that are targets of back edges (DFS on transitions).

        Widening at these locations guarantees termination of the
        ascending iteration.
        """
        color: dict[Location, int] = {}
        back_targets: set[Location] = set()

        def visit(location: Location) -> None:
            color[location] = 1
            for transition in self.system.outgoing(location):
                target = transition.target
                state = color.get(target, 0)
                if state == 0:
                    visit(target)
                elif state == 1:
                    back_targets.add(target)
            color[location] = 2

        visit(self.system.initial_location)
        return back_targets

    def run(self) -> dict[Location, Polyhedron]:
        """Compute the invariant map."""
        state_vars = self.system.state_variables
        initial = self._apply_hints(
            self.system.initial_location,
            Polyhedron(self.system.init_constraint),
        )
        values: dict[Location, Polyhedron] = {
            location: Polyhedron.bottom() for location in self.system.locations
        }
        values[self.system.initial_location] = initial

        widening_points = self._widening_points()
        visits: dict[Location, int] = {}
        worklist: list[Location] = [self.system.initial_location]
        iterations = 0

        while worklist and iterations < MAX_ITERATIONS:
            iterations += 1
            location = worklist.pop(0)
            current = values[location]
            if current.is_bottom():
                continue
            for transition in self.system.outgoing(location):
                target = transition.target
                post = current.transfer(transition, state_vars)
                post = self._apply_hints(target, post)
                if post.is_bottom():
                    continue
                old = values[target]
                if post.entails_all(old) and not old.is_bottom():
                    continue  # no new information
                joined = old.join(post)
                visits[target] = visits.get(target, 0) + 1
                if (target in widening_points
                        and visits[target] > WIDENING_DELAY):
                    joined = old.widen(joined)
                # No reduce() here: redundant-but-stable constraints
                # (e.g. i <= n+1 alongside a transient i <= 1) must stay
                # so widening can keep them; reduction happens once at
                # the end.
                values[target] = joined
                if target not in worklist:
                    worklist.append(target)

        # Narrowing: re-propagate without widening; intersect with the
        # computed post to claw back precision (finitely many passes).
        for _ in range(NARROWING_PASSES):
            changed = False
            for location in self.system.locations:
                if location == self.system.initial_location:
                    continue
                posts: list[Polyhedron] = []
                for transition in self.system.transitions:
                    if transition.target != location:
                        continue
                    source_value = values[transition.source]
                    if source_value.is_bottom():
                        continue
                    posts.append(source_value.transfer(transition, state_vars))
                posts = [p for p in posts if not p.is_bottom()]
                if not posts:
                    continue
                refined = posts[0]
                for post in posts[1:]:
                    refined = refined.join(post)
                refined = self._apply_hints(location, refined)
                # Sound descending step: the new value must stay above
                # the eventual fixpoint; intersecting the current value
                # with the recomputed post is the classic narrowing.
                narrowed = values[location].meet(refined)
                if narrowed != values[location]:
                    values[location] = narrowed
                    changed = True
            if not changed:
                break

        return {
            location: polyhedron.reduce()
            for location, polyhedron in values.items()
        }
