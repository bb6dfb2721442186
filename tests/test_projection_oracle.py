"""The integer-row Fourier-Motzkin kernel against the Fraction oracle.

``Polyhedron.project_out``, ``Polyhedron.transfer`` and
``LinIneq.normalize`` must give the same ``LinIneq`` lists, order
included, as the ``Fraction`` elimination kept in
``tests/fraction_projection.py``, on seeded random normal-form integer
systems.  The systems include rows that cancel to ``0 >= 0``, to a
positive constant and to a contradiction, and combinations that
coincide; small ``max_constraints`` values drive the prune-and-truncate
path, and some prunes find the system empty.
``test_the_random_systems_cover_every_case`` checks that they do.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_projection as oracle
from repro.invariants.polyhedron import Polyhedron, _fourier_motzkin, _rows
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq
from repro.ts.system import Location, NondetUpdate, Transition

NAMES = ("a", "b", "c", "d", "e")
SEEDS = range(120)
#: Ten seeds per test case.
CHUNKS = range(0, 120, 10)


def random_row(rng: random.Random, names) -> AffineExpr:
    coeffs = {name: rng.randint(-3, 3)
              for name in rng.sample(names, rng.randint(1, len(names)))}
    if not any(coeffs.values()):
        coeffs[names[0]] = rng.choice((-1, 1))
    return AffineExpr(coeffs, rng.randint(-6, 6))


def random_system(rng: random.Random, names=NAMES) -> list[LinIneq]:
    """Normal forms of random rows, some of them a row's negation
    shifted by -1, 0 or 1 (whose combination is a contradiction,
    ``0 >= 0`` or ``1 >= 0``) or a scaled copy (a duplicate)."""
    exprs = [random_row(rng, names) for _ in range(rng.randint(2, 9))]
    for expr in list(exprs):
        roll = rng.random()
        if roll < 0.3:
            exprs.append(-expr + rng.randint(-1, 1))
        elif roll < 0.4:
            exprs.append(expr.scale(rng.randint(2, 3)))
    rng.shuffle(exprs)
    return [LinIneq(expr).normalize() for expr in exprs]


def random_case(seed: int):
    rng = random.Random(seed)
    system = random_system(rng)
    variables = rng.sample(NAMES + ("z",), rng.randint(1, 4))
    max_constraints = rng.choice((2, 3, 5, 8, 64))
    return system, variables, max_constraints


def strs(ineqs) -> list[str]:
    return [str(ineq) for ineq in ineqs]


@pytest.mark.parametrize("first", CHUNKS)
def test_kernel_rows_match_fraction_elimination(first):
    # The rows before they become a Polyhedron, contradictions included.
    for seed in range(first, first + 10):
        system, variables, max_constraints = random_case(seed)
        polyhedron = Polyhedron(system)
        names = sorted(polyhedron.variables)
        position = {name: k for k, name in enumerate(names)}
        rows = _fourier_motzkin(_rows(polyhedron.ineqs, position), names,
                                variables, max_constraints)
        kernel = [LinIneq.from_row(names, row) for row in rows]
        expected = oracle.project_constraints(
            polyhedron.ineqs, variables, max_constraints)
        assert strs(kernel) == strs(expected), seed
        assert kernel == expected, seed


@pytest.mark.parametrize("first", CHUNKS)
def test_project_out_matches_fraction_projection(first):
    for seed in range(first, first + 10):
        system, variables, max_constraints = random_case(seed)
        polyhedron = Polyhedron(system)
        projected = polyhedron.project_out(variables, max_constraints)
        expected = oracle.project_out(polyhedron, variables,
                                      max_constraints)
        assert projected.is_bottom() == expected.is_bottom(), seed
        assert strs(projected.ineqs) == strs(expected.ineqs), seed


def test_the_random_systems_cover_every_case():
    events = Counter()
    for seed in SEEDS:
        system, variables, max_constraints = random_case(seed)
        oracle.project_constraints(
            Polyhedron(system).ineqs, variables, max_constraints, events)
    for case in ("duplicate", "trivial", "contradiction", "reduce",
                 "empty", "truncate"):
        assert events[case] >= 3, (case, events)


@pytest.mark.parametrize("seed", range(6))
def test_normalize_matches_fraction_normal_form(seed):
    rng = random.Random(seed)
    for _ in range(200):
        coeffs = {name: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                  for name in rng.sample(NAMES, rng.randint(0, 3))}
        constant = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        ineq = LinIneq(AffineExpr(coeffs, constant))
        normal = ineq.normalize()
        assert normal == oracle.normalize(ineq)
        assert str(normal) == str(oracle.normalize(ineq))
        assert normal.normalize() is normal
        # An expression already in normal form is its own normal form.
        fresh = LinIneq(normal.expr)
        assert fresh.normalize() is fresh


X, Y, N = (Polynomial.variable(name) for name in ("x", "y", "n"))
STATE = ("x", "y", "n", "cost")


def random_update(rng: random.Random):
    affine = (rng.randint(-2, 2) * X + Fraction(rng.randint(-3, 3),
                                                 rng.randint(1, 3)) * Y
              + rng.randint(-1, 1) * N + rng.randint(-4, 4))
    kind = rng.randrange(5)
    if kind == 0:
        return None  # identity
    if kind == 1:
        return affine
    if kind == 2:
        lower = N - rng.randint(0, 2) if rng.random() < 0.8 else None
        upper = (N + rng.randint(-3, 2) if rng.random() < 0.8 else None)
        return NondetUpdate(lower, upper)
    if kind == 3:
        return X * N + rng.randint(-2, 2)  # interval fallback
    return Polynomial.constant(Fraction(rng.randint(-5, 5), 2))


def random_transfer(seed: int) -> tuple[Polyhedron, Transition]:
    rng = random.Random(seed)
    base = random_system(rng, ("x", "y", "n"))
    box = [LinIneq.geq(var, -6) for var in (X, Y, N)]
    box += [LinIneq.leq(var, 6) for var in (X, Y, N)]
    polyhedron = Polyhedron(base[:rng.randint(0, 3)] + box)
    guard = tuple(rng.sample(random_system(rng, ("x", "y", "n")), 1))
    updates = {}
    for var in ("x", "y", "n"):
        update = random_update(rng)
        if update is not None:
            updates[var] = update
    return polyhedron, Transition(Location("p"), Location("q"), guard,
                                  updates)


@pytest.mark.parametrize("first", range(0, 80, 10))
def test_transfer_matches_fraction_transfer(first):
    for seed in range(first, first + 10):
        polyhedron, transition = random_transfer(seed)
        post = polyhedron.transfer(transition, STATE)
        expected = oracle.transfer(polyhedron, transition, STATE)
        assert post.is_bottom() == expected.is_bottom(), seed
        assert strs(post.ineqs) == strs(expected.ineqs), seed


def test_projection_keeps_emptiness_found_by_the_prune():
    # x >= y >= x + 1 is empty. Eliminating z leaves five rows, more
    # than max_constraints = 2, so the prune runs and finds the rows
    # empty; carrying its empty constraint list on read as top.
    x, y, z, w = (Polynomial.variable(name) for name in "xyzw")
    polyhedron = Polyhedron([
        LinIneq.geq(x, y), LinIneq.geq(y, x + 1), LinIneq.geq(z, 0),
        LinIneq.leq(z, 5), LinIneq.leq(z, w), LinIneq.leq(w, z + 3),
        LinIneq.geq(x, 0)])
    assert polyhedron.project_out(["z"], max_constraints=2).is_bottom()
    assert oracle.project_out(polyhedron, ["z"], 2).is_bottom()


def test_transfer_of_an_empty_nondet_range_is_bottom():
    # x' in [n, n - 1] is empty: eliminating n combines the two bounds
    # into -1 >= 0, so the post-state is bottom.
    polyhedron = Polyhedron([LinIneq.geq(N, 0), LinIneq.leq(N, 5)])
    transition = Transition(Location("p"), Location("q"), (),
                            {"x": NondetUpdate(N, N - 1)})
    assert polyhedron.transfer(transition, ("x", "n")).is_bottom()


_WORK_GUARD = """
from repro.bench.suite import get_pair, load_pair
from repro.core.diffcost import DiffCostAnalyzer
from repro.poly.linexpr import AffineExpr

old, new = load_pair("join")
analyzer = DiffCostAnalyzer(old, new, get_pair("join").config())
built = scaled = 0
scale = AffineExpr.scale


def counted_new(cls, *args, **kwargs):
    global built
    built += 1
    return object.__new__(cls)


def counted_scale(self, factor):
    global scaled
    scaled += 1
    return scale(self, factor)


AffineExpr.__new__ = counted_new
AffineExpr.scale = counted_scale
analyzer.invariants()
print(built, scaled)
"""


def test_join_invariants_build_few_affine_exprs_in_a_fresh_process():
    # Every AffineExpr goes through __new__, whichever constructor
    # builds it.  Projection on integer rows builds one per resulting
    # constraint and scales none; the Fraction elimination built
    # 11,312 and scaled 7,426 here.
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", _WORK_GUARD],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    built, scaled = map(int, result.stdout.split())
    assert built <= 3000
    assert scaled == 0
