"""Cross-backend LP agreement and revised-simplex regression tests.

The exact backends (``exact``, ``exact-warm``, ``exact-dense``) must be
interchangeable oracles: same status on every instance and bit-identical
``Fraction`` optima whenever one exists.  The float backend must agree
on status and approximate the exact optimum.  Degenerate and cycling
instances exercise the Dantzig→Bland anti-cycling fallback.
"""

import random
from fractions import Fraction

import pytest

import repro.lp.certify as certify
from repro.lp import (
    DenseSimplexBackend,
    IncrementalLP,
    LPModel,
    LPStatus,
    RevisedSimplexBackend,
    ScipyBackend,
    WarmStartExactBackend,
)
from repro.lp.dual import exact_dual_feasible, run_dual_simplex
from repro.lp.revised import (
    OPTIMAL,
    WARM_INFEASIBLE,
    WARM_READY,
    WARM_SINGULAR,
    RevisedSimplex,
)
from repro.lp.standard import standardize
from repro.poly.linexpr import AffineExpr

SEED = 20220622


def make_random_lp(rng: random.Random) -> LPModel:
    """A small LP with mixed bounds, free variables and senses; the
    population includes optimal, infeasible and unbounded instances."""
    names = ["v0", "v1", "v2", "v3"]
    model = LPModel()
    for name in names:
        if rng.random() < 0.5:
            model.add_variable(name, 0)
        if rng.random() < 0.25:
            model.add_variable(name, None, rng.randint(1, 10))
        if rng.random() < 0.15:
            model.add_variable(name, rng.randint(-5, 0), rng.randint(1, 6))
    for _ in range(rng.randint(1, 5)):
        expr = AffineExpr.constant(rng.randint(-5, 5))
        for name in names:
            expr = expr + rng.randint(-3, 3) * AffineExpr.variable(name)
        if rng.random() < 0.5:
            model.add_equality(expr)
        else:
            model.add_inequality(expr)
    objective = AffineExpr.zero()
    for name in names:
        objective = objective + rng.randint(-2, 2) * AffineExpr.variable(name)
    model.minimize(objective)
    return model


class TestRandomizedAgreement:
    """The satellite agreement suite: seeded, deterministic, 60 LPs."""

    def test_exact_trio_and_scipy_agree(self):
        rng = random.Random(SEED)
        statuses_seen = set()
        for trial in range(60):
            model = make_random_lp(rng)
            exact = RevisedSimplexBackend().solve(model)
            warm = WarmStartExactBackend().solve(model)
            dense = DenseSimplexBackend().solve(model)
            floaty = ScipyBackend().solve(model)
            assert exact.status == warm.status == dense.status, trial
            assert floaty.status == exact.status, trial
            statuses_seen.add(exact.status)
            if exact.status is LPStatus.OPTIMAL:
                # Bit-identical Fractions across the exact trio.
                assert exact.objective_value == warm.objective_value, trial
                assert exact.objective_value == dense.objective_value, trial
                assert isinstance(exact.objective_value, Fraction)
                assert isinstance(warm.objective_value, Fraction)
                # Exact optima satisfy the model exactly.
                assert model.check_assignment(exact.values) == [], trial
                assert model.check_assignment(warm.values) == [], trial
                assert float(floaty.objective_value) == pytest.approx(
                    float(exact.objective_value), abs=1e-6
                ), trial
        # The population must actually exercise all three outcomes,
        # otherwise the suite silently degrades.
        assert statuses_seen == {
            LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED
        }

    def test_warm_without_scipy_matches_exact(self, monkeypatch):
        """Force the float-revised-simplex warm-start path."""
        monkeypatch.setattr(certify, "USE_SCIPY", False)
        rng = random.Random(SEED + 1)
        for trial in range(25):
            model = make_random_lp(rng)
            exact = RevisedSimplexBackend().solve(model)
            warm = WarmStartExactBackend().solve(model)
            assert exact.status == warm.status, trial
            if exact.status is LPStatus.OPTIMAL:
                assert exact.objective_value == warm.objective_value, trial
                assert "float_status" not in warm.stats, trial


def beale_cycling_lp() -> LPModel:
    """Beale's classical cycling instance (Dantzig pricing cycles on it
    with naive tie-breaking); exact optimum is -1/20."""
    x4, x5, x6 = (AffineExpr.variable(n) for n in ("x4", "x5", "x6"))
    x7 = AffineExpr.variable("x7")
    model = LPModel()
    for name in ("x4", "x5", "x6", "x7"):
        model.add_variable(name, 0)
    # (1/4)x4 - 60x5 - (1/25)x6 + 9x7 <= 0
    model.add_inequality(
        -(x4.scale(Fraction(1, 4)) - x5.scale(60)
          - x6.scale(Fraction(1, 25)) + x7.scale(9))
    )
    # (1/2)x4 - 90x5 - (1/50)x6 + 3x7 <= 0
    model.add_inequality(
        -(x4.scale(Fraction(1, 2)) - x5.scale(90)
          - x6.scale(Fraction(1, 50)) + x7.scale(3))
    )
    model.add_inequality(1 - x6)  # x6 <= 1
    model.minimize(
        -x4.scale(Fraction(3, 4)) + x5.scale(150)
        - x6.scale(Fraction(1, 50)) + x7.scale(6)
    )
    return model


class TestDegenerateAndCycling:
    def test_beale_terminates_at_exact_optimum(self):
        model = beale_cycling_lp()
        for backend in (RevisedSimplexBackend(), WarmStartExactBackend(),
                        DenseSimplexBackend()):
            solution = backend.solve(model)
            assert solution.status is LPStatus.OPTIMAL
            assert solution.objective_value == Fraction(-1, 20)

    def test_bland_fallback_engages_and_agrees(self):
        # bland_trigger=1 flips to Bland's rule on the first degenerate
        # pivot; the optimum must be unchanged and the fallback counter
        # must show the rule actually ran.
        model = beale_cycling_lp()
        eager = RevisedSimplexBackend(bland_trigger=1).solve(model)
        default = RevisedSimplexBackend().solve(model)
        assert eager.status is LPStatus.OPTIMAL
        assert eager.objective_value == default.objective_value
        assert eager.stats["degenerate_pivots"] > 0
        assert eager.stats["bland_pivots"] > 0

    def test_fully_degenerate_feasible_point(self):
        # Every basic feasible solution is degenerate (b = 0); the
        # solver must not loop.
        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")
        model = LPModel()
        model.add_variable("x", 0)
        model.add_variable("y", 0)
        model.add_inequality(-(x + y))        # x + y <= 0
        model.add_inequality(-(x - y))        # x - y <= 0
        model.minimize(-x)
        for backend in (RevisedSimplexBackend(), WarmStartExactBackend()):
            solution = backend.solve(model)
            assert solution.status is LPStatus.OPTIMAL
            assert solution.objective_value == 0
            assert solution.values["x"] == 0


class TestWarmStartPaths:
    def test_scipy_path_records_source(self):
        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")
        model = LPModel()
        model.add_variable("x", 0)
        model.add_variable("y", 0)
        model.add_inequality(4 - x - y)
        model.minimize(-(x + y))
        solution = WarmStartExactBackend().solve(model)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.stats["path"] in ("certified", "resumed")
        assert solution.stats["basis_source"] in ("scipy", "float-simplex")

    def test_infeasible_model_takes_fallback_path(self):
        x = AffineExpr.variable("x")
        model = LPModel()
        model.add_variable("x", 0)
        model.add_equality(x + 1)
        solution = WarmStartExactBackend().solve(model)
        assert solution.status is LPStatus.INFEASIBLE
        assert solution.stats["path"] == "fallback"

    def test_certified_path_has_zero_exact_pivots(self, monkeypatch):
        monkeypatch.setattr(certify, "USE_SCIPY", False)
        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")
        model = LPModel()
        model.add_variable("x", 0)
        model.add_variable("y", 0)
        model.add_inequality(4 - x - y)
        model.add_inequality(2 - x + y)
        model.minimize(-(x + 2 * y))
        solution = WarmStartExactBackend().solve(model)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective_value == -8
        if solution.stats["path"] == "certified":
            assert solution.stats["phase2_pivots"] == 0

    def test_warm_start_rejects_bad_bases(self):
        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")
        model = LPModel()
        model.add_variable("x", 0)
        model.add_variable("y", 0)
        model.add_inequality(4 - x - y)
        model.add_inequality(2 - x + y)
        model.minimize(-(x + 2 * y))
        form = standardize(model)
        solver = RevisedSimplex(form)
        # Wrong length and duplicate columns are both singular.
        assert solver.warm_start([0]) == WARM_SINGULAR
        assert solver.warm_start([0, 0]) == WARM_SINGULAR
        # The artificial identity basis is nonsingular but leaves the
        # artificials at b != 0, i.e. A x = b is violated — rejected as
        # infeasible rather than silently solving the wrong program.
        artificial = list(range(form.num_cols,
                                form.num_cols + form.num_rows))
        assert RevisedSimplex(form).warm_start(artificial) == WARM_INFEASIBLE
        # A genuinely optimal basis round-trips as ready.
        solved = RevisedSimplex(form)
        assert solved.solve_two_phase() == "optimal"
        assert RevisedSimplex(form).warm_start(solved.basis) == WARM_READY


def _random_objective(rng: random.Random) -> AffineExpr:
    objective = AffineExpr.zero()
    for name in ("v0", "v1", "v2", "v3"):
        objective = objective + rng.randint(-2, 2) * AffineExpr.variable(name)
    return objective


class TestIncrementalAgainstColdOracles:
    """The LU-basis / dual-simplex extension of the seeded agreement
    suite: every incremental re-solve (objective swap through primal
    phase 2, bound tweak through the dual simplex) must report the same
    status and a bit-identical ``Fraction`` optimum as cold solves by
    the ``exact`` and ``exact-dense`` oracles."""

    def test_objective_swaps_match_cold_trio(self):
        rng = random.Random(SEED + 2)
        statuses_seen = set()
        for trial in range(20):
            model = make_random_lp(rng)
            incremental = IncrementalLP(model)
            for _ in range(3):
                solution = incremental.solve(_random_objective(rng))
                exact = RevisedSimplexBackend().solve(model)
                dense = DenseSimplexBackend().solve(model)
                assert solution.status == exact.status == dense.status, trial
                statuses_seen.add(solution.status)
                if solution.status is LPStatus.OPTIMAL:
                    assert solution.objective_value == exact.objective_value
                    assert solution.objective_value == dense.objective_value
                    assert isinstance(solution.objective_value, Fraction)
                    assert model.check_assignment(solution.values) == []
            if incremental.solver is not None:
                # One factorized system served every swap: at most the
                # cold start's factorizations plus eta-driven refactors,
                # never one per objective.
                assert incremental.stats["cold_solves"] == 1
        assert statuses_seen == {
            LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED
        }

    def test_bound_tightening_matches_cold_trio(self):
        rng = random.Random(SEED + 3)
        dual_runs = 0
        for trial in range(15):
            model = make_random_lp(rng)
            model.add_variable("v0", 0, 12)
            model.minimize(_random_objective(rng))
            incremental = IncrementalLP(model)
            incremental.solve()
            for upper in (9, 5, 2, 0):
                solution = incremental.update_upper("v0", upper)
                cold = RevisedSimplexBackend().solve(model)
                dense = DenseSimplexBackend().solve(model)
                assert solution.status == cold.status == dense.status, (
                    trial, upper
                )
                if solution.status is LPStatus.OPTIMAL:
                    assert solution.objective_value == cold.objective_value
                    assert solution.objective_value == dense.objective_value
                    assert model.check_assignment(solution.values) == []
            dual_runs += incremental.stats["dual_resolves"]
        # The tweaks must actually exercise the dual path, not fall
        # back to cold solves every time.
        assert dual_runs > 0

    def test_dual_simplex_repairs_rhs_shift(self):
        # Optimal basis, then a manual rhs patch that breaks primal
        # feasibility: the dual simplex must repair it to the same
        # optimum a cold solve of the patched program finds.
        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")

        def patched_model(demand):
            model = LPModel()
            model.add_variable("x", 0)
            model.add_variable("y", 0)
            model.add_inequality(x + y - demand)      # x + y >= demand
            model.add_inequality(6 - x)               # x <= 6
            model.minimize(2 * x + 3 * y)
            return model

        form = standardize(patched_model(3))
        solver = RevisedSimplex(form)
        assert solver.solve_two_phase() == OPTIMAL
        assert exact_dual_feasible(solver, solver.phase2_costs())
        # Raise the demand row's rhs: the basis stays dual feasible
        # (costs unchanged) but some basic value goes negative.
        solver.b[0] = Fraction(8)
        solver.xb = solver.fact.ftran_dense(solver.b)
        assert any(value < 0 for value in solver.xb)
        status = run_dual_simplex(solver, solver.phase2_costs())
        assert status == OPTIMAL
        assert solver.stats["dual_pivots"] > 0
        # The standard-form objective at the repaired basis equals the
        # cold optimum of the patched program (x, y have zero shifts).
        objective = sum(
            (cost * value for cost, value in
             zip(solver.costs, solver.assignment())),
            Fraction(0),
        )
        reference = RevisedSimplexBackend().solve(patched_model(8))
        assert objective == reference.objective_value

    def test_budget_exhausted_resolve_is_rescued(self, monkeypatch):
        # A 1-pivot budget forces every re-solve through the rescue
        # path (float candidate warm-started on the live solver); the
        # optima must stay bit-identical to cold solves.
        monkeypatch.setattr(IncrementalLP, "RESOLVE_PIVOT_BUDGET", 1)
        rng = random.Random(SEED + 4)
        rescued = 0
        for trial in range(10):
            model = make_random_lp(rng)
            incremental = IncrementalLP(model)
            for _ in range(3):
                solution = incremental.solve(_random_objective(rng))
                exact = RevisedSimplexBackend().solve(model)
                assert solution.status == exact.status, trial
                if solution.status is LPStatus.OPTIMAL:
                    assert solution.objective_value == exact.objective_value
            rescued += incremental.stats.get("resolve_rescues", 0)
        assert rescued > 0

    def test_dual_simplex_certifies_infeasibility(self):
        x = AffineExpr.variable("x")
        model = LPModel()
        model.add_variable("x", 0, 5)
        model.add_inequality(x - 2)   # x >= 2, consistent
        model.minimize(x)
        incremental = IncrementalLP(model)
        assert incremental.solve().objective_value == 2
        solution = incremental.update_upper("x", 1)  # x <= 1: empty
        assert solution.status is LPStatus.INFEASIBLE
        reference = RevisedSimplexBackend().solve(model)
        assert reference.status is LPStatus.INFEASIBLE
        # Re-widening repairs feasibility again (the cached proof must
        # not outlive the rhs patch).
        solution = incremental.update_upper("x", 4)
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective_value == 2


class TestTable1ExactParity:
    """Acceptance gate: on a Table 1 Handelman LP the warm-started
    backend returns the bit-identical Fraction threshold of the plain
    exact backend, and the exact certificate checker verifies it."""

    def test_thresholds_bit_identical_and_certified(self):
        from repro.bench.suite import SUITE, load_pair
        from repro.core.checker import certify_implications_exact
        from repro.core.diffcost import THRESHOLD_SYMBOL, DiffCostAnalyzer
        from repro.poly.template import TemplatePolynomial

        pair = next(p for p in SUITE if p.name == "dis2")
        old, new = load_pair("dis2")
        analyzer = DiffCostAnalyzer(old, new, pair.config("exact"))
        bound = TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL)
        _, _, constraints = analyzer.build_constraints(bound)
        model = analyzer.encode(constraints)
        model.minimize(AffineExpr.variable(THRESHOLD_SYMBOL))

        exact = RevisedSimplexBackend().solve(model)
        warm = WarmStartExactBackend().solve(model)
        dense = DenseSimplexBackend().solve(model)
        assert exact.status is LPStatus.OPTIMAL
        threshold = exact.value(THRESHOLD_SYMBOL)
        assert isinstance(threshold, Fraction)
        assert warm.value(THRESHOLD_SYMBOL) == threshold
        assert dense.value(THRESHOLD_SYMBOL) == threshold

        # The warm backend's full assignment is an exact certificate.
        assignment = {
            name: value for name, value in warm.values.items()
            if isinstance(value, Fraction)
        }
        failures = certify_implications_exact(
            constraints, assignment, pair.max_products
        )
        assert failures == []


class TestSolverRevisionInCacheKey:
    def test_job_key_changes_with_solver_revision(self, monkeypatch):
        from repro.engine import jobs as jobs_module
        from repro.engine.jobs import AnalysisJob

        job = AnalysisJob(kind="single", old_source="x := 1")
        before = job.key
        payload = job.canonical_payload()
        assert payload["lp_solver"]["backend"] == job.config.lp_backend
        monkeypatch.setattr(jobs_module, "LP_SOLVER_REVISION", 9999)
        assert job.key != before

    def test_cache_entry_records_solver(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.jobs import AnalysisJob, JobResult

        job = AnalysisJob(kind="single", old_source="x := 1")
        result = JobResult(job_key=job.key, name="", kind="single",
                           status="ok", outcome="threshold")
        from cache_rows import read_entry

        cache = ResultCache(tmp_path)
        assert cache.put(job, result)
        entry = read_entry(tmp_path, job.key)
        assert "lp_solver" in entry["job"]
        assert entry["job"]["lp_solver"]["backend"] == "scipy"
