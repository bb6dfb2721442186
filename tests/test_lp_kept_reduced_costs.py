"""Kept reduced costs make exactly the pivots full pricing makes.

The revised simplex prices its reduced costs once per phase and then
carries them across pivots with the pivot-row update
``d_j -= (d_q / alpha_q) alpha_j``.  Over ``Fraction`` the carried
vector equals a fresh pricing, so Dantzig's rule, its lowest-index tie
break and the Bland fallback must choose the same column at every pivot
as the per-pivot loop the update replaced.  That loop — ``btran(c_B)``
and a full pricing sweep before every pivot, column-scanning dual ratio
test and artificial drive-out — is kept here as the reference solver,
and every workload below runs under both and must agree pivot for pivot:
the same ``(entering, row, leaving)`` sequence, status, ``Fraction``
optimum and solver counters.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.bench.suite import get_pair, load_pair
from repro.core import DiffCostAnalyzer, refute_threshold
from repro.errors import LPError
from repro.lp import certify, dual, revised
from repro.lp.certify import WarmStartExactBackend
from repro.lp.dual import IncrementalLP
from repro.lp.model import LPModel
from repro.lp.revised import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    RevisedSimplex,
    RevisedSimplexBackend,
)
from repro.lp.solution import LPStatus
from repro.lp.standard import standardize
from repro.poly.linexpr import AffineExpr
from test_lp_agreement import beale_cycling_lp
from test_lp_property import BOTH, SEED, _objective_expr, _rational, \
    build_model, make_spec


# -- the reference: per-pivot pricing ----------------------------------------

class ReferenceSimplex(RevisedSimplex):
    """The revised simplex as it priced before reduced costs were kept:
    a fresh ``y = B^{-T} c_B`` and a full sweep over every nonbasic
    column before each pivot."""

    def _price(self, costs, y, bland):
        best_j, best_reduced = -1, None
        for j in range(self.n):
            if self.in_basis[j]:
                continue
            reduced = costs[j]
            for i, a in self.cols[j].items():
                if y[i]:
                    reduced = reduced - y[i] * a
            if reduced < 0:
                if bland:
                    return j
                if best_reduced is None or reduced < best_reduced:
                    best_j, best_reduced = j, reduced
        return best_j

    def _run_phase(self, costs, phase):
        self.phase = phase
        bland = False
        degenerate_run = 0
        for _ in range(self.max_iterations):
            y = self.fact.btran([costs[b] for b in self.basis])
            entering = self._price(costs, y, bland)
            if entering < 0:
                return OPTIMAL
            w = self._ftran(self.cols[entering])
            leaving = self._ratio_test(w)
            if leaving < 0:
                return UNBOUNDED
            theta = self._pivot(leaving, entering, w)
            self.stats["pivots"] += 1
            self.stats[f"phase{phase}_pivots"] += 1
            if bland:
                self.stats["bland_pivots"] += 1
            if not theta:
                self.stats["degenerate_pivots"] += 1
                degenerate_run += 1
                if degenerate_run >= self.bland_trigger:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        raise LPError("simplex iteration limit exceeded")

    def _drive_out_artificials(self):
        for row in range(self.m):
            if self.basis[row] < self.n:
                continue
            binv_row = self.fact.btran_unit(row)
            replacement = -1
            for j in range(self.n):
                if self.in_basis[j]:
                    continue
                value = Fraction(0)
                for i, a in self.cols[j].items():
                    if binv_row[i]:
                        value = value + binv_row[i] * a
                if value:
                    replacement = j
                    break
            if replacement >= 0:
                self._pivot(row, replacement,
                            self._ftran(self.cols[replacement]))


def reference_dual_feasible(solver, costs):
    y = solver.fact.btran([costs[b] for b in solver.basis])
    for j in range(solver.n):
        if solver.in_basis[j]:
            continue
        reduced = costs[j]
        for i, a in solver.cols[j].items():
            if y[i]:
                reduced = reduced - y[i] * a
        if reduced < 0:
            return False
    return True


def reference_dual_loop(solver, costs):
    """The dual simplex with a full ``btran(c_B)`` and a column scan of
    the pivot row and the reduced costs before every pivot."""
    solver.phase = 2
    bland = False
    degenerate_run = 0
    for _ in range(solver.max_iterations):
        leaving, worst, sign = -1, None, 1
        for i in range(solver.m):
            xi = solver.xb[i]
            if solver.basis[i] >= solver.n:
                if xi > 0:
                    violation, s = xi, -1
                elif xi < 0:
                    violation, s = -xi, 1
                else:
                    continue
            elif xi < 0:
                violation, s = -xi, 1
            else:
                continue
            if bland:
                if leaving < 0 or solver.basis[i] < solver.basis[leaving]:
                    leaving, sign = i, s
            elif worst is None or violation > worst:
                worst, leaving, sign = violation, i, s
        if leaving < 0:
            return OPTIMAL
        rho = solver.fact.btran_unit(leaving)
        if sign < 0:
            rho = [-value for value in rho]
        y = solver.fact.btran([costs[b] for b in solver.basis])
        best_j, best_ratio = -1, None
        for j in range(solver.n):
            if solver.in_basis[j]:
                continue
            alpha = Fraction(0)
            for i, a in solver.cols[j].items():
                if rho[i]:
                    alpha = alpha + rho[i] * a
            if alpha >= 0:
                continue
            reduced = costs[j]
            for i, a in solver.cols[j].items():
                if y[i]:
                    reduced = reduced - y[i] * a
            ratio = reduced / (-alpha)
            if best_ratio is None or ratio < best_ratio:
                best_j, best_ratio = j, ratio
        if best_j < 0:
            return INFEASIBLE
        solver._pivot(leaving, best_j, solver._ftran(solver.cols[best_j]))
        solver.stats["pivots"] += 1
        solver.stats["dual_pivots"] += 1
        if bland:
            solver.stats["bland_pivots"] += 1
        if not best_ratio:
            solver.stats["degenerate_pivots"] += 1
            degenerate_run += 1
            if degenerate_run >= solver.bland_trigger:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    raise LPError("dual simplex iteration limit exceeded")


def install_reference(patch) -> None:
    """Route every solver construction and dual-simplex entry point of
    the LP layer through the reference."""
    for module in (revised, dual, certify):
        patch.setattr(module, "RevisedSimplex", ReferenceSimplex)
    patch.setattr(dual, "_dual_simplex_loop", reference_dual_loop)
    patch.setattr(dual, "exact_dual_feasible", reference_dual_feasible)
    patch.setattr(certify, "exact_dual_feasible", reference_dual_feasible)


def run_both(monkeypatch, workload):
    """``[(output, pivots)]`` of ``workload()`` under the kept reduced
    costs, then under the reference.  ``pivots`` lists every basis
    change as ``(entering, row, leaving)``."""
    runs = []
    for reference in (False, True):
        pivots = []
        original = RevisedSimplex._pivot

        def recording(self, row, entering, w, pivots=pivots,
                      original=original):
            pivots.append((entering, row, self.basis[row]))
            return original(self, row, entering, w)

        with monkeypatch.context() as patch:
            patch.setattr(RevisedSimplex, "_pivot", recording)
            if reference:
                install_reference(patch)
            runs.append((workload(), pivots))
    return runs


def counters(stats: dict) -> dict:
    """Solver stats minus the wall-clock timers."""
    return {key: value for key, value in stats.items()
            if not key.startswith("time_")}


def solution_record(solution) -> tuple:
    return (solution.status, solution.objective_value, solution.values,
            solution.message, counters(solution.stats or {}))


def assert_same_runs(runs) -> list:
    (kept, kept_pivots), (reference, reference_pivots) = runs
    assert kept_pivots == reference_pivots
    assert kept == reference
    return kept_pivots


# -- workloads ---------------------------------------------------------------

def population_workload(seed: int, trials: int):
    """The property suite's random LPs (optimal, infeasible and
    unbounded), through both exact backends and an incremental chain
    of objective swaps and bound tweaks."""
    def workload():
        rng = random.Random(seed)
        records = []
        for _ in range(trials):
            spec = make_spec(rng)
            for backend in (RevisedSimplexBackend(), WarmStartExactBackend()):
                records.append(solution_record(
                    backend.solve(build_model(spec))))
            spec = replace(spec, bounds=tuple(
                (name, BOTH, low, low + abs(high - low) + 2)
                for name, _kind, low, high in spec.bounds
            ))
            incremental = IncrementalLP(build_model(spec))
            records.append(solution_record(
                incremental.solve(_objective_expr(spec.objective))))
            for _ in range(2):
                objective = tuple((name, _rational(rng, 3))
                                  for name, _kind, _low, _high in spec.bounds)
                records.append(solution_record(
                    incremental.solve(_objective_expr(objective))))
                name, _kind, low, _high = rng.choice(spec.bounds)
                records.append(solution_record(incremental.update_upper(
                    name, low + abs(_rational(rng, 5)))))
            records.append(counters(incremental.stats))
        return records
    return workload


class TestRandomPopulation:
    def test_same_pivots_statuses_optima_and_counters(self, monkeypatch):
        runs = run_both(monkeypatch, population_workload(SEED, 80))
        pivots = assert_same_runs(runs)
        records = runs[0][0]
        statuses = {record[0] for record in records
                    if isinstance(record, tuple)}
        assert statuses == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE,
                            LPStatus.UNBOUNDED}
        dual_pivots = sum(record["dual_pivots"] for record in records
                          if isinstance(record, dict))
        assert dual_pivots > 0, "the chains stopped reaching the dual"
        assert len(pivots) > 500

    def test_float_nominated_warm_solves_unchanged(self, monkeypatch):
        # Without a HiGHS nomination every warm solve takes the exact
        # two-phase fallback and every re-solve walks from its anchor.
        monkeypatch.setattr(certify, "scipy_candidate_basis",
                            lambda form, stats: None)
        assert_same_runs(run_both(
            monkeypatch, population_workload(SEED + 5, 30)))


class TestCyclingLP:
    @pytest.mark.parametrize("trigger", [1, 24])
    def test_beale_same_pivots(self, monkeypatch, trigger):
        runs = run_both(monkeypatch, lambda: solution_record(
            RevisedSimplexBackend(bland_trigger=trigger).solve(
                beale_cycling_lp())))
        assert_same_runs(runs)
        status, objective, *_rest, stats = runs[0][0]
        assert status is LPStatus.OPTIMAL
        assert objective == Fraction(-1, 20)
        if trigger == 1:
            assert stats["bland_pivots"] > 0


def _refutation(name: str):
    pair = get_pair(name)
    old, new = load_pair(name)
    result = refute_threshold(old, new, Fraction(pair.tight) - 1,
                              pair.config("exact-warm"))
    return (result.status, result.guaranteed_difference,
            result.witness_input, str(result.anti_potential_new),
            str(result.potential_old), counters(result.lp_stats))


class TestRefutationLoops:
    @pytest.mark.parametrize("name", ["dis2", "simple_single2"])
    def test_incremental_refutation_same_pivots(self, monkeypatch, name):
        runs = run_both(monkeypatch, lambda: _refutation(name))
        assert_same_runs(runs)
        stats = runs[0][0][-1]
        assert stats["cold_solves"] == 1
        assert stats["resolves"] == stats["solves"] - 1 >= 3


class TestDualSimplexPaths:
    def test_threshold_search_same_pivots(self, monkeypatch):
        tight = get_pair("dis2").tight
        old, new = load_pair("dis2")

        def workload():
            search = DiffCostAnalyzer(old, new).threshold_search(
                [tight + 50, tight, tight - 1])
            return (search.threshold, search.feasible,
                    counters(search.lp_stats))

        runs = run_both(monkeypatch, workload)
        assert_same_runs(runs)
        threshold, feasible, stats = runs[0][0]
        assert threshold == tight
        assert feasible[Fraction(tight) - 1] is False
        assert stats["dual_resolves"] >= 1

    def test_certify_dual_path_same_pivots(self, monkeypatch):
        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")

        def model(demand):
            lp = LPModel()
            lp.add_variable("x", 0)
            lp.add_variable("y", 0)
            lp.add_inequality(x + y - demand)      # x + y >= demand
            lp.add_inequality(6 - x)               # x <= 6
            lp.add_inequality(9 - 2 * x - y)       # 2x + y <= 9
            lp.minimize(2 * x + 3 * y)
            return lp

        # The optimal basis for demand 3 stays dual feasible at demand
        # 8 but is primal infeasible there: nominated as the HiGHS
        # candidate, certify must repair it with the dual simplex.
        solver = RevisedSimplex(standardize(model(3)))
        assert solver.solve_two_phase() == OPTIMAL
        candidate = list(solver.basis)
        monkeypatch.setattr(certify, "scipy_candidate_basis",
                            lambda form, stats: candidate)
        runs = run_both(monkeypatch, lambda: solution_record(
            WarmStartExactBackend().solve(model(8))))
        pivots = assert_same_runs(runs)
        status, objective, *_rest, stats = runs[0][0]
        assert stats["path"] == "dual"
        assert stats["dual_pivots"] == len(pivots) > 0
        assert status is LPStatus.OPTIMAL
        assert objective == RevisedSimplexBackend().solve(
            model(8)).objective_value


class TestKeptVectorIsFresh:
    """After every exact pivot, primal or dual, the carried reduced
    costs equal a from-scratch pricing of the new basis."""

    def test_kept_reduced_costs_equal_fresh_pricing(self, monkeypatch):
        fresh_pricing = RevisedSimplex._reduced_costs
        update = RevisedSimplex._update_reduced_costs
        priced: dict[int, list] = {}
        checked = []

        def recording(self, costs, *args, **kwargs):
            # The latest from-scratch pricing names the running loop's
            # costs (each phase and each dual run starts with one).
            priced[id(self)] = costs
            return fresh_pricing(self, costs, *args, **kwargs)

        def checking(self, d, alpha, entering):
            update(self, d, alpha, entering)
            assert d == fresh_pricing(self, priced[id(self)])
            checked.append(entering)

        monkeypatch.setattr(RevisedSimplex, "_reduced_costs", recording)
        monkeypatch.setattr(RevisedSimplex, "_update_reduced_costs",
                            checking)
        population_workload(SEED, 40)()
        _refutation("dis2")
        RevisedSimplexBackend(bland_trigger=1).solve(beale_cycling_lp())
        assert len(checked) > 300
