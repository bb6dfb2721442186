"""Unit, integration and property tests for the LP layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_simplex import DenseSimplexBackend, dense_rows
from repro.config import AnalysisConfig
from repro.errors import AnalysisError, LPError
from repro.lp.backend import available_backends, backend_is_exact, get_backend
from repro.lp.certify import WarmStartExactBackend
from repro.lp.model import LPModel
from repro.lp.revised import RevisedSimplexBackend
from repro.lp.scipy_backend import ScipyBackend
from repro.lp.solution import LPStatus
from repro.lp.standard import standardize
from repro.poly.linexpr import AffineExpr

X = AffineExpr.variable("x")
Y = AffineExpr.variable("y")


def all_backends():
    return [
        ScipyBackend(),
        RevisedSimplexBackend(),
        WarmStartExactBackend(),
        DenseSimplexBackend(),
    ]


def exact_backends():
    return [
        RevisedSimplexBackend(),
        WarmStartExactBackend(),
        DenseSimplexBackend(),
    ]


class TestLPModel:
    def test_variables_registered_implicitly(self):
        model = LPModel()
        model.add_inequality(X + Y)
        assert set(model.variable_names) == {"x", "y"}

    def test_bounds_tighten_on_redeclare(self):
        model = LPModel()
        model.add_variable("x", 0, 10)
        model.add_variable("x", 2, None)
        assert model.bounds("x") == (2, 10)

    def test_unknown_sense_rejected(self):
        from repro.lp.model import Constraint

        with pytest.raises(LPError):
            Constraint(X, "<=")

    def test_check_assignment_reports_violations(self):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_equality(X - 1)
        assert model.check_assignment({"x": 1}) == []
        assert len(model.check_assignment({"x": -2})) == 2

    def test_maximize_negates(self):
        model = LPModel()
        model.maximize(X)
        assert model.objective.expr == -X


class TestStandardForm:
    def test_columns_stay_sparse(self):
        model = LPModel()
        for i in range(20):
            model.add_variable(f"v{i}", 0)
        model.add_inequality(
            AffineExpr.variable("v0") + AffineExpr.variable("v19") - 1
        )
        form = standardize(model)
        # One constraint row; only three columns touch it (v0, v19 and
        # the slack) — the other 18 columns hold no data at all.
        assert form.num_rows == 1
        assert form.num_nonzeros == 3

    def test_rhs_sign_normalized(self):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_equality(X - 5)  # x = 5, encoded as columns.x = 5
        model.add_equality(-X + 3)  # -x = -3, must flip to x = 3
        form = standardize(model)
        assert all(rhs >= 0 for rhs in form.rhs)

    def test_dense_rows_match_sparse_columns(self):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_variable("y", 0)
        model.add_inequality(4 - X - Y)
        model.add_equality(X - Y)
        form = standardize(model)
        rows = dense_rows(form)
        for j, col in enumerate(form.cols):
            for i, coeff in col.items():
                assert rows[i][j] == coeff
        assert sum(1 for row in rows for v in row if v != 0) == form.num_nonzeros


class TestBackendsAgree:
    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: b.name)
    def test_simple_optimum(self, backend):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_variable("y", 0)
        model.add_inequality(4 - X - Y)       # x + y <= 4
        model.add_inequality(2 - X + Y)       # x - y <= 2
        model.minimize(-(X + 2 * Y))          # max x + 2y -> 8
        solution = backend.solve(model)
        assert solution.status is LPStatus.OPTIMAL
        assert float(solution.objective_value) == pytest.approx(-8)

    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: b.name)
    def test_infeasible(self, backend):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_equality(X + 1)
        assert backend.solve(model).status is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: b.name)
    def test_unbounded(self, backend):
        model = LPModel()
        model.add_inequality(X)
        model.minimize(-X)
        assert backend.solve(model).status is LPStatus.UNBOUNDED

    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: b.name)
    def test_free_variables_in_equalities(self, backend):
        model = LPModel()
        model.add_equality(X + Y - 3)
        model.add_inequality(X - 1)
        model.minimize(X - Y)
        solution = backend.solve(model)
        assert solution.status is LPStatus.OPTIMAL
        assert float(solution.objective_value) == pytest.approx(-1)

    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: b.name)
    def test_upper_bounded_only_variable(self, backend):
        model = LPModel()
        model.add_variable("x", None, 5)
        model.minimize(-X)
        solution = backend.solve(model)
        assert solution.status is LPStatus.OPTIMAL
        assert float(solution.value("x")) == pytest.approx(5)

    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: b.name)
    def test_two_sided_bounds(self, backend):
        model = LPModel()
        model.add_variable("x", -3, 7)
        model.minimize(X)
        solution = backend.solve(model)
        assert float(solution.value("x")) == pytest.approx(-3)

    @pytest.mark.parametrize("backend", exact_backends(),
                             ids=lambda b: b.name)
    def test_exact_backends_return_fractions(self, backend):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_equality(X.scale(3) - 1)
        solution = backend.solve(model)
        assert solution.values["x"] == Fraction(1, 3)
        assert isinstance(solution.values["x"], Fraction)

    def test_feasibility_problem_without_objective(self):
        model = LPModel()
        model.add_variable("x", 0)
        model.add_inequality(X - 2)
        for backend in all_backends():
            solution = backend.solve(model)
            assert solution.status is LPStatus.OPTIMAL
            assert solution.objective_value is None


class TestEmptyBounds:
    """The seed only rejected ``upper < lower`` in the lower-bounded
    standardization branch and without naming the variable everywhere;
    validation now runs up front for every variable."""

    @pytest.mark.parametrize("backend", exact_backends(),
                             ids=lambda b: b.name)
    def test_lower_then_upper(self, backend):
        model = LPModel()
        model.add_variable("x", 5, 2)
        with pytest.raises(LPError, match="'x'"):
            backend.solve(model)

    @pytest.mark.parametrize("backend", exact_backends(),
                             ids=lambda b: b.name)
    def test_upper_then_lower_tightening(self, backend):
        # Declared upper-bound-only first; a later tightening adds a
        # lower bound above it.  The seed's branch-local check saw this
        # case only by accident of branch order.
        model = LPModel()
        model.add_variable("y", None, 2)
        model.add_variable("y", 5, None)
        with pytest.raises(LPError, match="'y'"):
            backend.solve(model)

    def test_message_reports_bounds(self):
        model = LPModel()
        model.add_variable("gap", 7, 3)
        with pytest.raises(LPError, match=r"lower 7 > upper 3"):
            standardize(model)


class TestRegistry:
    def test_builtin_backends_registered(self):
        # The product's backend table is fixed: the dense tableau
        # simplex lives on only as the tests' oracle.
        assert available_backends() == ("scipy", "exact", "exact-warm")
        with pytest.raises(AnalysisError, match="exact-dense"):
            AnalysisConfig(lp_backend="exact-dense")

    def test_get_backend_names_match(self):
        for name in available_backends():
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(LPError):
            get_backend("gurobi")

    def test_exactness_classification(self):
        assert backend_is_exact("exact")
        assert backend_is_exact("exact-warm")
        assert not backend_is_exact("exact-dense")
        assert not backend_is_exact("scipy")
        assert not backend_is_exact("never-registered")


@st.composite
def random_lp(draw):
    """Small random LPs with mixed bounds and constraint senses."""
    rng_vars = ["v0", "v1", "v2", "v3"]
    model = LPModel()
    for name in rng_vars:
        if draw(st.booleans()):
            model.add_variable(name, 0)
        if draw(st.integers(0, 3)) == 0:
            model.add_variable(name, None, draw(st.integers(1, 10)))
    num_constraints = draw(st.integers(1, 5))
    for _ in range(num_constraints):
        expr = AffineExpr.constant(draw(st.integers(-5, 5)))
        for name in rng_vars:
            expr = expr + draw(st.integers(-3, 3)) * AffineExpr.variable(name)
        if draw(st.booleans()):
            model.add_equality(expr)
        else:
            model.add_inequality(expr)
    objective = AffineExpr.zero()
    for name in rng_vars:
        objective = objective + draw(st.integers(-2, 2)) * AffineExpr.variable(name)
    model.minimize(objective)
    return model


@settings(max_examples=40, deadline=None)
@given(random_lp())
def test_backends_agree_on_random_instances(model):
    scipy_solution = ScipyBackend().solve(model)
    exact_solution = RevisedSimplexBackend().solve(model)
    assert scipy_solution.status == exact_solution.status
    if scipy_solution.status is LPStatus.OPTIMAL:
        assert float(scipy_solution.objective_value) == pytest.approx(
            float(exact_solution.objective_value), abs=1e-6
        )
        # The exact optimum must satisfy the model exactly.
        assert model.check_assignment(exact_solution.values) == []
