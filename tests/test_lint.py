"""Tests of the static analyzer (``repro.lint``) and runtime sanitizer.

Three layers:

- checker semantics over the fixture modules in
  ``repro/lint/fixtures/`` (every rule: at least one true positive and
  one pragma-suppressed case);
- the driver (pragma spans, baseline ratchet, CLI exit codes) plus the
  acceptance property that a ``float(...)`` cast seeded into
  ``lp/basis.py`` is caught;
- the runtime sanitizer: trap semantics, float-stage re-entry, and the
  end-to-end guarantee that a float construction smuggled into an
  exact solve raises under ``REPRO_SANITIZE=1``.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro
import repro.lp.basis as basis_mod
from repro.cli import main as cli_main
from repro.lint import sanitizer
from repro.lint.contracts import Contracts
from repro.lint.engine import (
    fingerprint,
    lint_file,
    lint_paths,
    load_baseline,
    module_key,
    render_json,
    render_text,
    unsuppressed,
    write_baseline,
)
from repro.lint.sanitizer import ExactnessViolation, exact_region, float_stage
from repro.lp.backend import get_backend
from repro.lp.model import LPModel
from repro.poly.linexpr import AffineExpr

FIXTURES = Path(repro.__file__).parent / "lint" / "fixtures"
SRC_ROOT = Path(repro.__file__).parent
TESTS_ROOT = Path(__file__).parent

FIXTURE_CONTRACTS = Contracts(
    exact_modules=("repro/lint/fixtures/float_cases.py",),
    determinism=(("repro/lint/fixtures/determinism_cases.py", ("*",)),),
    worker_modules=("repro/lint/fixtures/forksafety_cases.py",),
    approved_signal_sites=(
        ("repro/lint/fixtures/forksafety_cases.py", "approved_handler"),
    ),
)


def findings_for(name: str):
    return lint_file(FIXTURES / name, FIXTURE_CONTRACTS)


def by_rule(findings, rule):
    active = [f for f in findings if f.rule == rule and not f.suppressed]
    suppressed = [f for f in findings if f.rule == rule and f.suppressed]
    return active, suppressed


class TestFloatChecker:
    """Family 1: float taint in declared-exact modules."""

    @pytest.fixture(scope="class")
    def findings(self):
        return findings_for("float_cases.py")

    @pytest.mark.parametrize("rule", [
        "float-cast", "math-call", "float-literal", "int-division",
    ])
    def test_each_rule_has_positive_and_suppressed(self, findings, rule):
        active, suppressed = by_rule(findings, rule)
        assert active, f"no true positive for {rule}"
        assert suppressed, f"no pragma-suppressed case for {rule}"

    def test_indirect_float_ctor_is_caught(self, findings):
        active, _ = by_rule(findings, "float-cast")
        assert any("convert" in f.message for f in active)

    def test_literal_without_sink_is_quiet(self, findings):
        # literal_not_a_sink parks a float in a print(); no finding.
        quiet_lines = self._function_lines("literal_not_a_sink")
        assert not [f for f in findings if f.line in quiet_lines]

    def test_laundering_and_exact_division_are_quiet(self, findings):
        for name in ("laundered", "division_exact",
                     "division_unknown_operands"):
            lines = self._function_lines(name)
            assert not [f for f in findings if f.line in lines], name

    def test_function_level_pragma_covers_whole_body(self, findings):
        lines = self._function_lines("whole_function_allowed")
        covered = [f for f in findings if f.line in lines]
        assert covered and all(f.suppressed for f in covered)

    def test_outside_exact_modules_nothing_fires(self):
        source = "def f(x):\n    return float(x)\n"
        assert lint_file(FIXTURES / "float_cases.py", FIXTURE_CONTRACTS,
                         source=source, module="repro/other.py") == []

    @staticmethod
    def _function_lines(name: str) -> range:
        import ast

        tree = ast.parse((FIXTURES / "float_cases.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return range(node.lineno, node.end_lineno + 1)
        raise AssertionError(f"fixture function {name} not found")


class TestDeterminismChecker:
    """Family 2: canonical-output determinism."""

    @pytest.fixture(scope="class")
    def findings(self):
        return findings_for("determinism_cases.py")

    @pytest.mark.parametrize("rule", [
        "unsorted-set-iter", "unsorted-dict-iter", "unsorted-glob",
        "time-call", "random-call", "id-call", "urandom-call",
    ])
    def test_each_rule_has_positive_and_suppressed(self, findings, rule):
        active, suppressed = by_rule(findings, rule)
        assert active, f"no true positive for {rule}"
        assert suppressed, f"no pragma-suppressed case for {rule}"

    def test_sorted_wrappers_and_seeded_random_are_quiet(self, findings):
        lines = {f.line for f in findings}
        import ast

        tree = ast.parse((FIXTURES / "determinism_cases.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "set_iter_sorted", "dict_iter_sorted",
                    "random_seeded_ok"):
                span = range(node.lineno, node.end_lineno + 1)
                assert not lines & set(span), node.name

    def test_bare_time_import_is_caught(self, findings):
        active, _ = by_rule(findings, "time-call")
        assert any("imported from time" in f.message for f in active)

    def test_family_pragma_suppresses(self, findings):
        # urandom_suppressed uses the family token `determinism`.
        _, suppressed = by_rule(findings, "urandom-call")
        assert suppressed

    def test_no_contract_means_no_findings(self):
        source = "import time\ndef f():\n    return time.time()\n"
        assert lint_file(FIXTURES / "determinism_cases.py",
                         FIXTURE_CONTRACTS, source=source,
                         module="repro/uncontracted.py") == []


class TestForkSafetyChecker:
    """Family 3: worker/fork safety."""

    @pytest.fixture(scope="class")
    def findings(self):
        return findings_for("forksafety_cases.py")

    @pytest.mark.parametrize("rule", [
        "mutable-global-write", "signal-registration",
    ])
    def test_each_rule_has_positive_and_suppressed(self, findings, rule):
        active, suppressed = by_rule(findings, rule)
        assert active, f"no true positive for {rule}"
        assert suppressed, f"no pragma-suppressed case for {rule}"

    def test_write_shapes_are_distinguished(self, findings):
        active, _ = by_rule(findings, "mutable-global-write")
        hows = {f.message.split(" module-level")[0] for f in active}
        assert {"writes an item of", "calls .add() on", "rebinds",
                "deletes an item of"} <= hows

    def test_qualified_constructor_globals_are_tracked(self, findings):
        active, _ = by_rule(findings, "mutable-global-write")
        assert any("_HANDLES" in f.message and "register" in f.message
                   for f in active)

    def test_local_shadow_and_reads_are_quiet(self, findings):
        assert not [f for f in findings
                    if "local_shadow" in f.message
                    or "read_only" in f.message]

    def test_contract_approved_signal_site_is_quiet(self, findings):
        assert not [f for f in findings
                    if "approved_handler" in f.message]

    def test_module_level_signal_registration_flagged(self):
        source = "import signal\nsignal.signal(2, None)\n"
        found = lint_file(FIXTURES / "forksafety_cases.py",
                          FIXTURE_CONTRACTS, source=source,
                          module="repro/anything.py")
        assert [f.rule for f in found] == ["signal-registration"]


class TestDriver:
    def test_module_key(self):
        assert module_key(Path("src/repro/lp/basis.py")) == \
            "repro/lp/basis.py"
        assert module_key(Path("/x/y/tests/test_lint.py")) == \
            "tests/test_lint.py"
        assert module_key(Path("setup.py")) == "setup.py"

    def test_syntax_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def f(:\n")
        (finding,) = lint_file(bad, FIXTURE_CONTRACTS)
        assert finding.rule == "syntax-error" and not finding.suppressed

    def test_dogfood_tree_is_clean(self):
        findings = lint_paths([SRC_ROOT, TESTS_ROOT])
        assert unsuppressed(findings) == [], render_text(findings)
        # The pragma-documented false positives exist and are counted.
        assert any(f.suppressed for f in findings)

    def test_seeded_float_cast_in_basis_fails_lint(self):
        # Acceptance check: any float(...) cast seeded into lp/basis.py
        # must produce an active finding.
        path = SRC_ROOT / "lp" / "basis.py"
        seeded = path.read_text() + (
            "\n\ndef _seeded(values):\n"
            "    return [float(v) for v in values]\n"
        )
        findings = lint_file(path, source=seeded)
        active = [f for f in unsuppressed(findings)
                  if f.rule == "float-cast"]
        assert active, "seeded float cast not caught"

    def test_baseline_ratchet(self, tmp_path):
        findings = findings_for("float_cases.py")
        assert unsuppressed(findings)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(findings, baseline_file)
        baseline = load_baseline(baseline_file)
        assert unsuppressed(findings, baseline) == []
        # a new finding (different line) is not tolerated
        moved = findings[0].__class__(**{
            **findings[0].to_dict(), "line": findings[0].line + 1000,
            "suppressed": False,
        })
        assert unsuppressed([moved], baseline) == [moved]

    def test_render_formats(self):
        findings = findings_for("float_cases.py")
        text = render_text(findings, show_suppressed=True)
        assert "float-cast" in text and "[suppressed]" in text
        data = json.loads(render_json(findings))
        assert data["summary"]["active"] == len(unsuppressed(findings))
        assert {f["rule"] for f in data["findings"]} >= {
            "float-cast", "math-call"}

    def test_fingerprint_uses_module_not_path(self):
        finding = findings_for("float_cases.py")[0]
        assert fingerprint(finding).startswith(
            "repro/lint/fixtures/float_cases.py:")

    def test_cli_clean_tree_exits_zero(self, capsys):
        assert cli_main(["lint", str(SRC_ROOT), str(TESTS_ROOT)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_findings_exit_one_and_json(self, tmp_path, capsys):
        dirty = tmp_path / "repro" / "lp" / "basis.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("def f(x):\n    return float(x)\n")
        assert cli_main(["lint", str(dirty), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["active"] == 1

    def test_cli_baseline_roundtrip(self, tmp_path, capsys):
        dirty = tmp_path / "repro" / "lp" / "basis.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("def f(x):\n    return float(x)\n")
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", str(dirty),
                         "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert cli_main(["lint", str(dirty),
                         "--baseline", str(baseline)]) == 0

    def test_lint_config_validates_format(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["lint", "--format", "yaml"])
        assert exit_info.value.code == 2
        assert "yaml" in capsys.readouterr().err


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(sanitizer.SANITIZE_ENV, "1")
    yield
    sanitizer._reset()


class TestSanitizer:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(sanitizer.SANITIZE_ENV, raising=False)
        with exact_region("off"):
            assert float("1.5") == 1.5

    def test_trap_fires_inside_region(self, sanitized):
        with exact_region("demo"):
            with pytest.raises(ExactnessViolation, match="demo"):
                float("3.5")
        assert float("3.5") == 3.5  # disarmed on exit

    def test_isinstance_keeps_working_while_armed(self, sanitized):
        with exact_region("demo"):
            assert isinstance(1.5, float)
            assert not isinstance(Fraction(1, 2), float)
            assert issubclass(bool, int)  # unrelated checks unharmed

    def test_float_stage_reopens_the_boundary(self, sanitized):
        with exact_region("demo"):
            with float_stage("warm-start"):
                assert float("2.5") == 2.5
            with pytest.raises(ExactnessViolation):
                float("2.5")

    def test_nested_regions_and_stages(self, sanitized):
        with exact_region("outer"), exact_region("inner"):
            with float_stage("a"), float_stage("b"):
                assert float("1.0") == 1.0
            with pytest.raises(ExactnessViolation):
                float("1.0")
        assert float("1.0") == 1.0

    def test_violation_names_call_site(self, sanitized):
        with exact_region("demo"):
            with pytest.raises(ExactnessViolation,
                               match="test_lint") as info:
                float(1)
        assert "exact region 'demo'" in str(info.value)


def _small_lp() -> LPModel:
    x, y = AffineExpr.variable("x"), AffineExpr.variable("y")
    model = LPModel()
    model.add_variable("x", 0)
    model.add_variable("y", 0)
    model.add_inequality(4 - x - y)
    model.minimize(x + 2 * y)
    return model


class TestSanitizedSolves:
    """End-to-end: the LP layer under ``REPRO_SANITIZE=1``."""

    @pytest.mark.parametrize("backend", ["exact", "exact-warm"])
    def test_exact_backends_solve_clean(self, sanitized, backend):
        solution = get_backend(backend).solve(_small_lp())
        assert solution.value("x") == Fraction(0)

    def test_seeded_float_in_factorization_is_trapped(self, sanitized,
                                                      monkeypatch):
        # Acceptance check: a float(...) smuggled into the exact basis
        # factorization raises mid-solve.
        orig = basis_mod.BasisFactorization.ftran

        def tainted(self, col):
            return [float(v) for v in orig(self, col)]

        monkeypatch.setattr(basis_mod.BasisFactorization, "ftran",
                            tainted)
        with pytest.raises(ExactnessViolation, match="lp-"):
            get_backend("exact").solve(_small_lp())

    def test_incremental_lp_covered(self, sanitized, monkeypatch):
        from repro.lp.dual import IncrementalLP

        x, y = AffineExpr.variable("x"), AffineExpr.variable("y")
        model = LPModel()
        model.add_variable("x", 0, 10)
        model.add_variable("y", 0, 10)
        model.add_inequality(8 - x - y)
        model.minimize(-x - y)
        lp = IncrementalLP(model)
        assert lp.solve().objective_value == Fraction(-8)

        orig = basis_mod.BasisFactorization.ftran_dense

        def tainted(self, vec):
            return [float(v) for v in orig(self, vec)]

        monkeypatch.setattr(basis_mod.BasisFactorization, "ftran_dense",
                            tainted)
        with pytest.raises(ExactnessViolation):
            lp.update_upper("x", 3)

    def test_reports_identical_with_and_without_sanitizer(self, tmp_path):
        # Canonical report bytes must not depend on the sanitizer.
        script = (
            "from repro.lp.backend import get_backend\n"
            "from repro.lp.model import LPModel\n"
            "from repro.poly.linexpr import AffineExpr\n"
            "x, y = AffineExpr.variable('x'), AffineExpr.variable('y')\n"
            "model = LPModel()\n"
            "model.add_variable('x', 0)\n"
            "model.add_variable('y', 0)\n"
            "model.add_inequality(4 - x - y)\n"
            "model.minimize(x + 2 * y)\n"
            "s = get_backend('exact').solve(model)\n"
            "print(s.status, s.objective_value,"
            " s.value('x'), s.value('y'))\n"
        )
        import os

        outputs = {}
        for flag in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={**os.environ, "REPRO_SANITIZE": flag,
                     "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
            outputs[flag] = result.stdout
        assert outputs["0"] == outputs["1"]
