"""Tests for utilities, configuration and benchmark reporting."""

from fractions import Fraction

import pytest

from repro.config import AnalysisConfig
from repro.errors import AnalysisError
from repro.utils import FreshNameGenerator, Stopwatch
from repro.utils.rationals import (
    as_fraction,
    fraction_to_str,
    rationalize,
    snap_to_int,
)


class TestRationals:
    def test_as_fraction_exact_types(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)

    def test_as_fraction_float(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_as_fraction_rejects_strings(self):
        with pytest.raises(TypeError):
            as_fraction("1/2")

    def test_rationalize_limits_denominator(self):
        value = rationalize(1 / 3, max_denominator=100)
        assert value == Fraction(1, 3)

    def test_rationalize_rejects_nan(self):
        with pytest.raises(ValueError):
            rationalize(float("nan"))

    def test_snap_to_int(self):
        assert snap_to_int(99.9999999) == 100
        assert snap_to_int(99.5) == 99.5
        assert snap_to_int(-0.0000001) == 0

    def test_fraction_to_str(self):
        assert fraction_to_str(Fraction(4, 2)) == "2"
        assert fraction_to_str(Fraction(1, 3)) == "1/3"


class TestNaming:
    def test_fresh_names_unique(self):
        generator = FreshNameGenerator()
        names = {generator.fresh("x") for _ in range(10)}
        assert len(names) == 10

    def test_prefixes_independent(self):
        generator = FreshNameGenerator()
        assert generator.fresh("a") == "a!0"
        assert generator.fresh("b") == "b!0"
        assert generator.fresh("a") == "a!1"

    def test_reset(self):
        generator = FreshNameGenerator()
        generator.fresh("a")
        generator.reset()
        assert generator.fresh("a") == "a!0"


class TestStopwatch:
    def test_phases_accumulate(self):
        watch = Stopwatch()
        with watch.phase("a"):
            pass
        with watch.phase("a"):
            pass
        with watch.phase("b"):
            pass
        assert watch.elapsed("a") >= 0
        assert set(watch.as_dict()) == {"a", "b"}
        assert watch.total() == pytest.approx(
            watch.elapsed("a") + watch.elapsed("b")
        )

    def test_exception_still_recorded(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch.phase("x"):
                raise RuntimeError("boom")
        assert watch.elapsed("x") >= 0


class TestAnalysisConfig:
    def test_defaults_match_paper(self):
        config = AnalysisConfig()
        assert config.degree == 2
        assert config.max_products == 2

    def test_validation(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(degree=-1)
        with pytest.raises(AnalysisError):
            AnalysisConfig(max_products=0)
        with pytest.raises(AnalysisError):
            AnalysisConfig(lp_backend="gurobi")
        # Mistyped values (as JSON overrides deliver them) are rejected
        # up front, naming the field — bools too, though bool is an int.
        for field, value in (("degree", "3"), ("degree", 2.5),
                             ("degree", True), ("max_products", 1.5),
                             ("max_products", None),
                             ("max_products", False)):
            with pytest.raises(AnalysisError, match=field):
                AnalysisConfig(**{field: value})
        # Zero stays a valid degree: constant templates.
        AnalysisConfig(degree=0)
        # The widening knobs are engine constants, not fields.
        for retired in ("widening_delay", "narrowing_passes"):
            with pytest.raises(TypeError, match=retired):
                AnalysisConfig(**{retired: 3})


class TestReporting:
    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.bench import get_pair, run_pair

        return run_pair(get_pair("ex4"))

    def test_text_table(self, outcome):
        from repro.bench import format_table

        table = format_table([outcome])
        assert "ex4" in table and "201" in table and "ok" in table

    def test_markdown(self, outcome):
        from repro.bench import format_markdown

        markdown = format_markdown([outcome])
        assert markdown.startswith("| Benchmark")
        assert "| ex4 |" in markdown

    def test_csv(self, outcome):
        import csv
        import io

        from repro.bench import format_csv

        rows = list(csv.DictReader(io.StringIO(format_csv([outcome]))))
        assert rows[0]["benchmark"] == "ex4"
        assert rows[0]["matches_paper"] == "True"

    def test_row_dict(self, outcome):
        row = outcome.row()
        assert row["tight"] == 201
        assert row["is_tight"] is True
