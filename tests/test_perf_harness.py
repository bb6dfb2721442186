"""Tests for the LP perf harness and the ``perf`` CLI subcommand."""

import json

import pytest

from repro.bench.perf import (
    DEFAULT_PERF_BACKENDS,
    DEFAULT_PERF_PAIRS,
    build_lp_model,
    compare_reports,
    format_perf_table,
    run_lp_perf,
    run_refutation_batch,
    write_bench_json,
)
from repro.cli import main
from repro.errors import AnalysisError

BACKENDS = ("exact", "exact-warm", "scipy")


class TestRunLpPerf:
    def test_report_shape_and_agreement(self, tmp_path):
        report = run_lp_perf(names=["simple_single"], backends=BACKENDS)
        assert report["schema"] == 3
        assert report["backends"] == list(BACKENDS)
        assert report["lp_solver_revision"] >= 2
        (row,) = report["rows"]
        assert row["pair"] == "simple_single"
        assert row["agree"] is True
        assert row["lp_variables"] > 0 and row["lp_constraints"] > 0
        for name in BACKENDS:
            entry = row["backends"][name]
            assert entry["seconds"] >= 0
            assert entry["status"] == "optimal"
            assert "_solution" not in entry
        # Exact backends serialize Fractions as strings; identical here.
        assert (row["backends"]["exact"]["objective"]
                == row["backends"]["exact-warm"]["objective"])
        # The warm backend must report which path it took.
        assert (row["backends"]["exact-warm"]["stats"]["path"]
                in ("certified", "resumed", "fallback"))
        summary = report["summary"]
        assert summary["disagreements"] == 0
        assert set(summary["seconds_total"]) == set(BACKENDS)

        # Phase profile: exact solvers attribute wall time to named
        # phases; scipy has no phase timers and must not appear.
        profile = report["profile"]
        assert "exact" in profile["phases"]
        assert "exact-warm" in profile["phases"]
        assert "scipy" not in profile["phases"]
        assert "pricing" in profile["phases"]["exact"]
        assert "refactor" in profile["phases"]["exact"]
        for unit in profile["phases"]:
            assert profile["tracked_seconds"][unit] >= 0
            assert profile["accounted_fraction"][unit] > 0

        path = tmp_path / "BENCH_lp.json"
        write_bench_json(report, str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk["summary"]["disagreements"] == 0

        table = format_perf_table(report)
        assert "simple_single" in table and "yes" in table

    def test_unknown_pair_rejected(self):
        with pytest.raises(AnalysisError):
            run_lp_perf(names=["no_such_pair"], backends=("exact",))

    def test_defaults_are_valid(self):
        from repro.bench.suite import SUITE
        from repro.lp.backend import available_backends

        suite_names = {pair.name for pair in SUITE}
        assert set(DEFAULT_PERF_PAIRS) <= suite_names
        assert set(DEFAULT_PERF_BACKENDS) <= set(available_backends())

    def test_build_lp_model_minimizes_threshold(self):
        model = build_lp_model("simple_single")
        assert model.objective is not None
        assert "t" in model.variable_names


class TestRefutationBatch:
    def test_incremental_vs_cold_section(self):
        section = run_refutation_batch(names=["dis2"])
        (row,) = section["rows"]
        assert row["pair"] == "dis2"
        assert row["agree"] is True
        assert row["witnesses"] >= 3
        assert row["gap"] is not None
        for variant in ("incremental", "cold"):
            assert row[variant]["seconds"] >= 0
            assert "_result" not in row[variant]
        # The headline counters the acceptance gate reads.
        assert (row["cold"]["factorizations"]
                >= 3 * row["incremental"]["factorizations"])
        summary = section["summary"]
        assert summary["disagreements"] == 0
        assert summary["factorization_ratio"] >= 3
        assert set(summary["factorizations_total"]) == {
            "incremental", "cold"
        }

    def test_unknown_pair_rejected(self):
        with pytest.raises(AnalysisError):
            run_refutation_batch(names=["no_such_pair"])


class TestCompareReports:
    @staticmethod
    def _report(backend_seconds, refute_inc=0.5, refute_cold=1.0,
                disagreements=0):
        return {
            "summary": {
                "seconds_total": dict(backend_seconds),
                "disagreements": disagreements,
            },
            "refutation": {
                "rows": [
                    {
                        "pair": "dis2",
                        "incremental": {"seconds": refute_inc},
                        "cold": {"seconds": refute_cold},
                    }
                ],
                "summary": {
                    "seconds_total": {
                        "incremental": refute_inc, "cold": refute_cold,
                    },
                    "disagreements": 0,
                },
            },
        }

    def test_clean_pass(self):
        baseline = self._report({"exact": 1.0})
        current = self._report({"exact": 1.4})
        assert compare_reports(baseline, current) == []

    def test_timing_regression_detected(self):
        baseline = self._report({"exact": 1.0})
        current = self._report({"exact": 2.5})
        failures = compare_reports(baseline, current)
        assert len(failures) == 1
        assert "backend:exact" in failures[0]

    def test_refutation_regression_detected(self):
        baseline = self._report({"exact": 1.0}, refute_inc=0.2)
        current = self._report({"exact": 1.0}, refute_inc=0.9)
        failures = compare_reports(baseline, current)
        assert any("refutation:dis2:incremental" in f for f in failures)

    def test_noise_floor_and_new_entries_skipped(self):
        baseline = self._report({"exact": 0.001})
        current = self._report({"exact": 0.004, "exact-warm": 9.0})
        # 4x on a sub-noise timing and a backend absent from the
        # baseline must both pass.
        assert compare_reports(baseline, current) == []

    def test_disagreements_always_fail(self):
        baseline = self._report({"exact": 1.0})
        current = self._report({"exact": 1.0}, disagreements=1)
        failures = compare_reports(baseline, current)
        assert failures and "disagreement" in failures[0]


class TestPerfCli:
    def test_perf_subcommand_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_lp.json"
        code = main([
            "perf", "--names", "simple_single",
            "--backends", "exact,exact-warm", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["disagreements"] == 0
        assert {r["pair"] for r in report["rows"]} == {"simple_single"}
        assert report["refutation"]["rows"][0]["agree"] is True
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert "refutation batch" in captured

    def test_perf_baseline_gate(self, tmp_path, capsys):
        out = tmp_path / "BENCH_lp.json"
        code = main([
            "perf", "--names", "simple_single",
            "--backends", "exact,exact-warm", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        # A report is a passing baseline for itself.
        assert compare_reports(report, report) == []
        # The CLI passes the gate against that report once its tracked
        # timings sit above anything a rerun reaches.  (A rerun raced
        # against the first run's timings near the 50 ms noise floor
        # fails on one scheduler burst; regressions are caught by
        # test_perf_baseline_gate_fails_on_regression.)
        summary = report["summary"]
        summary["seconds_total"] = dict.fromkeys(summary["seconds_total"],
                                                 3600.0)
        refutation = report["refutation"]
        refutation["summary"]["seconds_total"] = dict.fromkeys(
            refutation["summary"]["seconds_total"], 3600.0)
        for row in refutation["rows"]:
            row["incremental"]["seconds"] = 3600.0
        generous = tmp_path / "generous.json"
        generous.write_text(json.dumps(report))
        rerun = tmp_path / "BENCH_lp2.json"
        code = main([
            "perf", "--names", "simple_single",
            "--backends", "exact,exact-warm", "--output", str(rerun),
            "--baseline", str(generous),
        ])
        assert code == 0
        assert "baseline ok" in capsys.readouterr().out

    def test_perf_baseline_gate_fails_on_regression(self, tmp_path,
                                                    capsys):
        out = tmp_path / "BENCH_lp.json"
        assert main([
            "perf", "--names", "sum",
            "--backends", "exact", "--no-refutation",
            "--output", str(out),
        ]) == 0
        baseline = json.loads(out.read_text())
        assert "refutation" not in baseline
        # Shrink the baseline timing to (sub-floor) nothing, so the
        # rerun regresses iff its own timing clears the noise floor —
        # which sum's cold exact solve (0.2-0.3s) reliably does.
        baseline["summary"]["seconds_total"] = {
            name: 0.001
            for name in baseline["summary"]["seconds_total"]
        }
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        rerun = tmp_path / "BENCH_lp2.json"
        code = main([
            "perf", "--names", "sum",
            "--backends", "exact", "--no-refutation",
            "--output", str(rerun), "--baseline", str(doctored),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "timing regression" in captured.err
