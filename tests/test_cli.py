"""Tests for the command-line interface."""

import pytest

from repro.bench.suite import pair_sources
from repro.cli import build_parser, main

OLD = """
proc count(n) {
  assume(1 <= n && n <= 10);
  var i = 0;
  while (i < n) { tick(1); i = i + 1; }
}
"""

NEW = OLD.replace("tick(1)", "tick(2)")


@pytest.fixture
def program_files(tmp_path):
    old_path = tmp_path / "old.imp"
    new_path = tmp_path / "new.imp"
    old_path.write_text(OLD)
    new_path.write_text(NEW)
    return str(old_path), str(new_path)


class TestDiff:
    def test_threshold_printed(self, program_files, capsys):
        old, new = program_files
        assert main(["diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out
        assert "10" in out

    def test_certificates_flag(self, program_files, capsys):
        old, new = program_files
        assert main(["diff", old, new, "--certificates"]) == 0
        out = capsys.readouterr().out
        assert "potential for" in out
        assert "anti-potential for" in out

    def test_exact_backend(self, program_files, capsys):
        old, new = program_files
        assert main(["diff", old, new, "--backend", "exact"]) == 0
        assert "threshold t = 10" in capsys.readouterr().out

    def test_failure_exit_code(self, tmp_path, capsys):
        unbounded = tmp_path / "u.imp"
        unbounded.write_text("""
        proc p(n) {
          assume(1 <= n);
          var i = 0;
          while (i < n) {
            if (i < 2) { tick(2); } else { tick(1); }
            i = i + 1;
          }
        }
        """)
        plain = tmp_path / "p.imp"
        plain.write_text("""
        proc p(n) {
          assume(1 <= n);
          var i = 0;
          while (i < n) { tick(1); i = i + 1; }
        }
        """)
        assert main(["diff", str(plain), str(unbounded)]) == 1


class TestBoundRefuteSingle:
    def test_bound_proved(self, program_files, capsys):
        old, new = program_files
        assert main(["bound", old, new, "--bound", "n"]) == 0
        assert "proved" in capsys.readouterr().out

    def test_bound_unprovable(self, program_files, capsys):
        old, new = program_files
        assert main(["bound", old, new, "--bound", "n - 1"]) == 1

    def test_refute(self, program_files, capsys):
        old, new = program_files
        assert main(["refute", old, new, "--candidate", "5"]) == 0
        assert "refuted" in capsys.readouterr().out

    def test_refute_valid_threshold(self, program_files):
        old, new = program_files
        assert main(["refute", old, new, "--candidate", "10"]) == 1

    def test_refute_never_refutes_a_tight_threshold(self, tmp_path,
                                                     capsys):
        # diff proves t = 99 on ex6; a float optimum of
        # 99.00000000000001 used to "refute" it.
        paths = []
        for side, source in zip(("old", "new"), pair_sources("ex6")):
            paths.append(tmp_path / f"ex6_{side}.imp")
            paths[-1].write_text(source)
        assert main(["refute", *map(str, paths), "--candidate", "99"]) == 1
        assert "does not exceed candidate 99" in capsys.readouterr().out

    def test_refute_has_no_backend_option(self, program_files, capsys):
        old, new = program_files
        with pytest.raises(SystemExit) as exit_info:
            main(["refute", old, new, "--candidate", "5",
                  "--backend", "scipy"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_single(self, program_files, capsys):
        old, _ = program_files
        assert main(["single", old]) == 0
        assert "precision gap" in capsys.readouterr().out


class TestShowAndErrors:
    def test_show_text(self, program_files, capsys):
        old, _ = program_files
        assert main(["show", old]) == 0
        assert "transition system" in capsys.readouterr().out

    def test_show_dot(self, program_files, capsys):
        old, _ = program_files
        assert main(["show", old, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent.imp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.imp"
        bad.write_text("proc p( { }")
        assert main(["show", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("diff", "bound", "refute", "single", "suite", "show"):
            assert command in text


class TestSuiteCommand:
    def test_subset(self, capsys):
        assert main(["suite", "--names", "ex4"]) == 0
        out = capsys.readouterr().out
        assert "ex4" in out
        assert "201" in out


class TestWitnessCommand:
    def test_witness_found(self, program_files, capsys):
        old, new = program_files
        assert main(["witness", old, new]) == 0
        out = capsys.readouterr().out
        assert "difference 10" in out

    def test_witness_exceed(self, program_files):
        old, new = program_files
        assert main(["witness", old, new, "--exceed", "5"]) == 0
        assert main(["witness", old, new, "--exceed", "10"]) == 1


class TestSuiteFormats:
    def test_markdown(self, capsys):
        assert main(["suite", "--names", "ex4", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| Benchmark")

    def test_csv(self, capsys):
        assert main(["suite", "--names", "ex4", "--format", "csv"]) == 0
        assert "benchmark," in capsys.readouterr().out
