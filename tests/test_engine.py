"""Tests of the parallel portfolio analysis engine (`repro.engine`)."""

import json

import pytest

from cache_rows import write_entry_bytes
from repro.config import AnalysisConfig, EngineConfig
from repro.engine import (
    AnalysisJob,
    JobResult,
    ParallelExecutor,
    ResultCache,
    discover_pairs,
    format_batch_table,
    batch_to_json,
    run_batch,
    run_portfolio,
    select_result,
)
from repro.errors import AnalysisError

OLD = """
proc count(n) {
  assume(1 <= n && n <= 10);
  var i = 0;
  while (i < n) { tick(1); i = i + 1; }
}
"""

NEW = OLD.replace("tick(1)", "tick(2)")

FAST = AnalysisConfig(degree=1, max_products=1)


def make_job(**overrides):
    payload = dict(kind="diff", old_source=OLD, new_source=NEW,
                   config=FAST, name="count")
    payload.update(overrides)
    return AnalysisJob(**payload)


class TestJobModel:
    def test_key_is_stable(self):
        assert make_job().key == make_job().key

    def test_key_ignores_display_name(self):
        assert make_job(name="a").key == make_job(name="b").key

    def test_key_changes_with_config(self):
        assert make_job().key != make_job(config=AnalysisConfig()).key
        assert (
            make_job().key
            != make_job(config=AnalysisConfig(degree=1, max_products=1,
                                              check_samples=7)).key
        )

    def test_key_changes_with_sources_and_kind(self):
        assert make_job().key != make_job(old_source=NEW).key
        assert make_job().key != make_job(kind="refute", candidate=5.0).key

    def test_kind_validation(self):
        with pytest.raises(AnalysisError):
            AnalysisJob(kind="frobnicate", old_source=OLD, new_source=NEW)
        with pytest.raises(AnalysisError):
            AnalysisJob(kind="diff", old_source=OLD)
        with pytest.raises(AnalysisError):
            AnalysisJob(kind="bound", old_source=OLD, new_source=NEW)

    def test_roundtrip(self):
        job = make_job()
        assert AnalysisJob.from_dict(job.to_dict()).key == job.key

    def test_inline_execution_keeps_analysis_object(self):
        result = ParallelExecutor(jobs=1).run([make_job()])[0]
        assert result.status == "ok"
        assert result.threshold == 10.0
        assert result.analysis is not None
        assert result.analysis.is_threshold


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        first = executor.run([make_job()])[0]
        second = executor.run([make_job()])[0]
        assert not first.cached
        assert second.cached
        assert executor.stats.cache_hits == 1
        assert second.threshold == first.threshold
        assert second.seconds == 0.0  # a replay costs this run nothing
        assert len(cache) == 1

    def test_orphaned_temp_files_invisible(self, tmp_path):
        # Stray files beside the store are neither entries nor touched.
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).run([make_job()])
        (tmp_path / ".tmp-orphan.json").write_text("{}")
        assert len(ResultCache(tmp_path)) == 1
        assert cache.clear() == 1
        assert (tmp_path / ".tmp-orphan.json").exists()

    def test_config_change_invalidates(self, tmp_path):
        executor = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        executor.run([make_job()])
        richer = executor.run([make_job(config=AnalysisConfig())])[0]
        assert not richer.cached
        assert executor.stats.cache_hits == 0

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        bad = make_job(old_source="proc p( {")
        first = executor.run([bad])[0]
        second = executor.run([bad])[0]
        assert first.status == "error" and second.status == "error"
        assert not second.cached
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.run([make_job()])
        write_entry_bytes(tmp_path, make_job().key, b"not json")
        again = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        assert not again.run([make_job()])[0].cached

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).run([make_job()])
        assert cache.clear() == 1
        assert len(cache) == 0


class TestStructuredFailures:
    def test_parse_error_inline(self):
        result = ParallelExecutor(jobs=1).run(
            [make_job(old_source="proc p( {")]
        )[0]
        assert result.status == "error"
        assert result.error_type == "ParseError"
        assert "expected identifier" in result.message
        assert result.traceback

    def test_parse_error_in_worker(self):
        result = ParallelExecutor(jobs=2).run(
            [make_job(new_source="while (true) {}")]
        )[0]
        assert result.status == "error"
        assert result.error_type == "ParseError"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_surfaces_structurally(self, jobs):
        slow = make_job(config=AnalysisConfig(degree=3, max_products=3))
        result = ParallelExecutor(jobs=jobs, timeout=0.02).run([slow])[0]
        assert result.status == "timeout"
        assert result.error_type == "JobTimeoutError"
        assert "budget" in result.message

    def test_failure_does_not_poison_the_batch(self):
        jobs = [make_job(old_source="proc p( {"), make_job()]
        results = ParallelExecutor(jobs=2).run(jobs)
        assert results[0].status == "error"
        assert results[1].status == "ok"
        assert results[1].threshold == 10.0


def _rung(threshold, status="ok", outcome="threshold"):
    return JobResult(job_key="k", name="r", kind="diff", status=status,
                     outcome=outcome, threshold=threshold)


class TestPortfolio:
    def test_best_picks_minimal_threshold_among_successes(self):
        rungs = [
            _rung(None, status="ok", outcome="unknown"),   # rung failed (✗)
            _rung(42.0),
            _rung(10.0),
            _rung(17.0),
        ]
        chosen = select_result(rungs, "best")
        assert chosen.threshold == 10.0

    def test_first_picks_lowest_succeeding_rung(self):
        rungs = [
            _rung(None, status="ok", outcome="unknown"),
            _rung(42.0),
            _rung(10.0),
        ]
        assert select_result(rungs, "first").threshold == 42.0

    def test_empty_ladder(self):
        assert ParallelExecutor(jobs=2).run_escalating([]) == []
        assert ParallelExecutor(jobs=1).run_escalating([]) == []

    def test_no_success_returns_none(self):
        rungs = [_rung(None, status="ok", outcome="unknown"),
                 _rung(None, status="error", outcome=None)]
        assert select_result(rungs, "first") is None
        assert select_result(rungs, "best") is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(AnalysisError):
            select_result([], "fastest")

    def test_escalation_skips_higher_rungs_after_success(self):
        portfolio = run_portfolio(
            OLD, NEW, "count", ParallelExecutor(jobs=1), base=FAST,
            mode="first",
        )
        assert portfolio.succeeded
        assert portfolio.threshold == 10.0
        assert portfolio.chosen_rung_index() == 0
        assert [r.status for r in portfolio.rungs[1:]] == ["cancelled"] * 3

    def test_escalation_abandons_running_losers(self):
        # Rung 0 succeeds in ~1s while rung 1 (d=3, K=3) needs far
        # longer; "first" mode must not drain the loser.
        import time

        fast = make_job()
        slow = make_job(config=AnalysisConfig(degree=3, max_products=3))
        executor = ParallelExecutor(jobs=2)
        start = time.perf_counter()
        results = executor.run_escalating([fast, slow])
        elapsed = time.perf_counter() - start
        assert results[0].succeeded
        assert results[1].status == "cancelled"
        assert elapsed < 8.0

    def test_best_mode_runs_every_rung(self):
        portfolio = run_portfolio(
            OLD, NEW, "count", ParallelExecutor(jobs=2), base=FAST,
            mode="best",
        )
        assert portfolio.succeeded
        assert portfolio.threshold == 10.0
        assert all(r.status == "ok" for r in portfolio.rungs)

    def test_refutation_stage_certifies_tight_threshold(self):
        # count's threshold 10 is exactly tight (n = 10 exhibits the
        # full difference), so probing candidate 9 must refute.
        portfolio = run_portfolio(
            OLD, NEW, "count", ParallelExecutor(jobs=1), base=FAST,
            mode="first", refute=True,
        )
        assert portfolio.succeeded
        assert portfolio.refutation is not None
        assert portfolio.refutation.kind == "refute"
        assert portfolio.refutation.status == "ok"
        assert portfolio.refutation.outcome == "refuted"
        assert portfolio.tight is True
        # The probe rides the winning rung's template shape with the
        # exact backend, and its certified gap is exact.
        assert portfolio.refutation.config_summary["lp_backend"] == (
            "exact-warm"
        )
        assert portfolio.refutation.exact_threshold() == 10

    def test_tight_property_reflects_probe_outcome(self):
        from repro.engine.portfolio import PortfolioResult

        def probe(status, outcome):
            return JobResult(job_key="k", name="count[refute]",
                             kind="refute", status=status,
                             outcome=outcome)

        portfolio = PortfolioResult(name="count", mode="first",
                                    chosen=None, rungs=[])
        assert portfolio.tight is None                     # no probe
        portfolio.refutation = probe("ok", "refuted")
        assert portfolio.tight is True                     # certified
        portfolio.refutation = probe("ok", "unknown")
        assert portfolio.tight is False                    # slack?
        portfolio.refutation = probe("timeout", None)
        assert portfolio.tight is None                     # no answer

    def test_no_refutation_stage_by_default(self):
        portfolio = run_portfolio(
            OLD, NEW, "count", ParallelExecutor(jobs=1), base=FAST,
            mode="first",
        )
        assert portfolio.refutation is None
        assert portfolio.tight is None

    def test_escalation_statuses_match_across_jobs_with_warm_cache(
            self, tmp_path):
        # Warm every rung (best mode), then escalate with jobs=1 and
        # jobs=2: statuses and cache-hit counts must be identical —
        # pre-fetched hits past the winner must not replay as "ok".
        warm = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        run_portfolio(OLD, NEW, "count", warm, base=FAST, mode="best")

        runs = []
        for jobs in (1, 2):
            executor = ParallelExecutor(jobs=jobs,
                                        cache=ResultCache(tmp_path))
            portfolio = run_portfolio(OLD, NEW, "count", executor,
                                      base=FAST, mode="first")
            runs.append(([r.status for r in portfolio.rungs],
                         executor.stats.cache_hits))
        assert runs[0] == runs[1]
        assert runs[0] == (["ok", "cancelled", "cancelled", "cancelled"], 1)

    def test_escalation_finished_loser_is_not_abandoned_running(self):
        # Both rungs finish about together; the loser's future is done,
        # which must not trip the worker-termination path (cancel()
        # returns False for finished futures too).
        fast_a = make_job()
        fast_b = make_job(config=AnalysisConfig(degree=1, max_products=2))
        results = ParallelExecutor(jobs=2).run_escalating([fast_a, fast_b])
        assert results[0].succeeded
        assert results[1].status == "cancelled"

    def test_portfolio_seconds_excludes_cached_rungs(self, tmp_path):
        executor = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        cold = run_portfolio(OLD, NEW, "count", executor, base=FAST)
        warm = run_portfolio(OLD, NEW, "count", executor, base=FAST)
        assert cold.seconds > 0
        assert warm.seconds == 0  # answered entirely from disk

    def test_timeout_falls_back_without_sigalrm(self):
        # Inline execution from a non-main thread cannot install the
        # interval timer; the job must still run (without a budget)
        # instead of failing before the analysis starts.
        import threading

        outcome = {}

        def worker():
            executor = ParallelExecutor(jobs=1, timeout=30.0)
            outcome["result"] = executor.run([make_job()])[0]

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert outcome["result"].status == "ok"
        assert outcome["result"].threshold == 10.0


@pytest.fixture
def pair_dir(tmp_path):
    for name, delta in [("alpha", 2), ("beta", 3)]:
        (tmp_path / f"{name}_old.imp").write_text(OLD)
        (tmp_path / f"{name}_new.imp").write_text(
            OLD.replace("tick(1)", f"tick({delta})")
        )
    return tmp_path


class TestBatch:
    def test_discovery_sorted_and_validated(self, pair_dir):
        pairs = discover_pairs(pair_dir)
        assert [pair.name for pair in pairs] == ["alpha", "beta"]
        (pair_dir / "gamma_old.imp").write_text(OLD)
        with pytest.raises(AnalysisError, match="unpaired"):
            discover_pairs(pair_dir)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="no .*pairs"):
            discover_pairs(tmp_path)

    def test_jobs1_and_jobs4_identical(self, pair_dir):
        sequential = run_batch(
            pair_dir, config=FAST, engine=EngineConfig(jobs=1)
        )
        parallel = run_batch(
            pair_dir, config=FAST, engine=EngineConfig(jobs=4)
        )
        assert sequential.ok and parallel.ok
        assert sequential.thresholds() == parallel.thresholds() == {
            "alpha": 10.0, "beta": 20.0,
        }

    def test_second_run_hits_cache(self, pair_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        engine = EngineConfig(jobs=1, cache_dir=cache_dir)
        first = run_batch(pair_dir, config=FAST, engine=engine)
        second = run_batch(pair_dir, config=FAST, engine=engine)
        assert first.stats.cache_hits == 0
        assert second.stats.cache_hits == 2
        assert second.thresholds() == first.thresholds()

    def test_portfolio_batch(self, pair_dir):
        report = run_batch(
            pair_dir, config=FAST,
            engine=EngineConfig(jobs=1, portfolio=True),
        )
        assert report.ok
        assert report.thresholds() == {"alpha": 10.0, "beta": 20.0}
        assert len(report.portfolios) == 2

    def test_portfolio_best_batch_selects_per_pair(self, pair_dir):
        report = run_batch(
            pair_dir, config=FAST,
            engine=EngineConfig(jobs=2, portfolio=True,
                                portfolio_mode="best"),
        )
        assert report.ok
        assert report.thresholds() == {"alpha": 10.0, "beta": 20.0}
        # Best mode runs every rung of every pair on one pool.
        assert all(r.status == "ok" for r in report.results)

    def test_portfolio_ok_absorbs_losing_rung_failures(self):
        # A losing rung timing out must not fail the batch as long as
        # the pair still produced a winner; a pair with no winner and
        # a failed rung must.
        from repro.engine import BatchReport, PortfolioResult

        timed_out = _rung(None, status="timeout", outcome=None)
        winner = _rung(10.0)
        unknown = _rung(None, status="ok", outcome="unknown")

        won = PortfolioResult(name="a", mode="first", chosen=winner,
                              rungs=[timed_out, winner])
        report = BatchReport(directory="d", results=won.rungs,
                             portfolios=[won])
        assert report.ok

        lost = PortfolioResult(name="b", mode="first", chosen=None,
                               rungs=[timed_out, unknown])
        report = BatchReport(directory="d", results=lost.rungs,
                             portfolios=[lost])
        assert not report.ok

        all_unknown = PortfolioResult(name="c", mode="first", chosen=None,
                                      rungs=[unknown, unknown])
        report = BatchReport(directory="d", results=all_unknown.rungs,
                             portfolios=[all_unknown])
        assert report.ok  # sound ✗ on every rung is a completed answer

    def test_portfolio_table_separates_failures_from_sound_x(self):
        from repro.engine import BatchReport, PortfolioResult

        timed_out = _rung(None, status="timeout", outcome=None)
        unknown = _rung(None, status="ok", outcome="unknown")
        report = BatchReport(
            directory="d",
            results=[timed_out, unknown, unknown],
            portfolios=[
                PortfolioResult(name="broke", mode="first", chosen=None,
                                rungs=[timed_out, unknown]),
                PortfolioResult(name="sound", mode="first", chosen=None,
                                rungs=[unknown]),
            ],
        )
        table = format_batch_table(report)
        broke_line = next(l for l in table.splitlines() if "broke" in l)
        sound_line = next(l for l in table.splitlines() if "sound" in l)
        assert "failed" in broke_line and "1 failed" in broke_line
        assert "✗" in sound_line and "failed" not in sound_line

    def test_report_renderings(self, pair_dir):
        report = run_batch(pair_dir, config=FAST, engine=EngineConfig(jobs=1))
        table = format_batch_table(report)
        assert "alpha" in table and "cache hits" in table
        payload = json.loads(batch_to_json(report))
        assert payload["stats"]["completed"] == 2
        assert len(payload["results"]) == 2


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            EngineConfig(jobs=0)
        with pytest.raises(AnalysisError):
            EngineConfig(timeout=-1)
        with pytest.raises(AnalysisError):
            EngineConfig(portfolio_mode="fastest")

    def test_executor_rejects_bad_jobs_as_repro_error(self):
        # ReproError, so the CLI renders `error: ...` instead of a
        # traceback (e.g. `suite --jobs 0`).
        with pytest.raises(AnalysisError):
            ParallelExecutor(jobs=0)

    def test_suite_cli_bad_jobs_clean_error(self, capsys):
        from repro.cli import main

        assert main(["suite", "--names", "ex4", "--jobs", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestSuiteThroughEngine:
    def test_parallel_suite_matches_sequential(self):
        from repro.bench import run_suite

        sequential = run_suite(names=["ex4", "dis2"])
        parallel = run_suite(names=["ex4", "dis2"], jobs=2)
        # Registry (Table 1) order, regardless of completion order.
        assert [o.pair.name for o in parallel] == ["dis2", "ex4"]
        assert [o.computed for o in parallel] == [o.computed for o in sequential]
        assert all(o.is_tight for o in parallel)

    def test_cached_suite_rows_report_zero_seconds(self, tmp_path):
        from repro.bench import format_csv, format_table, run_suite

        cache_dir = str(tmp_path / "cache")
        run_suite(names=["ex4"], cache_dir=cache_dir)
        replay = run_suite(names=["ex4"], cache_dir=cache_dir)[0]
        assert replay.cached
        assert replay.seconds == 0.0
        assert replay.computed == pytest.approx(201.0)
        assert "(cached)" in format_table([replay])
        assert "cached" in format_csv([replay]).splitlines()[0]

    def test_infra_failure_is_not_a_paper_x(self):
        # A timed-out job must not masquerade as the paper's sound ✗
        # (ex7's paper row failed too, so this is the dangerous case).
        from repro.bench import run_suite

        outcome = run_suite(names=["ex7"], timeout=0.01)[0]
        assert outcome.job_status == "timeout"
        assert outcome.computed is None
        assert not outcome.matches_paper_shape
        assert "job timeout" in outcome.result.message
        assert outcome.row()["job_status"] == "timeout"


class TestBatchCLI:
    def test_batch_command(self, pair_dir, capsys):
        from repro.cli import main

        code = main(["batch", str(pair_dir), "-d", "1", "-K", "1",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "alpha" in out and "beta" in out
        assert "2 job(s)" in out

    def test_batch_json_and_cache(self, pair_dir, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        args = ["batch", str(pair_dir), "-d", "1", "-K", "1",
                "--cache-dir", cache_dir, "--format", "json"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["cache_hits"] == 2

    def test_portfolio_mode_implies_portfolio(self, pair_dir, capsys):
        from repro.cli import main

        assert main(["batch", str(pair_dir), "-d", "1", "-K", "1",
                     "--portfolio-mode", "best", "--no-cache"]) == 0
        out = capsys.readouterr().out
        # Portfolio table rows carry the winning rung label.
        assert "d1K1:scipy" in out or "d2K2:scipy" in out

    def test_batch_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["batch", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err
