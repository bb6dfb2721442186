"""Tests of the long-lived worker pool and cross-pair escalation
scheduler (`repro.engine.scheduler`)."""

import asyncio
import contextlib
import errno
import gc
import multiprocessing
import os
import signal
import time
import weakref
from fractions import Fraction

import pytest

from repro.config import AnalysisConfig, EngineConfig
from repro.engine import (
    AnalysisJob,
    JobResult,
    ParallelExecutor,
    ResultCache,
    WorkerPool,
    run_batch,
    select_result,
)
from repro.errors import AnalysisError
from repro.faults import FaultPlan, set_plan

COUNT_OLD = """
proc count(n) {
  assume(1 <= n && n <= 10);
  var i = 0;
  while (i < n) { tick(1); i = i + 1; }
}
"""

COUNT_NEW = COUNT_OLD.replace("tick(1)", "tick(2)")

# Quadratic cost over an UNBOUNDED domain with a constant difference:
# the certificate needs degree-2 potentials, so the d1K1 rung fails
# (sound x) and the ladder escalates to d2K2, which proves 1.
QUAD_OLD = """
proc quad(n) {
  assume(0 <= n);
  var i = 0;
  var j = 0;
  while (i < n) {
    j = 0;
    while (j < i) { tick(1); j = j + 1; }
    i = i + 1;
  }
}
"""

QUAD_NEW = QUAD_OLD.replace("var i = 0;", "tick(1);\n  var i = 0;")

# Cubic-cost pair: d2K2 succeeds in well under a second in a one-worker
# pool, a few times longer than the count pair's fast rungs.  A test
# that needs it still running, or finishing last, holds it with
# ``held`` whatever the host's speed.
NESTED_OLD = """
proc nested(n, m, p) {
  assume(1 <= n && n <= 100);
  assume(1 <= m && m <= 100);
  assume(1 <= p && p <= 100);
  var i = 0;
  var j = 0;
  var k = 0;
  while (i < n) {
    j = 0;
    while (j < m) {
      k = 0;
      while (k < p) { tick(1); k = k + 1; }
      j = j + 1;
    }
    i = i + 1;
  }
}
"""

NESTED_NEW = NESTED_OLD.replace("tick(1)", "tick(2)")

FAST = AnalysisConfig(degree=1, max_products=1)

#: A two-rung ladder that keeps escalation tests fast.
LADDER2 = ((1, 1, "scipy"), (2, 2, "scipy"))


def count_job(config=FAST, name="count"):
    return AnalysisJob(kind="diff", old_source=COUNT_OLD,
                       new_source=COUNT_NEW, config=config, name=name)


def nested_job(config=None, name="nested"):
    config = config or AnalysisConfig(degree=2, max_products=2)
    return AnalysisJob(kind="diff", old_source=NESTED_OLD,
                       new_source=NESTED_NEW, config=config, name=name)


@contextlib.contextmanager
def held(name, seconds=30.0):
    """Delay jobs named ``name`` by ``seconds`` before they run: a
    ``job.delay`` rule, installed before the pool forks the workers
    that inherit it."""
    set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
        {"site": "job.delay", "name": name, "seconds": seconds,
         "max_attempts": 0}]}))
    try:
        yield
    finally:
        set_plan(None)


@pytest.fixture
def mixed_dir(tmp_path):
    """Three pairs: two win the first rung, one escalates to the second."""
    (tmp_path / "alpha_old.imp").write_text(COUNT_OLD)
    (tmp_path / "alpha_new.imp").write_text(COUNT_NEW)
    (tmp_path / "beta_old.imp").write_text(COUNT_OLD)
    (tmp_path / "beta_new.imp").write_text(
        COUNT_OLD.replace("tick(1)", "tick(3)")
    )
    (tmp_path / "quad_old.imp").write_text(QUAD_OLD)
    (tmp_path / "quad_new.imp").write_text(QUAD_NEW)
    return tmp_path


class TestWorkerPool:
    def test_runs_and_reuses_workers(self):
        with WorkerPool(2) as pool:
            tasks = [pool.submit(count_job(name=f"c{i}")) for i in range(4)]
            done = []
            while len(done) < 4:
                completed = pool.wait()
                assert completed
                done.extend(completed)
            assert sorted(t.id for t in done) == [t.id for t in tasks]
            assert all(t.result.threshold == 10.0 for t in done)
            # Four jobs, but the pool never grew past its size.
            assert pool.spawned == 2
            assert pool.terminated == 0

    def test_cancel_pending_never_starts(self):
        with WorkerPool(1) as pool:
            first = pool.submit(count_job(name="run"))
            queued = pool.submit(count_job(
                config=AnalysisConfig(degree=1, max_products=2),
                name="queued",
            ))
            assert pool.cancel(queued) is True
            while pool.wait():
                pass
            assert first.result is not None
            assert queued.result is None
            assert pool.spawned == 1

    def test_cancel_running_kills_exactly_that_worker(self):
        with held("nested"), WorkerPool(2) as pool:
            slow = pool.submit(nested_job(), priority=(0,))
            fast = pool.submit(count_job(), priority=(1,))
            while fast.result is None:
                pool.wait()
            assert pool.cancel(slow) is True
            assert pool.terminated == 1
            # The pool survives the kill: the surviving worker (or a
            # respawn) still runs new work.
            again = pool.submit(count_job(name="again"))
            while again.result is None:
                pool.wait()
            assert again.result.threshold == 10.0

    def test_dead_worker_surfaces_structured_error(self):
        with held("nested"), WorkerPool(1) as pool:
            task = pool.submit(nested_job())
            deadline = time.time() + 10
            while not pool._workers and time.time() < deadline:
                time.sleep(0.01)
            pool._workers[0].process.kill()
            completed = pool.wait()
            assert [t.id for t in completed] == [task.id]
            assert task.result.status == "error"
            assert task.result.error_type == "BrokenWorker"
            # The batch goes on: a fresh worker replaces the dead one.
            again = pool.submit(count_job(name="again"))
            while again.result is None:
                pool.wait()
            assert again.result.threshold == 10.0
            assert pool.spawned == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs procfs")
    def test_worker_that_cannot_start_fails_its_task(self, monkeypatch):
        """Descriptors ran out at spawn: the task completes with a
        structured error (returned by wait), the half-built worker's
        pipe is closed, and the pool spawns normally afterwards."""
        def refuse(process):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        with WorkerPool(1) as pool:
            descriptors = len(os.listdir("/proc/self/fd"))
            with monkeypatch.context() as patch:
                patch.setattr(multiprocessing.process.BaseProcess, "start",
                              refuse)
                task = pool.submit(count_job(), dispatch=False)
                assert pool.wait() == [task]
            assert len(os.listdir("/proc/self/fd")) == descriptors
            assert task.result.status == "error"
            assert task.result.error_type == "OSError"
            assert os.strerror(errno.EMFILE) in task.result.message
            assert pool.spawned == 0
            again = pool.submit(count_job(name="again"))
            while again.result is None:
                pool.wait()
            assert again.result.threshold == 10.0

    def test_retry_hook_requeues_the_same_task(self):
        asked = []

        def retry(job, result, attempt):
            asked.append((job.name, result.error_type, attempt))
            return attempt < 1

        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "job.error", "name": "flaky", "max_attempts": 1}]}))
        try:
            with WorkerPool(1, retry=retry) as pool:
                task = pool.submit(count_job(name="flaky"))
                assert pool.wait() == [task]
        finally:
            set_plan(None)
        assert asked == [("flaky", "InjectedFaultError", 0),
                         ("flaky", None, 1)]
        assert (task.attempt, task.result.attempts) == (1, 1)
        assert task.result.threshold == 10.0

    def test_cancel_drops_a_retry_its_drain_requeued(self):
        # The worker dies on the first attempt; the cancel drains the
        # dead pipe, whose failure sends the task back to the queue,
        # and drops it there — no worker left to kill, no result.
        fired = []
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "worker.crash", "name": "crashy", "max_attempts": 1}]}))
        try:
            with WorkerPool(1, retry=lambda job, result, attempt: True) \
                    as pool:
                task = pool.submit(count_job(name="crashy"),
                                   on_done=fired.append)
                pool._workers[0].process.join(10)
                assert pool.cancel(task) is True
                assert (task.state, task.attempt) == ("dropped", 1)
                assert (pool.crashed, pool.terminated) == (1, 0)
                assert pool.wait() == []
        finally:
            set_plan(None)
        assert fired == [] and task.result is None

    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(AnalysisError):
            pool.submit(count_job())

    def test_size_validation(self):
        with pytest.raises(AnalysisError):
            WorkerPool(0)

    def test_an_unclosed_executor_frees_its_pool_at_once(self):
        # No reference cycle between executor and pool: dropping an
        # executor nobody closed reclaims its workers right away, not
        # whenever the cyclic collector next runs (possibly inside
        # another job's alarm budget).
        gc.disable()
        try:
            executor = ParallelExecutor(jobs=2)
            assert executor.run([count_job()])[0].threshold == 10.0
            pool = weakref.ref(executor.pool)
            del executor
            assert pool() is None
        finally:
            gc.enable()


class TestWorkerSignals:
    """Workers restore SIGTERM's default action: the pool kills with
    SIGTERM whatever handler the parent had installed when it forked."""

    @staticmethod
    def _cancel_running_job():
        with held("nested"), WorkerPool(1) as pool:
            task = pool.submit(nested_job())
            deadline = time.time() + 10
            while not pool._workers and time.time() < deadline:
                time.sleep(0.01)
            process = pool._workers[0].process
            time.sleep(0.3)  # well inside the held job
            assert pool.cancel(task) is True
            process.join(10)
            return process

    def test_cancel_kills_a_worker_forked_under_an_asyncio_handler(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, lambda: None)
            try:
                return self._cancel_running_job()
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        process = asyncio.run(scenario())
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGTERM

    def test_cancel_under_the_cli_handler_prints_no_traceback(self, capfd):
        from repro.cli import _sigterm_as_interrupt

        with _sigterm_as_interrupt():
            process = self._cancel_running_job()
        assert process.exitcode == -signal.SIGTERM
        assert "KeyboardInterrupt" not in capfd.readouterr().err


class TestEscalationScheduler:
    def test_one_pool_across_pairs_and_calls(self):
        with ParallelExecutor(jobs=2) as executor:
            ladders = [
                [count_job(name="a[d1]"),
                 count_job(AnalysisConfig(degree=2, max_products=2),
                           name="a[d2]")],
                [count_job(AnalysisConfig(degree=1, max_products=2),
                           name="b[d1]")],
            ]
            first = executor.run_escalating_many(ladders)
            second = executor.run_escalating(
                [count_job(AnalysisConfig(degree=3, max_products=2),
                           name="c[d3]")]
            )
            assert [r.status for r in first[0]] == ["ok", "cancelled"]
            assert [r.status for r in first[1]] == ["ok"]
            assert [r.status for r in second] == ["ok"]
            # One long-lived pool served both calls and every pair.
            assert executor.pools_created == 1

    def test_completed_loser_rung_is_harvested_into_cache(self, tmp_path):
        # Rung 0 (the eventual winner) is held a second; rung 1
        # completes long before.  The loser's paid-for result must land
        # in the cache even though selection reports it "cancelled" —
        # and no worker may be killed, because every rung had finished
        # (the cancel/done race).
        cache = ResultCache(tmp_path)
        loser = count_job(name="fast-loser")
        with held("nested", seconds=1.0), \
                ParallelExecutor(jobs=2, cache=cache) as executor:
            results = executor.run_escalating([nested_job(), loser])
            assert results[0].succeeded
            assert results[1].status == "cancelled"
            assert executor.pool.terminated == 0
        harvested = cache.get(loser.key)
        assert harvested is not None
        assert harvested.threshold == 10.0
        # A later run of the same job replays the harvested entry.
        with ParallelExecutor(jobs=1, cache=ResultCache(tmp_path)) as warm:
            replay = warm.run([loser])[0]
        assert replay.cached
        assert replay.threshold == 10.0

    def test_abandoned_running_loser_is_not_cached(self, tmp_path):
        # The mirror case: the loser is still *running* when the winner
        # lands, so it is terminated (exactly one worker) and nothing
        # of it is cached.
        cache = ResultCache(tmp_path)
        loser = nested_job(name="slow-loser")
        with held("slow-loser"), \
                ParallelExecutor(jobs=2, cache=cache) as executor:
            results = executor.run_escalating([count_job(), loser])
            assert results[0].succeeded
            assert results[1].status == "cancelled"
            assert executor.pool.terminated == 1
        assert cache.get(loser.key) is None

    def test_ladder_with_failing_first_rung_escalates(self):
        quad = [
            AnalysisJob(kind="diff", old_source=QUAD_OLD,
                        new_source=QUAD_NEW,
                        config=AnalysisConfig(degree=d, max_products=K),
                        name=f"quad[d{d}K{K}]")
            for d, K in [(1, 1), (2, 2)]
        ]
        for jobs in (1, 2):
            with ParallelExecutor(jobs=jobs) as executor:
                results = executor.run_escalating(quad)
            assert [r.status for r in results] == ["ok", "ok"]
            assert results[0].outcome == "unknown"
            assert results[1].threshold == 1.0

    def test_crashed_rung_is_retried_without_moving_selection(self):
        # Pair alpha's cheap rung loses its worker on the first attempt
        # and wins on the retry: statuses and chosen rungs match the
        # sequential walk, and only the retry counters tell them apart.
        ladders = [
            [count_job(name="alpha[d1]"),
             count_job(AnalysisConfig(degree=2, max_products=2),
                       name="alpha[d2]")],
            [count_job(AnalysisConfig(degree=1, max_products=2),
                       name="beta[d1]"),
             count_job(AnalysisConfig(degree=3, max_products=2),
                       name="beta[d2]")],
        ]

        def selection(results):
            return ([[r.status for r in rungs] for rungs in results],
                    [rungs.index(select_result(rungs, "first"))
                     for rungs in results])

        with ParallelExecutor(jobs=1) as executor:
            sequential = executor.run_escalating_many(ladders)
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "worker.crash", "name": "alpha[d1]",
             "max_attempts": 1}]}))
        try:
            with ParallelExecutor(jobs=2) as executor:
                parallel = executor.run_escalating_many(ladders)
                assert executor.stats.retries == 1
                assert executor.stats.errors == 0
                assert executor.pool.crashed == 1
        finally:
            set_plan(None)
        assert selection(parallel) == selection(sequential)
        assert selection(parallel)[1] == [0, 0]
        assert parallel[0][0].attempts == 1
        assert parallel[0][0].threshold == 10.0

    def test_rungs_of_distinct_pairs_run_concurrently(self, monkeypatch):
        # The point of the scheduler: while one pair's ladder is still
        # solving, another pair's rungs are already on workers.  Spy on
        # the pool's event loop and record which pairs hold workers at
        # each wakeup.
        concurrent_pairs = []
        original_wait = WorkerPool.wait

        def spying_wait(pool, wake=None):
            running = {worker.task.job.name.split("[")[0]
                       for worker in pool._workers
                       if worker.task is not None}
            if len(running) > 1:
                concurrent_pairs.append(running)
            return original_wait(pool, wake)

        monkeypatch.setattr(WorkerPool, "wait", spying_wait)
        ladders = [
            [count_job(name="alpha[d1]")],
            [count_job(AnalysisConfig(degree=1, max_products=2),
                       name="beta[d1]")],
        ]
        with ParallelExecutor(jobs=2) as executor:
            results = executor.run_escalating_many(ladders)
        assert all(rungs[0].succeeded for rungs in results)
        assert {"alpha", "beta"} in concurrent_pairs

    def test_first_wave_dispatches_by_rung_then_pair(self):
        # With 2 workers and 2 two-rung ladders, the admission wave
        # must put both pairs' FIRST rungs on workers — not both rungs
        # of the first pair.  (rung, pair) priorities plus deferred
        # dispatch make the wave deterministic.
        with WorkerPool(2) as pool:
            a1 = pool.submit(count_job(
                AnalysisConfig(degree=2, max_products=2), name="a[r1]"
            ), priority=(1, 0), dispatch=False)
            b1 = pool.submit(count_job(
                AnalysisConfig(degree=3, max_products=2), name="b[r1]"
            ), priority=(1, 1), dispatch=False)
            a0 = pool.submit(count_job(name="a[r0]"),
                             priority=(0, 0), dispatch=False)
            b0 = pool.submit(count_job(
                AnalysisConfig(degree=1, max_products=2), name="b[r0]"
            ), priority=(0, 1), dispatch=False)
            assert all(t.state == "pending" for t in (a0, a1, b0, b1))
            pool.flush()
            assert a0.state == "running" and b0.state == "running"
            assert a1.state == "pending" and b1.state == "pending"
            while any(t.result is None for t in (a0, a1, b0, b1)):
                assert pool.wait()


class TestFirstModeDeterminism:
    def test_jobs4_chooses_same_rungs_as_jobs1(self, mixed_dir):
        reports = {
            jobs: run_batch(
                mixed_dir, config=FAST,
                engine=EngineConfig(jobs=jobs, portfolio=True),
                ladder=LADDER2,
            )
            for jobs in (1, 4)
        }
        for report in reports.values():
            assert report.ok
        chosen = {
            jobs: [(p.name, p.chosen_rung_index(), p.threshold)
                   for p in report.portfolios]
            for jobs, report in reports.items()
        }
        statuses = {
            jobs: [[r.status for r in p.rungs] for p in report.portfolios]
            for jobs, report in reports.items()
        }
        assert chosen[4] == chosen[1]
        assert statuses[4] == statuses[1]
        # The escalating pair really escalated; the easy pairs won the
        # first rung.
        assert chosen[1] == [
            ("alpha", 0, 10.0), ("beta", 0, 20.0), ("quad", 1, 1.0),
        ]

    def test_batch_builds_one_pool_for_all_pairs(self, mixed_dir,
                                                 monkeypatch):
        # The acceptance criterion: a first-mode portfolio batch over
        # several pairs constructs exactly one worker pool, not one
        # per pair.
        built = []
        original_init = WorkerPool.__init__

        def counting_init(pool, size, **kwargs):
            built.append(pool)
            original_init(pool, size, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", counting_init)
        report = run_batch(
            mixed_dir, config=FAST,
            engine=EngineConfig(jobs=4, portfolio=True), ladder=LADDER2,
        )
        assert report.ok
        assert len(built) == 1
        assert len(report.portfolios) == 3

    def test_max_inflight_does_not_change_selection(self, mixed_dir):
        # Two workers admit max(2, 2) = 2 of the three pairs at once:
        # the third waits for a decision, and selection does not move.
        capped = run_batch(
            mixed_dir, config=FAST,
            engine=EngineConfig(jobs=2, portfolio=True),
            ladder=LADDER2,
        )
        assert capped.ok
        assert [(p.name, p.chosen_rung_index()) for p in capped.portfolios] \
            == [("alpha", 0), ("beta", 0), ("quad", 1)]

    def test_cli_first_mode_batch_with_scheduler_knobs(self, mixed_dir,
                                                       capsys):
        from repro.cli import main

        code = main(["batch", str(mixed_dir), "-d", "1", "-K", "1",
                     "--portfolio", "--jobs", "2", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "alpha" in out and "quad" in out


class TestBestSelectionExactness:
    @staticmethod
    def _rung(threshold, threshold_str=None):
        return JobResult(job_key="k", name="r", kind="diff", status="ok",
                         outcome="threshold", threshold=threshold,
                         threshold_str=threshold_str)

    def test_exact_thresholds_break_float_collisions(self):
        # Two exact rungs whose Fractions differ but whose float
        # renderings collide: float ranking would tie and pick the
        # earlier (larger!) rung; exact ranking picks the smaller one.
        base = Fraction(0.3333333333333333)
        bigger = base + Fraction(2, 10**20)
        smaller = base + Fraction(1, 10**20)
        assert float(bigger) == float(smaller)
        rungs = [
            self._rung(float(bigger), str(bigger)),
            self._rung(float(smaller), str(smaller)),
        ]
        chosen = select_result(rungs, "best")
        assert chosen is rungs[1]
        assert Fraction(chosen.threshold_str) == smaller

    def test_exact_rung_outranks_float_rung_crossing(self):
        # An exact value just below a float rung whose float rendering
        # rounds *above* it must still win.
        exact = Fraction(1, 3)
        rungs = [
            self._rung(float(exact) + 1e-16, None),
            self._rung(float(exact), str(exact)),
        ]
        assert select_result(rungs, "best") is rungs[1]

    def test_ladder_order_still_breaks_true_ties(self):
        rungs = [self._rung(10.0), self._rung(10.0)]
        assert select_result(rungs, "best") is rungs[0]


class TestSuiteExitCode:
    def test_suite_fails_on_infrastructure_failure(self, capsys):
        from repro.cli import main

        # ex7's paper row is a sound x; a 10ms budget turns it into a
        # job timeout instead, which must fail the process.
        assert main(["suite", "--names", "ex7", "--timeout", "0.01"]) == 1
        assert "DIFFERS" in capsys.readouterr().out

    def test_suite_sound_x_still_exits_zero(self, capsys):
        from repro.cli import main

        # Without a budget ex7 completes with the paper's sound x on
        # every row it runs — a completed answer, not a failure.
        assert main(["suite", "--names", "ex7"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
