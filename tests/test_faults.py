"""Chaos tests: the fault-injection layer and the self-healing stack.

The suite holds the engine to ISSUE 8's hard invariant — a seeded
:class:`~repro.faults.FaultPlan` may kill workers mid-run, corrupt
cache entries, delay and transiently fail jobs, and the canonical
report must still come back byte-identical to a fault-free ``--jobs 1``
run.  Retries, supervision and quarantine are all volatile machine
conditions; only wall-clock numbers and retry counters may differ.

The unit layers underneath (plan validation, rule matching, retry
classification, cache corruption handling) are tested directly so a
soak failure localizes quickly.
"""

import json
import os
import time

import pytest

from cache_rows import entry_bytes, integrity, read_entry, write_entry, \
    write_entry_bytes
from repro.config import AnalysisConfig, EngineConfig
from repro.engine import AnalysisJob, ParallelExecutor, ResultCache, run_batch
from repro.engine.batch import batch_to_json
from repro.engine.executor import (
    RETRY_BACKOFF_CAP,
    is_retryable,
    retry_backoff,
)
from repro.engine.jobs import JobResult
from repro.faults import (
    FaultPlan,
    FaultPlanError,
    FaultRule,
    activate,
    active_plan,
    load_plan,
    set_plan,
)
from repro.serve import canonical_json

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


def bounded_job(name: str, bound: int) -> AnalysisJob:
    """A distinct (own cache key) quick job per ``bound``."""
    old = OLD.replace("n <= 10", f"n <= {bound}")
    return AnalysisJob(kind="diff", old_source=old,
                       new_source=old.replace("tick(1)", "tick(2)"),
                       config=FAST, name=name)


@pytest.fixture(autouse=True)
def no_ambient_plan(monkeypatch):
    """Every test starts (and leaves) with fault injection off."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    set_plan(None)
    yield
    set_plan(None)


def env_plan(monkeypatch, tmp_path, plan: dict) -> str:
    """Write ``plan`` to disk and activate it via ``REPRO_FAULTS`` so
    pool *workers* (fresh processes) inherit it too."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    monkeypatch.setenv("REPRO_FAULTS", str(path))
    return str(path)


class TestFaultPlanValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule(site="disk.melt")

    def test_bad_bounds_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule(site="job.delay", seconds=-1)
        with pytest.raises(FaultPlanError):
            FaultRule(site="worker.crash", times=0)
        with pytest.raises(FaultPlanError):
            FaultRule(site="worker.crash", max_attempts=-1)
        with pytest.raises(FaultPlanError):
            FaultRule(site="cache.corrupt", mode="sparkle")

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule.from_dict({"site": "worker.crash", "когда": "сейчас"})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 1, "rules": [], "extra": True})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": "not-an-int"})

    def test_load_plan_round_trip_and_errors(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 7,
            "rules": [{"site": "worker.crash", "name": "ex2*",
                       "max_attempts": 1}],
        }))
        plan = load_plan(str(path))
        assert plan.seed == 7
        assert plan.rules[0].site == "worker.crash"

        (tmp_path / "broken.json").write_text("{not json")
        with pytest.raises(FaultPlanError):
            load_plan(str(tmp_path / "broken.json"))
        with pytest.raises(FaultPlanError):
            load_plan(str(tmp_path / "missing.json"))

    def test_activate_exports_environment(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rules": []}))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        plan = activate(str(path))
        assert plan.rules == ()
        assert os.environ["REPRO_FAULTS"] == str(path)
        assert active_plan() is not None


class TestRuleMatching:
    def test_name_glob_key_prefix_and_kind(self):
        rule = FaultRule(site="worker.crash", name="ex2[d2*",
                         key_prefix="3f", kind="diff")
        assert rule.matches("worker.crash", "ex2[d2K1]", "3fab", "diff", 0)
        assert not rule.matches("worker.hang", "ex2[d2K1]", "3fab", "diff", 0)
        assert not rule.matches("worker.crash", "ex2[d1K1]", "3fab", "diff", 0)
        assert not rule.matches("worker.crash", "ex2[d2K1]", "9f00", "diff", 0)
        assert not rule.matches("worker.crash", "ex2[d2K1]", "3fab", "bound", 0)
        # A rung name matches itself verbatim, although fnmatch alone
        # reads its brackets as a character set.
        verbatim = FaultRule(site="job.delay", name="nested[d2K2:exact-warm]")
        assert verbatim.matches("job.delay", "nested[d2K2:exact-warm]",
                                "3fab", "diff", 0)
        assert not verbatim.matches("job.delay", "nested[d2K2:scipy]",
                                    "3fab", "diff", 0)

    def test_max_attempts_gates_retries_through(self):
        once = FaultRule(site="job.error", max_attempts=1)
        assert once.matches("job.error", "x", "k", "diff", 0)
        assert not once.matches("job.error", "x", "k", "diff", 1)
        always = FaultRule(site="job.error", max_attempts=0)
        assert always.matches("job.error", "x", "k", "diff", 5)

    def test_times_budget_is_per_plan(self):
        plan = FaultPlan(rules=(FaultRule(site="job.delay", times=2,
                                          max_attempts=0),))
        assert plan.match("job.delay") is not None
        assert plan.match("job.delay") is not None
        assert plan.match("job.delay") is None
        assert plan.fired() == 2

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(rules=(
            FaultRule(site="job.delay", name="a*", seconds=1.0),
            FaultRule(site="job.delay", seconds=2.0),
        ))
        assert plan.match("job.delay", name="alpha").seconds == 1.0
        assert plan.match("job.delay", name="beta").seconds == 2.0

    def test_corruption_bytes_are_seeded_and_keyed(self):
        plan = FaultPlan(seed=2022)
        assert plan.corruption_bytes("k1") == plan.corruption_bytes("k1")
        assert plan.corruption_bytes("k1") != plan.corruption_bytes("k2")
        assert FaultPlan(seed=1).corruption_bytes("k1") \
            != plan.corruption_bytes("k1")


class TestRetryClassification:
    def test_backoff_is_bounded_exponential(self):
        assert [retry_backoff(n) for n in range(5)] \
            == [0.0, 0.05, 0.1, 0.2, 0.4]
        assert retry_backoff(50) == RETRY_BACKOFF_CAP

    def test_transient_failures_are_retryable(self):
        for error_type in ("BrokenWorker", "WorkerHung", "OSError",
                           "InjectedFaultError"):
            result = JobResult(job_key="k", name="j", kind="diff",
                               status="error", error_type=error_type)
            assert is_retryable(result), error_type
        timeout = JobResult(job_key="k", name="j", kind="diff",
                            status="timeout", error_type="JobTimeoutError")
        assert is_retryable(timeout)

    def test_deterministic_failures_are_not(self):
        for error_type in ("AnalysisError", "ParseError", "ValueError"):
            result = JobResult(job_key="k", name="j", kind="diff",
                               status="error", error_type=error_type)
            assert not is_retryable(result), error_type
        assert not is_retryable(JobResult(job_key="k", name="j", kind="diff", status="ok"))


class TestInlineRetry:
    def test_transient_fault_is_retried_to_success(self):
        set_plan(FaultPlan(rules=(
            FaultRule(site="job.error", max_attempts=1),
        )))
        executor = ParallelExecutor(jobs=1, max_retries=2)
        result = executor.run([make_job()])[0]
        assert result.status == "ok"
        assert result.threshold == 10.0
        assert result.attempts == 1
        assert executor.stats.retries == 1
        # The swallowed attempt never reached the error counters.
        assert executor.stats.errors == 0
        assert executor.stats.completed == 1

    def test_retry_budget_exhausts_into_the_original_failure(self):
        set_plan(FaultPlan(rules=(
            FaultRule(site="job.error", max_attempts=0),  # every attempt
        )))
        executor = ParallelExecutor(jobs=1, max_retries=2)
        result = executor.run([make_job()])[0]
        assert result.status == "error"
        assert result.error_type == "InjectedFaultError"
        assert result.attempts == 2
        assert executor.stats.retries == 2
        assert executor.stats.errors == 1

    def test_max_retries_zero_disables_the_layer(self):
        set_plan(FaultPlan(rules=(
            FaultRule(site="job.error", max_attempts=1),
        )))
        executor = ParallelExecutor(jobs=1, max_retries=0)
        result = executor.run([make_job()])[0]
        assert result.status == "error"
        assert result.error_type == "InjectedFaultError"
        assert executor.stats.retries == 0

    def test_deterministic_error_fails_fast_with_original_failure(self):
        # ISSUE 8 acceptance: a non-retryable analysis error must not
        # burn retries — the structured failure surfaces unchanged even
        # with a fault plan active.
        set_plan(FaultPlan(rules=(
            FaultRule(site="job.delay", name="no-such-job", seconds=0.0),
        )))
        executor = ParallelExecutor(jobs=1, max_retries=3)
        result = executor.run([make_job(old_source="proc broken( {")])[0]
        assert result.status == "error"
        assert result.error_type not in (None, "InjectedFaultError")
        assert not is_retryable(result)
        assert result.attempts == 0
        assert executor.stats.retries == 0
        assert executor.stats.errors == 1

    def test_job_delay_only_slows_the_job(self):
        set_plan(FaultPlan(rules=(
            FaultRule(site="job.delay", seconds=0.2, max_attempts=1),
        )))
        executor = ParallelExecutor(jobs=1)
        start = time.perf_counter()
        result = executor.run([make_job()])[0]
        assert time.perf_counter() - start >= 0.2
        assert result.status == "ok"
        assert result.attempts == 0
        assert executor.stats.retries == 0


class TestPoolSupervision:
    def test_worker_crash_is_respawned_and_retried(self, tmp_path,
                                                   monkeypatch):
        # The delay keeps "steady"'s worker busy until "crashy"'s retry
        # is dispatched, so the retry can only run on a *respawned*
        # worker, not on steady's idle one.
        env_plan(monkeypatch, tmp_path, {"rules": [
            {"site": "worker.crash", "name": "crashy", "max_attempts": 1},
            {"site": "job.delay", "name": "steady", "seconds": 2.0,
             "max_attempts": 0},
        ]})
        with ParallelExecutor(jobs=2, max_retries=2) as executor:
            results = executor.run([bounded_job("crashy", 4),
                                    bounded_job("steady", 6)])
            assert [r.status for r in results] == ["ok", "ok"]
            assert results[0].attempts == 1
            assert results[1].attempts == 0
            assert executor.stats.retries == 1
            assert executor.stats.errors == 0
            health = executor.pool_health()
        assert health["crashed"] >= 1
        assert health["respawned"] >= 1
        assert health["quarantined"] == 0

    def test_hung_worker_is_killed_and_job_retried(self, tmp_path,
                                                   monkeypatch):
        # The delay keeps "fine"'s worker busy past the hang kill, so
        # the retry of "wedged" can only run on a *respawned* worker —
        # deterministic whatever the machine speed or cache warmth.
        env_plan(monkeypatch, tmp_path, {"rules": [
            {"site": "worker.hang", "name": "wedged", "seconds": 30.0,
             "max_attempts": 1},
            {"site": "job.delay", "name": "fine", "seconds": 2.0,
             "max_attempts": 0},
        ]})
        with ParallelExecutor(jobs=2, max_retries=2,
                              hang_timeout=0.5) as executor:
            results = executor.run([bounded_job("wedged", 4),
                                    bounded_job("fine", 6)])
            assert [r.status for r in results] == ["ok", "ok"]
            assert results[0].attempts == 1
            assert executor.stats.retries == 1
            health = executor.pool_health()
        assert health["hung"] >= 1
        assert health["respawned"] >= 1

    def test_crash_loop_quarantines_a_slot(self, tmp_path, monkeypatch):
        env_plan(monkeypatch, tmp_path, {"rules": [
            {"site": "worker.crash", "max_attempts": 0},  # every attempt
        ]})
        with ParallelExecutor(jobs=2, max_retries=1,
                              quarantine_after=2) as executor:
            results = executor.run([bounded_job("a", 4),
                                    bounded_job("b", 6),
                                    bounded_job("c", 8)])
            assert all(r.status == "error" for r in results)
            assert all(r.error_type == "BrokenWorker" for r in results)
            assert all(r.attempts == 1 for r in results)
            health = executor.pool_health()
        # Capacity degraded but never to zero: one slot parked, one kept.
        assert health["quarantined"] == 1
        assert health["crashed"] >= 2


class TestCacheCorruptionTolerance:
    def test_torn_write_quarantined_and_reexecuted(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="cache.torn_write", times=1, max_attempts=0),
        ))
        set_plan(plan)
        cache = ResultCache(tmp_path / "cache")
        executor = ParallelExecutor(jobs=1, cache=cache)
        first = executor.run([make_job()])[0]
        assert first.status == "ok"
        assert plan.fired() == 1  # the stored entry really was torn

        second = executor.run([make_job()])[0]
        assert second.status == "ok"
        assert not second.cached  # corruption costs one re-execution
        assert second.threshold == first.threshold
        assert cache.corrupted == 1
        corpses = list((tmp_path / "cache").glob("*.corrupt"))
        assert len(corpses) == 1

        third = executor.run([make_job()])[0]
        assert third.cached  # the rewrite (fault budget spent) is clean

    def test_seeded_garbage_is_a_miss_not_a_crash(self, tmp_path):
        plan = FaultPlan(seed=2022, rules=(
            FaultRule(site="cache.corrupt", mode="garbage", times=1,
                      max_attempts=0),
        ))
        set_plan(plan)
        cache = ResultCache(tmp_path / "cache")
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.run([make_job()])
        result = executor.run([make_job()])[0]
        assert result.status == "ok" and not result.cached
        assert cache.corrupted == 1

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.run([make_job()])
        key = make_job().key
        entry = read_entry(directory, key)
        entry["result"]["threshold"] = 999.0  # bit rot, checksum stale
        write_entry(directory, key, entry)
        assert cache.get(key) is None
        assert cache.corrupted == 1
        assert (directory / f"{key}.corrupt").exists()
        assert entry_bytes(directory, key) is None

    def test_legacy_entry_without_checksum_is_plain_miss(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.run([make_job()])
        key = make_job().key
        entry = read_entry(directory, key)
        del entry["checksum"]
        write_entry(directory, key, entry)
        assert cache.get(key) is None
        assert cache.corrupted == 0  # unverifiable, not corrupt
        # Left in place for the rewriting store.
        assert entry_bytes(directory, key) is not None
        # The next run re-executes and rewrites a verifiable entry.
        result = executor.run([make_job()])[0]
        assert not result.cached
        assert "checksum" in read_entry(directory, key)
        assert executor.run([make_job()])[0].cached

    def test_merge_skips_corrupt_source_entries(self, tmp_path):
        source_dir = tmp_path / "source"
        source = ResultCache(source_dir)
        ParallelExecutor(jobs=1, cache=source).run([make_job()])
        key = make_job().key
        entry = read_entry(source_dir, key)
        entry["result"]["threshold"] = 999.0
        write_entry(source_dir, key, entry)
        write_entry_bytes(source_dir, "nonsense", b"}{")
        destination = ResultCache(tmp_path / "destination")
        assert destination.merge_from(tmp_path / "source") == 0
        assert len(destination) == 0
        assert destination.merge_skipped == 2


class TestWarmTierFaults:
    """The store behind the hot tier under the same chaos sites: a torn
    or scribbled entry costs one re-execution, and a compaction killed
    partway through its ``VACUUM`` never loses a verified entry — the
    interrupted transaction simply never commits."""

    def test_compaction_crash_never_loses_a_verified_entry(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        executor = ParallelExecutor(jobs=1, cache=cache)
        first = executor.run([make_job()])[0]
        assert first.status == "ok"
        assert executor.run([make_job()])[0].cached  # disk-verified

        pid = os.fork()
        if pid == 0:  # a compactor that dies halfway through
            try:
                dying = ResultCache(directory)
                steps = iter(range(150))  # a VACUUM here takes ~300

                def crash_partway():
                    if next(steps, None) is None:
                        os._exit(7)
                    return 0

                dying._db().set_progress_handler(crash_partway, 1)
                dying.compact()
            finally:
                os._exit(0)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 7

        # Nothing was lost: a fresh handle (cold hot tier) still
        # replays the verified entry.
        fresh = ResultCache(directory)
        replay = fresh.get(make_job().key)
        assert replay is not None
        assert replay.threshold == first.threshold

        # The retried compaction completes, and the entry survives it.
        assert cache.compact()["kept"] == 1
        assert ResultCache(directory).get(make_job().key) is not None
        assert integrity(directory) == "ok"

    def test_warm_torn_write_costs_one_reexecution(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="cache.torn_write", times=1, max_attempts=0),
        ))
        set_plan(plan)
        cache = ResultCache(tmp_path / "cache")
        executor = ParallelExecutor(jobs=1, cache=cache)
        first = executor.run([make_job()])[0]
        assert first.status == "ok"
        assert plan.fired() == 1  # the stored entry really was torn

        second = executor.run([make_job()])[0]
        assert second.status == "ok"
        assert not second.cached  # the torn record never replays
        assert second.threshold == first.threshold

        third = executor.run([make_job()])[0]
        assert third.cached  # the rewrite (fault budget spent) is clean

    def test_warm_seeded_garbage_is_quarantined_with_a_corpse(
            self, tmp_path):
        plan = FaultPlan(seed=2022, rules=(
            FaultRule(site="cache.corrupt", mode="garbage", times=1,
                      max_attempts=0),
        ))
        set_plan(plan)
        cache = ResultCache(tmp_path / "cache")
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.run([make_job()])
        result = executor.run([make_job()])[0]
        assert result.status == "ok" and not result.cached
        assert cache.corrupted == 1
        corpses = list((tmp_path / "cache").glob("*.corrupt"))
        assert len(corpses) == 1  # bit-rot evidence kept for post-mortems
        assert executor.run([make_job()])[0].cached


class TestChaosSoak:
    """The end-to-end invariant: a seeded plan injecting four fault
    kinds (worker crash, transient job error, job delay, torn cache
    write) must not change one canonical report byte."""

    PAIRS = (("alpha", 4), ("beta", 5), ("gamma", 6), ("delta", 7))

    def _write_batch(self, directory):
        directory.mkdir()
        for name, bound in self.PAIRS:
            old = OLD.replace("n <= 10", f"n <= {bound}")
            (directory / f"{name}_old.imp").write_text(old)
            (directory / f"{name}_new.imp").write_text(
                old.replace("tick(1)", "tick(2)"))

    def test_chaos_run_is_byte_identical_to_fault_free(self, tmp_path,
                                                       monkeypatch):
        batch_dir = tmp_path / "batch"
        self._write_batch(batch_dir)

        baseline = run_batch(batch_dir, config=FAST,
                             engine=EngineConfig(jobs=1, cache_dir=None))
        assert baseline.ok
        baseline_bytes = canonical_json(
            json.loads(batch_to_json(baseline)))

        env_plan(monkeypatch, tmp_path, {"seed": 2022, "rules": [
            {"site": "worker.crash", "name": "alpha", "max_attempts": 1,
             "note": "kill alpha's first attempt"},
            {"site": "job.error", "name": "beta", "max_attempts": 1},
            {"site": "job.delay", "name": "gamma", "seconds": 0.05,
             "max_attempts": 1},
            {"site": "cache.torn_write", "name": "delta", "times": 1},
        ]})
        cache_dir = tmp_path / "chaos-cache"
        chaos = run_batch(batch_dir, config=FAST,
                          engine=EngineConfig(jobs=2,
                                              cache_dir=str(cache_dir)))
        assert chaos.ok and not chaos.partial
        # The crash and the injected error were both swallowed by the
        # retry layer in the parent.
        assert chaos.stats.retries >= 2
        assert chaos.stats.errors == 0
        assert canonical_json(json.loads(batch_to_json(chaos))) \
            == baseline_bytes

        # Healing pass over the chewed cache: delta's torn entry is
        # quarantined and re-executed, everything else replays — and
        # the bytes still match.
        healed = run_batch(batch_dir, config=FAST,
                           engine=EngineConfig(jobs=1,
                                               cache_dir=str(cache_dir)))
        assert healed.ok
        assert healed.stats.cache_hits == 3
        assert canonical_json(json.loads(batch_to_json(healed))) \
            == baseline_bytes
        assert len(list(cache_dir.glob("*.corrupt"))) == 1


class TestClusterFaultSites:
    """The PR-9 network/partition sites and the named-rule plan errors."""

    def test_network_sites_are_valid_rules(self):
        for site in ("net.refused", "net.reset", "net.slow",
                     "net.truncated_body", "node.partition"):
            rule = FaultRule(site=site, name="*/analyze")
            assert rule.matches(site, "http://h:1/analyze", "", "", 0)

    def test_unknown_site_error_names_the_rule_and_lists_the_sites(self):
        with pytest.raises(FaultPlanError) as error:
            FaultPlan.from_dict({"seed": 1, "rules": [
                {"site": "net.refused", "name": "*/analyze"},
                {"site": "net.fried", "note": "cut the uplink"},
            ]})
        message = str(error.value)
        # The offender is named by position and note, so a dozen-rule
        # chaos plan fails with a pointer instead of a shrug...
        assert "rule #1 ('cut the uplink')" in message
        assert "'net.fried'" in message
        # ...and the full site menu (old and new) rides along.
        for site in ("worker.crash", "server.drop", "net.refused",
                     "net.truncated_body", "node.partition"):
            assert site in message

    def test_rule_without_note_falls_back_to_name_then_site(self):
        with pytest.raises(FaultPlanError, match=r"rule #0 \('\*/analyze'\)"):
            FaultPlan.from_dict({"rules": [
                {"site": "net.slow", "name": "*/analyze", "seconds": -1},
            ]})
        with pytest.raises(FaultPlanError, match=r"rule #0 \('net.slow'\)"):
            FaultPlan.from_dict({"rules": [
                {"site": "net.slow", "times": 0},
            ]})

    def test_committed_cluster_chaos_plan_loads(self):
        # The plan the cluster-chaos-smoke CI job injects must stay
        # loadable, seeded, and bounded to self-healing transients.
        plan_path = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "examples", "cluster_chaos_plan.json")
        plan = load_plan(plan_path)
        assert plan.seed == 2022
        assert all(rule.site.startswith("net.") for rule in plan.rules)
        assert all(rule.max_attempts == 1 for rule in plan.rules)
