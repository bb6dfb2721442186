"""The result cache: hot LRU, the SQLite store, maintenance, the
process/thread model, and the cache-correctness bugfix regressions.

The invariants under test, per tier:

- **hot**: populated only by a disk-verified read, bounded LRU, repeat
  lookups never touch disk again;
- **store**: one SQLite table (the warm tier behind the hot LRU); a
  reopen needs no per-entry files, compaction and age-bounded eviction
  never lose a live verified entry, a crash mid-commit costs only the
  unfinished write;
- **facade**: ``merge_from`` copies only entries ``get`` would trust,
  reads only a store and never writes its source, transient read
  errors are plain misses (never
  quarantine), quarantine files age out and are visible in ``stats()``,
  and one handle survives ``fork`` and concurrent threads.
"""

import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.engine.cache as cache_module
from cache_rows import (
    delete_row,
    entry_bytes,
    integrity,
    read_entry,
    set_ts,
    stored_keys,
    write_entry,
    write_entry_bytes,
    write_legacy,
)
from repro.config import AnalysisConfig
from repro.engine.cache import (
    DB_NAME,
    DEFAULT_HOT_CAPACITY,
    ResultCache,
    build_entry,
)
from repro.engine.cache.hot import HotTier
from repro.engine.jobs import AnalysisJob, JobResult
from repro.errors import AnalysisError
from test_serve import _synthetic_shard

SRC = Path(__file__).resolve().parent.parent / "src"


def job(index: int) -> AnalysisJob:
    source = (
        "proc p(n) {\n"
        f"  assume(1 <= n && n <= {index + 2});\n"
        "  var i = 0;\n"
        "  while (i < n) { tick(1); i = i + 1; }\n"
        "}\n"
    )
    return AnalysisJob(kind="single", old_source=source,
                       config=AnalysisConfig(), name=f"tier{index}")


def result(the_job: AnalysisJob, index: int) -> JobResult:
    return JobResult(
        job_key=the_job.key,
        name=the_job.name,
        kind=the_job.kind,
        status="ok",
        outcome="bounded",
        threshold=float(index),
        threshold_str=str(index),
        message=f"tier entry {index}",
        seconds=0.25,
    )


def fill(cache: ResultCache, count: int, start: int = 0) -> list[str]:
    keys = []
    for index in range(start, start + count):
        the_job = job(index)
        assert cache.put(the_job, result(the_job, index))
        keys.append(the_job.key)
    return keys


def legacy_entry(index: int) -> tuple[str, dict]:
    the_job = job(index)
    return the_job.key, build_entry(the_job, result(the_job, index))


def store_bytes(directory) -> int:
    return sum(path.stat().st_size
               for path in Path(directory).glob(DB_NAME + "*"))


class TestHotTier:
    def test_repeat_lookup_skips_disk_entirely(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        [key] = fill(cache, 1)
        first = cache.get(key)
        assert first is not None and first.cached
        # Remove the row out from under the handle: only a pure
        # in-process hit can answer now.
        delete_row(tmp_path / "cache", key)
        second = cache.get(key)
        assert second is not None
        assert second.threshold == first.threshold
        assert cache.hot.hits == 1
        assert cache.hits == 2

    def test_store_does_not_prime_the_hot_tier(self, tmp_path):
        # Only a verified read vouches for an entry: the bytes stored by
        # put() may be damaged behind our back (torn writes).
        cache = ResultCache(tmp_path / "cache")
        fill(cache, 3)
        assert len(cache.hot) == 0

    def test_lru_eviction_is_bounded_and_orders_by_recency(self):
        hot = HotTier(capacity=2)
        hot.put("a", {"x": 1})
        hot.put("b", {"x": 2})
        assert hot.get("a") == {"x": 1}  # refresh a
        hot.put("c", {"x": 3})  # evicts b, the least recently used
        assert hot.get("b") is None
        assert hot.get("a") is not None
        assert hot.get("c") is not None
        assert hot.evictions == 1
        assert len(hot) == 2

    def test_zero_capacity_disables_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", hot_capacity=0)
        [key] = fill(cache, 1)
        assert cache.get(key) is not None
        assert cache.get(key) is not None
        assert len(cache.hot) == 0 and cache.hot.hits == 0

    def test_default_capacity_is_sane(self):
        assert DEFAULT_HOT_CAPACITY >= 64


class TestWarmStore:
    """The SQLite store: the warm tier behind the hot LRU."""

    def test_round_trip_and_reopen(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = fill(cache, 5)
        for index, key in enumerate(keys):
            got = cache.get(key)
            assert got is not None
            assert got.threshold == float(index)
        reopened = ResultCache(tmp_path / "cache")
        assert len(reopened) == 5
        assert reopened.get(keys[3]).threshold == 3.0

    def test_reopen_does_no_per_entry_directory_scan(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fill(cache, 8)
        reopened = ResultCache(tmp_path / "cache")
        assert reopened.stats()["entries"] == 8
        # Every entry lives in the one store: there are no per-entry
        # files for an open, len() or stats() to walk.
        assert [path.name for path in (tmp_path / "cache").iterdir()
                if not path.name.startswith(DB_NAME)] == []

    def test_compaction_drops_superseded_records_keeps_answers(
            self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        keys = fill(cache, 40)
        # Rewrite every key once (the replacing store), then drop most.
        fill(cache, 40)
        for key in keys[:30]:
            delete_row(directory, key)
        before = store_bytes(directory)
        summary = cache.compact()
        assert summary["kept"] == 10
        assert store_bytes(directory) < before
        assert cache.get(keys[0]) is None
        for index in range(30, 40):
            assert cache.get(keys[index]).threshold == float(index)
        assert integrity(directory) == "ok"

    def test_compaction_is_visible_to_a_second_handle(self, tmp_path):
        writer = ResultCache(tmp_path / "cache")
        reader = ResultCache(tmp_path / "cache", hot_capacity=0)
        keys = fill(writer, 3)
        assert reader.get(keys[0]) is not None
        writer.compact()
        for index, key in enumerate(keys):
            assert reader.get(key).threshold == float(index)

    def test_eviction_is_age_bounded(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        now = time.time()
        old_key, fresh_key = fill(cache, 2)
        set_ts(directory, old_key, now - 3600)
        set_ts(directory, fresh_key, now)
        assert cache.evict(max_age_s=600, now=now) == 1
        assert cache.get(old_key) is None
        assert cache.get(fresh_key) is not None
        assert cache.stats()["evicted"] == 1

    def test_torn_log_tail_is_healed_not_fatal(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        keys = fill(cache, 2)
        cache.close()  # the last connection checkpoints: keys are home
        pid = os.fork()
        if pid == 0:  # a writer that dies without closing its store
            try:
                fill(ResultCache(directory), 1, start=2)
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        wal = directory / f"{DB_NAME}-wal"
        data = wal.read_bytes()
        assert data, "the dead writer's commit must still be in the log"
        wal.write_bytes(data[:-10])  # a crash mid-write tears the tail
        reopened = ResultCache(directory)
        # The torn commit is lost (it never finished), every commit
        # before it survives, and new stores still work.
        assert reopened.get(keys[0]).threshold == 0.0
        assert reopened.get(keys[1]).threshold == 1.0
        assert reopened.get(job(2).key) is None
        [key] = fill(reopened, 1, start=9)
        assert reopened.get(key) is not None
        assert integrity(directory) == "ok"

    def test_clear_empties_the_log(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fill(cache, 3)
        assert cache.clear() == 3
        assert len(cache) == 0
        assert ResultCache(tmp_path / "cache").stats()["entries"] == 0

    def test_put_replaces_a_stale_row(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        [key] = fill(cache, 1)
        entry = read_entry(directory, key)
        entry["version"] = 99  # written by another schema version
        write_entry(directory, key, entry)
        assert cache.get(key) is None  # a plain miss ...
        assert cache.corrupted == 0
        assert entry_bytes(directory, key) is not None  # ... row kept
        fill(cache, 1)
        assert cache.get(key).threshold == 0.0

    def test_a_file_that_is_not_sqlite_is_refused_by_name(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / DB_NAME).write_bytes(b"not a database " * 100)
        with pytest.raises(AnalysisError, match=DB_NAME):
            ResultCache(directory)


class TestMergeTrust:
    def test_merge_skips_stale_legacy_entries(self, tmp_path):
        """Regression: ``merge_from`` used to copy checksum-less and
        version-mismatched entries that ``get`` would never replay —
        dead weight spread shard to shard, forever re-skipped."""
        source_dir = tmp_path / "source"
        keys = fill(ResultCache(source_dir), 3)
        # keys[0] loses its checksum (pre-checksum legacy format);
        # keys[1] claims a future schema version.
        for key, damage in ((keys[0], "checksum"), (keys[1], "version")):
            entry = read_entry(source_dir, key)
            if damage == "checksum":
                del entry["checksum"]
            else:
                entry["version"] = 99
            write_entry(source_dir, key, entry)
        destination = ResultCache(tmp_path / "destination")
        assert destination.merge_from(source_dir) == 1
        assert destination.merge_skipped == 2
        assert len(destination) == 1
        assert destination.get(keys[2]) is not None

    def test_merge_reads_a_store_and_refuses_a_storeless_directory(
            self, tmp_path):
        store_keys = fill(ResultCache(tmp_path / "store-source"), 2)
        # Entry files without a store (the layout before it) are not a
        # cache: the merge names the source and copies nothing.
        legacy_key, entry = legacy_entry(7)
        write_legacy(tmp_path / "legacy-source", legacy_key, entry)
        destination = ResultCache(tmp_path / "destination")
        assert destination.merge_from(tmp_path / "store-source") == 2
        with pytest.raises(AnalysisError, match="legacy-source"):
            destination.merge_from(tmp_path / "legacy-source")
        for key in store_keys:
            assert destination.get(key) is not None
        assert destination.get(legacy_key) is None
        assert len(ResultCache(tmp_path / "store-source")) == 2
        assert not (tmp_path / "legacy-source" / DB_NAME).exists()

    def test_merge_is_first_writer_wins(self, tmp_path):
        fill(ResultCache(tmp_path / "a"), 2)
        fill(ResultCache(tmp_path / "b"), 2)
        destination = ResultCache(tmp_path / "dest")
        assert destination.merge_from(tmp_path / "a") == 2
        assert destination.merge_from(tmp_path / "b") == 0  # all present
        assert len(destination) == 2

    def test_merge_source_is_read_only_and_complete(self, tmp_path):
        source_dir = tmp_path / "source"
        source = ResultCache(source_dir)
        keys = fill(source, 3)
        source.close()
        before = (source_dir / DB_NAME).read_bytes()
        destination = ResultCache(tmp_path / "destination")
        assert destination.merge_from(source_dir) == 3
        assert sorted(stored_keys(tmp_path / "destination")) == sorted(keys)
        assert (source_dir / DB_NAME).read_bytes() == before

    def test_missing_source_raises_and_creates_nothing(self, tmp_path):
        """Regression: a mistyped source merged nothing and still
        reported success."""
        destination = ResultCache(tmp_path / "destination")
        with pytest.raises(AnalysisError, match="typo"):
            destination.merge_from(tmp_path / "typo")
        assert not (tmp_path / "typo").exists()


class TestTransientIOErrors:
    def test_oserror_is_a_plain_miss_and_entry_survives(self, tmp_path,
                                                        monkeypatch):
        """Regression: ``get`` used to lump EACCES/EMFILE/NFS hiccups
        with decode failures and quarantine perfectly healthy entries —
        a transient error permanently cost the entry."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        [key] = fill(cache, 1)
        cache.close()

        def unavailable(path):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(cache_module, "_connect", unavailable)
        assert cache.get(key) is None  # a miss, not a crash
        monkeypatch.undo()
        assert cache.io_errors == 1
        assert cache.corrupted == 0
        assert entry_bytes(directory, key) is not None  # never quarantined
        assert not (directory / f"{key}.corrupt").exists()
        assert cache.get(key) is not None  # the next reader is luckier
        assert cache.stats()["io_errors"] == 1

    def test_decode_failure_still_quarantines(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        [key] = fill(cache, 1)
        write_entry_bytes(directory, key, b"}{ not json")
        assert cache.get(key) is None
        assert cache.corrupted == 1
        assert cache.io_errors == 0
        assert (directory / f"{key}.corrupt").read_bytes() == b"}{ not json"
        assert entry_bytes(directory, key) is None


class TestQuarantineLifecycle:
    def test_aged_corrupt_files_swept_fresh_kept(self, tmp_path):
        """Regression: ``.corrupt`` files accumulated forever and were
        invisible to ``stats()``."""
        directory = tmp_path / "cache"
        directory.mkdir()
        old = directory / "aaaa.corrupt"
        old.write_text("rotten")
        long_ago = time.time() - 30 * 24 * 3600
        os.utime(old, (long_ago, long_ago))
        fresh = directory / "bbbb.corrupt"
        fresh.write_text("fresh evidence")
        cache = ResultCache(directory)
        assert cache.corrupt_swept == 1
        assert not old.exists()
        assert fresh.exists()  # post-mortem evidence survives the sweep
        stats = cache.stats()
        assert stats["corrupt_swept"] == 1
        assert stats["corrupt_files"] == 1
        assert stats["total_bytes"] >= len("fresh evidence")

    def test_stats_schema_includes_quarantine_everywhere(self, tmp_path):
        empty = ResultCache.empty_stats()
        assert "corrupt_files" in empty and "corrupt_swept" in empty
        cache = ResultCache(tmp_path / "cache")
        assert set(cache.stats()) == set(empty)
        fill(cache, 1)
        assert set(cache.stats()) == set(empty)

    def test_warm_quarantine_writes_corpse_and_tombstones(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        [key] = fill(cache, 1)
        # Scribble over the stored bytes in place: bit rot in the store.
        garbage = b"x" * len(entry_bytes(directory, key))
        write_entry_bytes(directory, key, garbage)
        assert cache.get(key) is None
        assert cache.corrupted == 1
        assert (directory / f"{key}.corrupt").read_bytes() == garbage
        # The row is gone: the next lookup is a plain miss.
        assert cache.get(key) is None
        assert cache.corrupted == 1


class TestFederationPrimitives:
    def test_delta_since_apply_delta_round_trip(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        keys = fill(a, 3)
        watermark, records = a.delta_since(0.0)
        assert watermark > 0.0
        assert sorted(r["key"] for r in records) == sorted(keys)
        applied, skipped = b.apply_delta(records)
        assert (applied, skipped) == (3, 0)
        for index, key in enumerate(keys):
            assert b.get(key).threshold == float(index)
        # Idempotent: re-delivery applies nothing.
        assert b.apply_delta(records) == (0, 0)
        # Nothing newer than the watermark.
        _wm, newer = a.delta_since(watermark)
        assert newer == []

    def test_delta_never_ships_untrusted_entries(self, tmp_path):
        directory = tmp_path / "a"
        a = ResultCache(directory)
        keys = fill(a, 2)
        entry = read_entry(directory, keys[0])
        del entry["checksum"]
        write_entry(directory, keys[0], entry)
        _watermark, records = a.delta_since(0.0)
        assert [r["key"] for r in records] == [keys[1]]

    def test_apply_delta_rejects_unsafe_and_untrusted_records(
            self, tmp_path):
        b = ResultCache(tmp_path / "b")
        the_job = job(0)
        good = build_entry(the_job, result(the_job, 0))
        bad = dict(good, checksum="0" * 64)
        applied, skipped = b.apply_delta([
            {"key": "../../etc/passwd", "ts": 1.0, "entry": good},
            {"key": "", "ts": 1.0, "entry": good},
            {"key": "deadbeef", "ts": 1.0, "entry": bad},
            "not-a-record",
            {"key": the_job.key, "ts": 1.0, "entry": good},
        ])
        assert (applied, skipped) == (1, 4)
        assert b.get(the_job.key) is not None
        assert b.merge_skipped == 1  # only the checksum-failing record


class TestCacheCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_stats_compact_evict(self, tmp_path, capsys):
        directory = tmp_path / "cache"
        fill(ResultCache(directory), 3)
        delete_row(directory, job(0).key)

        code, out, _err = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(directory))
        assert code == 0
        stats = json.loads(out)
        assert stats["entries"] == 2
        assert stats["corrupt_files"] == 0

        code, out, _err = self.run_cli(
            capsys, "cache", "compact", "--cache-dir", str(directory))
        assert code == 0
        assert json.loads(out)["kept"] == 2

        code, out, _err = self.run_cli(
            capsys, "cache", "evict",
            "--cache-dir", str(directory), "--max-age-s", "0")
        assert code == 0
        assert "evicted 2 entries" in out

    def test_stats_on_a_missing_directory_fails_and_creates_nothing(
            self, tmp_path, capsys):
        """Regression: ``cache stats`` on a typo created the directory
        and printed zeros."""
        typo = tmp_path / "typo-dir"
        code, out, err = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(typo))
        assert code == 1
        assert str(typo) in err and out == ""
        assert not typo.exists()

    def test_negative_max_age_is_rejected(self, tmp_path, capsys):
        """Regression: ``--max-age-s -5`` evicted every entry (no age is
        <= -5)."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        fill(cache, 1)
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(capsys, "cache", "evict", "--cache-dir",
                         str(directory), "--max-age-s", "-5")
        assert exit_info.value.code == 2
        with pytest.raises(AnalysisError, match="-5"):
            cache.evict(max_age_s=-5)
        assert len(cache) == 1

    def test_merge_shards_with_a_missing_source_cache_fails(
            self, tmp_path, capsys):
        """Regression: a mistyped ``--source-caches`` entry printed
        ``merged 0 cache entries`` and exited 0."""
        report = tmp_path / "s0.json"
        report.write_text(json.dumps(_synthetic_shard(0, 1, ["alpha"])))
        typo = tmp_path / "c0-typo"
        code, _out, err = self.run_cli(
            capsys, "merge-shards", str(report), "--cache-dir",
            str(tmp_path / "dest"), "--source-caches", str(typo))
        assert code == 1
        assert str(typo) in err
        assert "merged" not in err
        assert not typo.exists()


#: A parent and a forked child sharing one handle, for the fork tests
#: (a script, so the child can also leave by a normal interpreter exit
#: instead of unwinding into the test runner).
_FORK_SCRIPT = '''
import os, sys
sys.path.insert(0, sys.argv[3])
import test_cache_tiers as t
from repro.engine.cache import ResultCache

cache = ResultCache(sys.argv[1])
t.fill(cache, 2)
pid = os.fork()
if pid == 0:
    assert cache.get(t.job(0).key).threshold == 0.0
    t.fill(cache, 2, start=2)
    assert cache.get(t.job(3).key).threshold == 3.0
    if sys.argv[2] == "os_exit":
        os._exit(0)
    sys.exit(0)  # normal exit: finalizers and atexit hooks run
t.fill(cache, 2, start=4)  # the parent writes while the child does
_, status = os.waitpid(pid, 0)
assert status == 0, status
t.fill(cache, 2, start=6)
for index in range(8):
    assert cache.get(t.job(index).key).threshold == float(index), index
'''


class TestProcessAndThreadModel:
    @pytest.mark.parametrize("child_exit", ["os_exit", "normal"])
    def test_fork_shares_the_handle_without_sharing_a_connection(
            self, tmp_path, child_exit):
        directory = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c", _FORK_SCRIPT, str(directory),
             child_exit, str(Path(__file__).parent)],
            env=env, check=True, timeout=120)
        assert integrity(directory) == "ok"
        fresh = ResultCache(directory, hot_capacity=0)
        assert len(fresh) == 8
        for index in range(8):
            assert fresh.get(job(index).key).threshold == float(index)

    def test_many_threads_share_one_handle(self, tmp_path):
        """Serve drives one handle from its engine bridge thread
        (get/put) and its event loop (stats, delta, merge)."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory, hot_capacity=4)
        threads_count = 2 * (os.cpu_count() or 2) + 2
        per_thread = 6
        peer = ResultCache(tmp_path / "peer")
        fill(peer, threads_count * per_thread)
        _wm, records = peer.delta_since(0.0)
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for step in range(per_thread):
                    index = offset * per_thread + step
                    [key] = fill(cache, 1, start=index)
                    assert cache.get(key).threshold == float(index)
                    cache.stats()
                    cache.delta_since(0.0)
                    cache.apply_delta(records[index::threads_count])
                    assert cache.get(key) is not None
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(threads_count)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 120
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        fresh = ResultCache(directory, hot_capacity=0)
        assert len(fresh) == threads_count * per_thread
        for index in range(threads_count * per_thread):
            assert fresh.get(job(index).key).threshold == float(index)
        assert integrity(directory) == "ok"
