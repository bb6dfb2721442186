"""Concurrency soak test for the result cache's multi-writer paths.

Shard runs and the serving front-end point many *processes* at one
cache directory, so the invariant under test is: concurrent ``put`` and
``merge_from`` traffic over overlapping key sets never corrupts an
entry (every stored row always parses and round-trips) and never drops
one (every key written by anyone is present at the end).  Every write
is one SQLite transaction, and a compactor (``VACUUM``) and an evictor
hammering the store *while* writers commit must never lose a verified
entry either — nor may any writer or merger fail with "database is
locked".
"""

import multiprocessing
import random

from cache_rows import integrity, read_entry, stored_keys
from repro.config import AnalysisConfig
from repro.engine.cache import DB_NAME, ResultCache
from repro.engine.jobs import AnalysisJob, JobResult

#: Distinct jobs in the shared key population.  Writers overlap fully:
#: every process writes every key, repeatedly, in its own order.
KEYS = 60
ROUNDS = 4
WRITERS = 2


def _job(index: int) -> AnalysisJob:
    source = (
        "proc p(n) {\n"
        f"  assume(1 <= n && n <= {index + 2});\n"
        "  var i = 0;\n"
        "  while (i < n) { tick(1); i = i + 1; }\n"
        "}\n"
    )
    return AnalysisJob(kind="single", old_source=source,
                       config=AnalysisConfig(), name=f"soak{index}")


def _result(job: AnalysisJob, index: int) -> JobResult:
    return JobResult(
        job_key=job.key,
        name=job.name,
        kind=job.kind,
        status="ok",
        outcome="bounded",
        threshold=float(index),
        threshold_str=str(index),
        message=f"soak entry {index}",
        seconds=0.001 * index,
    )


def _writer(directory: str, seed: int) -> None:
    cache = ResultCache(directory)
    rng = random.Random(seed)
    for _round in range(ROUNDS):
        order = list(range(KEYS))
        rng.shuffle(order)
        for index in order:
            job = _job(index)
            assert cache.put(job, _result(job, index))


def _merger(destination: str, source: str) -> None:
    cache = ResultCache(destination)
    for _round in range(ROUNDS * 2):
        cache.merge_from(source)


def _run_processes(targets):
    context = multiprocessing.get_context()
    processes = [context.Process(target=target, args=args)
                 for target, args in targets]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0, process
    return processes


def _assert_cache_intact(directory) -> None:
    """Every expected key present, every row parses, every entry
    round-trips into the result that some writer legitimately wrote."""
    cache = ResultCache(directory)
    expected = {_job(index).key: index for index in range(KEYS)}
    on_disk = stored_keys(directory)
    assert len(on_disk) == KEYS
    for key in on_disk:
        entry = read_entry(directory, key)  # corrupt JSON would raise
        index = expected[key]
        result = cache.get(key)
        assert result is not None, "a stored entry must read back"
        assert result.threshold == float(index)
        assert result.threshold_str == str(index)
        assert entry["result"]["message"] == f"soak entry {index}"
    assert cache.hits == KEYS and cache.misses == 0
    assert integrity(directory) == "ok"


class TestMultiWriterSoak:
    def test_concurrent_overlapping_writers(self, tmp_path):
        directory = tmp_path / "cache"
        _run_processes([
            (_writer, (str(directory), seed)) for seed in range(WRITERS)
        ])
        _assert_cache_intact(directory)

    def test_concurrent_writer_and_merger(self, tmp_path):
        """A merge folding a populated shard cache into a destination
        that a live writer is simultaneously filling."""
        source = tmp_path / "shard-cache"
        _writer(str(source), seed=7)  # pre-populate the shard
        destination = tmp_path / "merged"
        _run_processes([
            (_writer, (str(destination), 11)),
            (_merger, (str(destination), str(source))),
        ])
        _assert_cache_intact(destination)
        # The merge source is untouched.
        _assert_cache_intact(source)

    def test_concurrent_mergers(self, tmp_path):
        """Two processes merging overlapping sources into one
        destination: union survives, nothing tears."""
        source_a = tmp_path / "a"
        source_b = tmp_path / "b"
        _writer(str(source_a), seed=1)
        _writer(str(source_b), seed=2)
        destination = tmp_path / "merged"
        _run_processes([
            (_merger, (str(destination), str(source_a))),
            (_merger, (str(destination), str(source_b))),
        ])
        _assert_cache_intact(destination)

    def test_no_stray_temp_files_left(self, tmp_path):
        directory = tmp_path / "cache"
        _run_processes([
            (_writer, (str(directory), seed)) for seed in range(WRITERS)
        ])
        # Writers leave nothing beside the store (its -wal/-shm at most).
        strays = [p.name for p in directory.iterdir()
                  if not p.name.startswith(DB_NAME)]
        assert strays == []


# -- maintenance under the same fire ------------------------------------------


def _warm_writer(directory: str, seed: int) -> None:
    # hot_capacity=0: this process must re-verify from the store every
    # time, so it observes every compaction/eviction.
    cache = ResultCache(directory, hot_capacity=0)
    rng = random.Random(seed)
    for _round in range(ROUNDS):
        order = list(range(KEYS))
        rng.shuffle(order)
        for index in order:
            job = _job(index)
            assert cache.put(job, _result(job, index))


def _warm_compactor(directory: str, rounds: int) -> None:
    cache = ResultCache(directory, hot_capacity=0)
    for _round in range(rounds):
        summary = cache.compact()
        assert summary["kept"] <= KEYS, summary


def _warm_merger(destination: str, source: str) -> None:
    cache = ResultCache(destination, hot_capacity=0)
    for _round in range(ROUNDS * 2):
        cache.merge_from(source)


def _warm_evictor(directory: str, rounds: int) -> None:
    cache = ResultCache(directory, hot_capacity=0)
    for _round in range(rounds):
        # A one-hour bound can never fire inside a test run: the
        # eviction machinery (a DELETE pass) runs, nothing may drop.
        assert cache.evict(max_age_s=3600.0) == 0


def _assert_warm_cache_intact(directory) -> None:
    cache = ResultCache(directory)
    assert len(cache) == KEYS
    for index in range(KEYS):
        result = cache.get(_job(index).key)
        assert result is not None, f"entry {index} lost"
        assert result.threshold == float(index)
        assert result.threshold_str == str(index)
    assert cache.hits == KEYS and cache.misses == 0
    assert cache.corrupted == 0
    assert list(directory.glob("*.corrupt")) == []
    assert integrity(directory) == "ok"


class TestWarmTierSoak:
    def test_concurrent_writers_compactor_and_evictor(self, tmp_path):
        """Stores, compactions and eviction passes interleaving freely
        over one store never tear or drop a verified entry."""
        directory = tmp_path / "warm-cache"
        _run_processes(
            [(_warm_writer, (str(directory), seed))
             for seed in range(WRITERS)]
            + [(_warm_compactor, (str(directory), ROUNDS * 2)),
               (_warm_evictor, (str(directory), ROUNDS * 2))]
        )
        _assert_warm_cache_intact(directory)
        # A final compaction squeezes out every free page and the full
        # population still reads back.
        final = ResultCache(directory)
        summary = final.compact()
        assert summary["kept"] == KEYS
        _assert_warm_cache_intact(directory)

    def test_concurrent_warm_writer_and_merger(self, tmp_path):
        source = tmp_path / "shard-cache"
        _warm_writer(str(source), seed=7)
        destination = tmp_path / "merged"
        _run_processes([
            (_warm_writer, (str(destination), 11)),
            (_warm_merger, (str(destination), str(source))),
        ])
        _assert_warm_cache_intact(destination)
        _assert_warm_cache_intact(source)  # merge sources are read-only
