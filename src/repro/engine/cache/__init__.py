"""Persistent result cache, keyed by content-addressed job hash.

Two tiers behind one :class:`ResultCache`: the in-process hot LRU of
verified payloads (:mod:`repro.engine.cache.hot`), and one SQLite table
in WAL mode, ``entries(key TEXT PRIMARY KEY, ts REAL, entry BLOB)`` in
``<cache-dir>/cache.sqlite3``, holding each entry's
:func:`~repro.engine.cache.entry.entry_json` bytes and write time.
SQLite gives atomic commits (no torn or interleaved records),
concurrent readers, O(1) open, ``len``/``stats``/``delta_since`` as
queries, eviction as one ``DELETE`` and compaction as ``VACUUM``.
``delta_since``/``apply_delta`` are the federation primitives
(:mod:`repro.engine.cache.federation`).

Trust never varies by path: lookup, merge and federation all apply
:func:`~repro.engine.cache.entry.classify_entry`.  A schema-version
mismatch or a pre-checksum entry is a plain miss (the next store
rewrites it); damaged bytes are *quarantined* to ``<key>.corrupt`` and
the row dropped, so corruption costs one re-execution; a transient
SQLite error on a read is a plain miss that leaves the entry in place.

Each process opens its own connection on first use: connections are
closed around ``os.fork`` (see ``_HANDLES``) and reopened when
``os.getpid()`` changes.  One lock serialises a handle across threads.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Iterator

from repro.engine.cache.entry import (
    ENTRY_OK,
    ENTRY_STALE,
    build_entry,
    classify_entry,
    entry_json,
    result_from_entry,
)
from repro.engine.cache.hot import DEFAULT_HOT_CAPACITY, HotTier
from repro.engine.jobs import AnalysisJob, JobResult
from repro.errors import AnalysisError
from repro.faults import active_plan, fault_point
from repro.obs import get_logger, get_registry

_LOG = get_logger("engine.cache")

#: Results from failed executions are never cached (a timeout on a busy
#: machine says nothing about the next run); sound analysis answers are,
#: including the paper's ✗ ("unknown": the LP was infeasible).
CACHEABLE_STATUSES = ("ok",)

#: Entries older than this (seconds since last write) count as eviction
#: candidates in :meth:`ResultCache.stats` and are what
#: :meth:`ResultCache.evict` removes when no explicit bound is given.
DEFAULT_EVICTION_AGE_S = 7 * 24 * 3600.0

#: ``*.corrupt`` quarantine files older than this are removed at open:
#: a post-mortem after a weekend incident still finds its evidence, but
#: quarantine cannot grow without limit.
DEFAULT_CORRUPT_SWEEP_AGE_S = 7 * 24 * 3600.0

#: The store's file inside a cache directory.
DB_NAME = "cache.sqlite3"

#: How long a statement waits for another connection's lock before
#: failing with "database is locked".  Writes are short transactions;
#: only a pile of concurrent merges or a ``VACUUM`` makes one wait long.
BUSY_TIMEOUT_S = 60.0

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries"
    " (key TEXT PRIMARY KEY, ts REAL, entry BLOB)",
    "CREATE INDEX IF NOT EXISTS entries_ts ON entries (ts)",
)

#: The :meth:`ResultCache.stats` schema: counters, then age figures.
_STAT_COUNTS = (
    "hits", "misses", "corrupted", "io_errors", "corrupt_swept",
    "corrupt_files", "merge_skipped", "evicted", "hot_hits",
    "hot_entries", "hot_evictions", "entries", "total_bytes",
    "eviction_candidates",
)
_STAT_AGES = ("oldest_age_s", "newest_age_s", "age_p50_s", "age_p90_s")

#: Characters a federated key may never contain — keys name files.
_UNSAFE_KEY_CHARS = set("/\\\0.")


class ResultCache:
    """Persistent cache of :class:`JobResult` payloads: a verified-read
    hot LRU in front of one SQLite table."""

    def __init__(self, directory: str | os.PathLike,
                 eviction_age_s: float = DEFAULT_EVICTION_AGE_S,
                 hot_capacity: int = DEFAULT_HOT_CAPACITY):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / DB_NAME
        self.eviction_age_s = eviction_age_s
        self.hits = 0
        self.misses = 0
        #: Entries quarantined to ``*.corrupt`` by this handle.
        self.corrupted = 0
        #: Transient read failures reported as plain misses (entry kept).
        self.io_errors = 0
        #: Untrusted source entries a merge/delta refused to copy.
        self.merge_skipped = 0
        #: Entries removed by :meth:`evict` through this handle.
        self.evicted = 0
        self.hot = HotTier(hot_capacity)
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._pid = 0
        _HANDLES.add(self)
        self.corrupt_swept = self._sweep_corrupt()
        self._query("SELECT 1")  # fail fast on a file that is no cache

    # -- the connection ----------------------------------------------------

    def _db(self) -> sqlite3.Connection:
        """This process's connection (the caller holds the lock)."""
        if self._conn is None or self._pid != os.getpid():
            self._conn = _connect(self.path)
            self._pid = os.getpid()
        return self._conn

    def close(self) -> None:
        """Close this process's connection; the next use reopens it."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One write transaction under the lock.  ``BEGIN IMMEDIATE``
        takes the write lock up front, so a writer waits its turn
        instead of failing on a stale read snapshot."""
        with self._lock:
            conn = self._db()
            conn.execute("BEGIN IMMEDIATE")
            with conn:
                yield conn

    def _query(self, sql: str, params: tuple = ()) -> list[tuple]:
        with self._lock:
            return self._db().execute(sql, params).fetchall()

    def _write(self, rows: list[tuple[str, float | None, bytes]],
               replace: bool) -> int:
        """Insert ``(key, ts or None for now, entry bytes)`` rows in one
        transaction; returns how many landed.  An existing key is
        replaced when ``replace``, else kept (first writer wins)."""
        if not rows:
            return 0
        now = time.time()
        with self._transaction() as conn:
            before = conn.total_changes
            conn.executemany(
                f"INSERT OR {'REPLACE' if replace else 'IGNORE'} INTO "
                "entries (key, ts, entry) VALUES (?, ?, ?)",
                [(key, now if ts is None else ts, blob)
                 for key, ts, blob in rows])
            return conn.total_changes - before

    # -- open-time upkeep --------------------------------------------------

    def _sweep_corrupt(self) -> int:
        """Remove quarantine files older than
        :data:`DEFAULT_CORRUPT_SWEEP_AGE_S`; returns how many."""
        removed = 0
        now = time.time()
        for path in self.directory.glob("*.corrupt"):
            try:
                if now - path.stat().st_mtime >= DEFAULT_CORRUPT_SWEEP_AGE_S:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        if removed:
            _count("repro_cache_corrupt_swept_total",
                   "Aged-out quarantine files removed at open.", removed)
            _LOG.warning("swept %d aged quarantine file(s) from %s",
                         removed, self.directory)
        return removed

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> JobResult | None:
        """The cached result of ``key``, or ``None`` on a miss."""
        with self._lock:
            payload = self.hot.get(key)
            if payload is not None:  # verified when it was cached
                return self._hit(result_from_entry({"result": payload}))
            try:
                rows = self._query(
                    "SELECT entry FROM entries WHERE key = ?", (key,))
            except sqlite3.OperationalError as exc:
                # A lock held past the timeout, an I/O hiccup: keep it.
                self.io_errors += 1
                _count("repro_cache_io_errors_total",
                       "Transient read failures treated as plain misses.")
                _LOG.warning("transient error reading %s: %s", key, exc)
                return self._miss()
            if not rows:
                return self._miss()
            raw = rows[0][0]
            entry = _parse(raw)
            verdict = classify_entry(entry)
            if verdict == ENTRY_STALE:
                return self._miss()
            result = result_from_entry(entry) if verdict == ENTRY_OK else None
            if result is None:
                self._quarantine(key, raw, "malformed result payload"
                                 if verdict == ENTRY_OK else "corrupt bytes")
                return self._miss()
            self.hot.put(key, entry["result"])
            return self._hit(result)

    def _hit(self, result: JobResult) -> JobResult:
        self.hits += 1
        _count("repro_cache_hits_total", "Result-cache lookups that hit.")
        return result

    def _miss(self) -> None:
        self.misses += 1
        _count("repro_cache_misses_total",
               "Result-cache lookups that missed.")

    def _quarantine(self, key: str, raw: bytes, why: str) -> None:
        """Move damaged entry bytes aside as ``<key>.corrupt`` and drop
        the row, unless a concurrent writer has already replaced it."""
        target = self.directory / f"{key}.corrupt"
        try:
            target.write_bytes(raw)
            with self._transaction() as conn:
                conn.execute(
                    "DELETE FROM entries WHERE key = ? AND entry = ?",
                    (key, raw))
        except (OSError, sqlite3.OperationalError):
            return
        self.corrupted += 1
        _count("repro_cache_corrupt_total",
               "Cache entries quarantined as corrupt.")
        _LOG.warning("quarantined corrupt cache entry %s -> %s (%s)",
                     key, target.name, why)

    # -- store -------------------------------------------------------------

    def put(self, job: AnalysisJob, result: JobResult) -> bool:
        """Store ``result`` under ``job``'s key, replacing any row there;
        returns whether stored (the hot tier is left unprimed)."""
        if result.status not in CACHEABLE_STATUSES:
            return False
        blob = entry_json(build_entry(job, result)).encode()
        try:
            self._write([(job.key, None, blob)], replace=True)
        except sqlite3.OperationalError as exc:
            _LOG.warning("could not store %s: %s", job.key, exc)
            return False
        _count("repro_cache_stores_total", "Result-cache entries written.")
        self._apply_write_fault(job)
        return True

    def _apply_write_fault(self, job: AnalysisJob) -> None:
        """Chaos hook: damage the just-stored entry when the active
        fault plan says so (``cache.torn_write`` / ``cache.corrupt``)."""
        where = dict(name=job.name, key=job.key, kind=job.kind)
        rule = (fault_point("cache.torn_write", **where)
                or fault_point("cache.corrupt", **where))
        if rule is None:
            return
        if rule.site == "cache.torn_write" or rule.mode == "truncate":
            value, params = "substr(entry, 1, length(entry) / 2)", ()
        else:
            value, params = "?", (active_plan().corruption_bytes(job.key),)
        with self._transaction() as conn:
            conn.execute(f"UPDATE entries SET entry = {value} WHERE key = ?",
                         (*params, job.key))

    # -- merging and federation --------------------------------------------

    def merge_from(self, source: str | os.PathLike,
                   overwrite: bool = False) -> int:
        """Fold another cache directory's trusted entries into this one
        (first writer wins unless ``overwrite``); returns how many were
        copied.  Merging the caches of ``batch --shard k/n`` runs yields
        the cache an unsharded run would have produced.  The source is
        only read; one without a store raises :class:`AnalysisError`.
        Untrusted entries are counted in :attr:`merge_skipped`, so a
        shard cache a fault chewed on cannot spread damage."""
        source_dir = Path(source)
        if not (source_dir / DB_NAME).is_file():
            raise AnalysisError(
                f"cache directory {str(source_dir)!r} does not exist "
                f"or holds no {DB_NAME}")
        if source_dir.resolve() == self.directory.resolve():
            return 0
        return self._fold(_source_rows(source_dir), overwrite)

    def _fold(self, rows: Iterator[tuple[str, float, bytes]],
              overwrite: bool) -> int:
        """Store the trusted ones of ``(key, ts, raw bytes)`` source
        rows; returns how many landed."""
        trusted = []
        for key, ts, raw in rows:
            verdict = classify_entry(_parse(raw))
            if verdict == ENTRY_OK:
                trusted.append((key, ts, raw))
            else:
                self._count_merge_skip(key, verdict)
        return self._write(trusted, replace=overwrite)

    def _count_merge_skip(self, key: str, verdict: str) -> None:
        self.merge_skipped += 1
        _count("repro_cache_merge_skipped_total",
               "Untrusted source entries refused by merge/delta.")
        _LOG.warning("skipping %s source entry %s", verdict, key)

    def delta_since(self, since: float) -> tuple[float, list[dict]]:
        """Trusted ``{"key", "ts", "entry"}`` records written after
        ``since``, plus the new watermark (the newest timestamp seen).
        Only :data:`ENTRY_OK` entries travel: federation never
        propagates bytes a local ``get`` would refuse."""
        watermark = since
        records = []
        for key, ts, raw in self._query(
                "SELECT key, ts, entry FROM entries WHERE ts > ? "
                "ORDER BY key", (since,)):
            watermark = max(watermark, ts)
            entry = _parse(raw)
            if classify_entry(entry) == ENTRY_OK:
                records.append({"key": key, "ts": ts, "entry": entry})
        return watermark, records

    def apply_delta(self, records: list[dict]) -> tuple[int, int]:
        """Store the trusted delta records this cache lacks; returns
        ``(applied, skipped)``.  First writer wins, so re-delivery is a
        no-op and the federation protocol can retry freely."""
        rows = []
        skipped = 0
        for record in records:
            key = record.get("key") if isinstance(record, dict) else None
            if not isinstance(key, str) or not key \
                    or _UNSAFE_KEY_CHARS.intersection(key):
                skipped += 1
                continue
            verdict = classify_entry(record.get("entry"))
            if verdict != ENTRY_OK:
                self._count_merge_skip(key, verdict)
                skipped += 1
                continue
            try:
                ts = float(record.get("ts", 0.0)) or None
            except (TypeError, ValueError):
                ts = None
            rows.append((key, ts, entry_json(record["entry"]).encode()))
        return self._write(rows, replace=False), skipped

    # -- maintenance -------------------------------------------------------

    def compact(self) -> dict[str, int]:
        """``VACUUM`` the store and fold the write-ahead log back into
        it; returns how many entries it kept."""
        with self._lock:
            self._db().execute("VACUUM")
            self._db().execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {"kept": len(self)}

    def evict(self, max_age_s: float | None = None,
              now: float | None = None) -> int:
        """Remove entries older than ``max_age_s`` seconds (default
        :attr:`eviction_age_s`); returns how many were evicted."""
        if max_age_s is None:
            max_age_s = self.eviction_age_s
        if max_age_s < 0:
            raise AnalysisError(
                f"eviction age must be >= 0 seconds, got {max_age_s}")
        cutoff = (time.time() if now is None else now) - max_age_s
        with self._transaction() as conn:
            evicted = conn.execute("DELETE FROM entries WHERE ts < ?",
                                   (cutoff,)).rowcount
            self.evicted += evicted
            if evicted:
                self.hot.clear()
                _count("repro_cache_evicted_total",
                       "Cache entries dropped by age-bounded eviction.",
                       evicted)
        return evicted

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        with self._transaction() as conn:
            self.hot.clear()
            return conn.execute("DELETE FROM entries").rowcount

    def __len__(self) -> int:
        return self._query("SELECT COUNT(*) FROM entries")[0][0]

    # -- stats -------------------------------------------------------------

    @staticmethod
    def empty_stats() -> dict[str, Any]:
        """The :meth:`stats` schema zeroed, for ``/healthz`` before the
        handle exists.  Every value is numeric: ``/metrics`` mirrors
        each key as a gauge."""
        return {**dict.fromkeys(_STAT_COUNTS, 0),
                **dict.fromkeys(_STAT_AGES, 0.0)}

    def stats(self, now: float | None = None) -> dict[str, Any]:
        """This handle's counters plus the on-disk shape: entries, total
        bytes (store plus quarantine files), entry ages (seconds since
        last write) and how many are past :attr:`eviction_age_s`."""
        now = time.time() if now is None else now
        with self._lock:
            data = self.empty_stats()
            data.update(
                hits=self.hits, misses=self.misses,
                corrupted=self.corrupted, io_errors=self.io_errors,
                corrupt_swept=self.corrupt_swept,
                merge_skipped=self.merge_skipped, evicted=self.evicted,
                hot_hits=self.hot.hits, hot_entries=len(self.hot),
                hot_evictions=self.hot.evictions)
            ages = sorted(max(0.0, now - ts)
                          for (ts,) in self._query("SELECT ts FROM entries"))
        for path in (self.path, self.path.with_name(DB_NAME + "-wal"),
                     *self.directory.glob("*.corrupt")):
            with contextlib.suppress(OSError):
                data["total_bytes"] += path.stat().st_size
                data["corrupt_files"] += path.suffix == ".corrupt"
        data["entries"] = len(ages)
        if ages:
            data["oldest_age_s"] = round(ages[-1], 3)
            data["newest_age_s"] = round(ages[0], 3)
            # Nearest-rank percentiles of the ascending ages.
            data["age_p50_s"] = round(ages[round(0.5 * (len(ages) - 1))], 3)
            data["age_p90_s"] = round(ages[round(0.9 * (len(ages) - 1))], 3)
            data["eviction_candidates"] = sum(
                1 for age in ages if age > self.eviction_age_s)
        return data


def _connect(path: Path) -> sqlite3.Connection:
    """A WAL-mode connection to the store at ``path``, schema ensured.
    A file that is not an SQLite database raises :class:`AnalysisError`
    naming it; transient failures stay ``sqlite3.OperationalError``."""
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S,
                           isolation_level=None, check_same_thread=False)
    try:
        # Turning a new file to WAL takes a lock the busy handler does
        # not wait for, so concurrent first openers retry it.
        for _attempt in range(int(BUSY_TIMEOUT_S / 0.01)):
            with contextlib.suppress(sqlite3.OperationalError):
                conn.execute("PRAGMA journal_mode=WAL")
                break
            time.sleep(0.01)
        else:
            conn.execute("PRAGMA journal_mode=WAL")  # raises the error
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("BEGIN IMMEDIATE")
        with conn:
            for statement in _SCHEMA:
                conn.execute(statement)
    except sqlite3.DatabaseError as exc:
        conn.close()
        if isinstance(exc, sqlite3.OperationalError):
            raise
        raise AnalysisError(
            f"{path} is not an SQLite result cache: {exc}") from exc
    return conn


def _count(name: str, help_text: str, amount: int = 1) -> None:
    get_registry().counter(name, help_text).inc(amount)


def _parse(raw: Any) -> Any:
    """Stored entry bytes as JSON, or ``None`` (classified corrupt)."""
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError):
        return None


def _source_rows(directory: Path) -> Iterator[tuple[str, float, bytes]]:
    """``(key, ts, raw bytes)`` of every entry in a cache directory's
    store, in key order, read through a ``mode=ro`` connection."""
    path = directory / DB_NAME
    try:
        with contextlib.closing(sqlite3.connect(
                f"{path.resolve().as_uri()}?mode=ro", uri=True,
                timeout=BUSY_TIMEOUT_S)) as conn:
            rows = conn.execute(
                "SELECT key, ts, entry FROM entries ORDER BY key").fetchall()
    except sqlite3.DatabaseError as exc:
        raise AnalysisError(f"cannot read result cache {path}: {exc}") \
            from exc
    yield from rows


#: Every live handle.  A fork first closes their connections and holds
#: their locks until it is done, so no child inherits a connection
#: (SQLite forbids using one across ``fork``) or a held lock.
_HANDLES: weakref.WeakSet[ResultCache] = weakref.WeakSet()


def _install_fork_hooks() -> None:
    held: list[ResultCache] = []

    def before() -> None:
        held.extend(_HANDLES)
        for cache in held:
            cache._lock.acquire()
            cache.close()

    def after() -> None:
        for cache in held:
            cache._lock.release()
        held.clear()

    os.register_at_fork(before=before, after_in_parent=after,
                        after_in_child=after)


_install_fork_hooks()
