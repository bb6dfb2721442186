"""Test helpers that read and damage a result cache's stored rows from
outside :class:`~repro.engine.cache.ResultCache` — the way bit rot, an
old writer or a crashed process would — plus the ``<key>.json`` layout
caches had before the store, which no reader accepts any more."""

import contextlib
import json
import sqlite3
import time
from pathlib import Path

from repro.engine.cache import DB_NAME


def _connect(directory):
    return contextlib.closing(sqlite3.connect(
        Path(directory) / DB_NAME, timeout=60.0, isolation_level=None))


def entry_bytes(directory, key):
    """The stored bytes of ``key``, or ``None`` when it has no row."""
    with _connect(directory) as conn:
        row = conn.execute("SELECT entry FROM entries WHERE key = ?",
                           (key,)).fetchone()
    return None if row is None else row[0]


def read_entry(directory, key) -> dict:
    return json.loads(entry_bytes(directory, key))


def write_entry_bytes(directory, key, data: bytes) -> None:
    """Overwrite (or add) the stored bytes of ``key``."""
    with _connect(directory) as conn:
        conn.execute(
            "INSERT INTO entries (key, ts, entry) VALUES (?, ?, ?) "
            "ON CONFLICT (key) DO UPDATE SET entry = excluded.entry",
            (key, time.time(), data))


def write_entry(directory, key, entry: dict) -> None:
    write_entry_bytes(directory, key, json.dumps(entry).encode())


def set_ts(directory, key, ts: float) -> None:
    with _connect(directory) as conn:
        conn.execute("UPDATE entries SET ts = ? WHERE key = ?", (ts, key))


def delete_row(directory, key) -> None:
    with _connect(directory) as conn:
        conn.execute("DELETE FROM entries WHERE key = ?", (key,))


def stored_keys(directory) -> list[str]:
    with _connect(directory) as conn:
        return [key for (key,) in conn.execute(
            "SELECT key FROM entries ORDER BY key")]


def integrity(directory) -> str:
    with _connect(directory) as conn:
        return conn.execute("PRAGMA integrity_check").fetchone()[0]


def write_legacy(directory, key, entry: dict) -> Path:
    """One entry file in the layout caches had before the SQLite store."""
    path = Path(directory) / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, sort_keys=True))
    return path
