"""The cache entry schema, shared by the store and federation.

One *entry* is the JSON object stored for one job key — a row of the
SQLite store, a legacy ``<key>.json`` file, a federation delta record's
``"entry"`` — always exactly this shape::

    {"version": JOB_SCHEMA_VERSION,
     "job": {"kind": ..., "name": ..., "config": {...}, "lp_solver": {...}},
     "result": {...JobResult.to_dict()...},
     "checksum": "sha256 hex over the canonical result payload"}

:func:`classify_entry` is the single trust decision every consumer
(lookup, merge, federation) applies, so an entry one code path would
refuse to replay can never be copied around by another.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.engine.jobs import JOB_SCHEMA_VERSION, AnalysisJob, JobResult

#: Trust verdicts of :func:`classify_entry`.
#:
#: - ``"ok"``: replayable — current schema version, checksum verifies.
#: - ``"stale"``: structurally sound but never replayable — a schema
#:   version mismatch or a pre-checksum legacy entry.  A *plain miss*:
#:   the entry is dead weight (rewritten on the next store), but not
#:   evidence of damage, so it is never quarantined — and never worth
#:   copying in a merge or a federation delta.
#: - ``"corrupt"``: damaged bytes — not a JSON object, or the checksum
#:   fails.  Quarantine material.
ENTRY_OK = "ok"
ENTRY_STALE = "stale"
ENTRY_CORRUPT = "corrupt"


def result_checksum(result_payload: Any) -> str:
    """Hex SHA-256 over the canonical rendering of a result payload."""
    canonical = json.dumps(result_payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_entry(job: AnalysisJob, result: JobResult) -> dict[str, Any]:
    """The entry of record for ``result`` under ``job``'s key."""
    payload = job.canonical_payload()
    result_payload = result.to_dict()
    # The stored result is the entry of record regardless of how many
    # attempts it took this machine to produce it.
    result_payload["attempts"] = 0
    return {
        "version": JOB_SCHEMA_VERSION,
        "job": {
            "kind": job.kind,
            "name": job.name,
            "config": payload["config"],
            # Recorded for debuggability: the key already covers both,
            # so an older solver revision's entries are never looked up.
            "lp_solver": payload["lp_solver"],
        },
        "result": result_payload,
        "checksum": result_checksum(result_payload),
    }


def classify_entry(entry: Any) -> str:
    """The trust verdict of a parsed entry; see the module constants."""
    if not isinstance(entry, dict):
        return ENTRY_CORRUPT
    if entry.get("version") != JOB_SCHEMA_VERSION:
        return ENTRY_STALE
    checksum = entry.get("checksum")
    if checksum is None:
        # A legacy (pre-checksum) entry: unverifiable bytes.
        return ENTRY_STALE
    if checksum != result_checksum(entry.get("result")):
        return ENTRY_CORRUPT
    return ENTRY_OK


def entry_json(entry: dict[str, Any]) -> str:
    """The canonical single-line serialization every store writes."""
    return json.dumps(entry, sort_keys=True)


def result_from_entry(entry: dict[str, Any]) -> JobResult | None:
    """Deserialize a trusted entry's result as a replay: a replay cost
    this run nothing, so seconds, metrics and attempts are zeroed (the
    stored ones would inflate timing columns and double-count metric
    deltas).  ``None`` when the payload does not reconstruct —
    quarantine material despite a passing checksum."""
    try:
        result = JobResult.from_dict(entry["result"])
    except (KeyError, TypeError):
        return None
    result.cached = True
    result.seconds = 0.0
    result.metrics = {}
    result.attempts = 0
    return result
