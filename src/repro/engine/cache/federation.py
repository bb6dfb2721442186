"""Cache federation: a fleet of serve nodes converging to one cache.

Every node's cache is content-addressed and first-writer-wins, which
makes the federation protocol almost embarrassingly simple — and, more
importantly, *idempotent*: re-delivering any record is a no-op, so
every step can be retried through the
:class:`~repro.coord.client.ResilientClient` without coordination.

One **round** (driven by the coordinator's ``POST /cache/federate``):

1. *Pull*: ``GET <node>/cache/delta?since=<watermark>`` from every
   node — the trusted entries that node wrote after the last round,
   plus its new watermark.
2. *Union*: merge all pulled records by key.  The earliest timestamp
   wins ties, mirroring first-writer-wins on disk; any winner is
   equally valid (identical keys ⇒ semantically identical results).
3. *Push*: ``POST <node>/cache/merge`` the union to every node; each
   node's :meth:`~repro.engine.cache.ResultCache.apply_delta` stores
   only what it lacks and re-verifies every entry before trusting it
   (federation never launders bytes a local ``get`` would refuse).

Watermarks advance only after a node's pull *and* push both succeed,
so a failed node simply re-exchanges the same delta next round.  The
``cache.delta_drop`` / ``cache.merge_drop`` fault sites (consulted
node-side) make both failure legs testable under a seeded plan.
"""

from __future__ import annotations

from typing import Any

from repro.obs import get_logger, get_registry

_LOG = get_logger("engine.cache.federation")


def merge_deltas(deltas: list[list[dict]]) -> list[dict]:
    """The union of several nodes' delta records, one record per key —
    earliest timestamp wins, URL-stable input order breaks exact ties.
    Returns records sorted by key so every node receives (and every
    test observes) one deterministic payload."""
    union: dict[str, dict] = {}
    for records in deltas:
        for record in records:
            if not isinstance(record, dict):
                continue
            key = record.get("key")
            if not isinstance(key, str):
                continue
            current = union.get(key)
            try:
                ts = float(record.get("ts", 0.0))
            except (TypeError, ValueError):
                continue
            if current is None or ts < float(current.get("ts", 0.0)):
                union[key] = record
    return [union[key] for key in sorted(union)]


def federate_round(client: Any, node_urls: list[str],
                   watermarks: dict[str, float]) -> dict[str, Any]:
    """One pull/union/push exchange across ``node_urls``.

    ``client`` is a :class:`~repro.coord.client.ResilientClient` (or
    anything with its ``get``/``post`` shape); ``watermarks`` maps node
    URL to the last watermark that fully round-tripped and is updated
    in place.  Returns a summary safe to serialize into an HTTP
    response.  A node that fails either leg is reported, its watermark
    left untouched, and the round continues — federation is gossip,
    not a transaction.
    """
    from repro.coord.client import ClientError  # circular-free at call time

    pulled: dict[str, list[dict]] = {}
    new_watermarks: dict[str, float] = {}
    failed: list[str] = []
    for url in sorted(set(node_urls)):
        since = watermarks.get(url, 0.0)
        try:
            _status, payload = client.get(
                f"{url}/cache/delta?since={since!r}"
            )
            records = payload["records"]
            watermark = float(payload["watermark"])
            if not isinstance(records, list):
                raise TypeError("records must be a list")
        except (ClientError, KeyError, TypeError, ValueError) as error:
            _LOG.warning("federation pull from %s failed: %s", url, error)
            failed.append(url)
            continue
        pulled[url] = records
        new_watermarks[url] = watermark

    union = merge_deltas(list(pulled.values()))
    per_node: dict[str, dict] = {}
    applied_total = 0
    for url in sorted(pulled):
        own = {record.get("key") for record in pulled[url]}
        outgoing = [record for record in union
                    if record.get("key") not in own]
        applied = skipped = 0
        if outgoing:
            try:
                _status, payload = client.post(
                    f"{url}/cache/merge", {"records": outgoing}
                )
                applied = int(payload.get("applied", 0))
                skipped = int(payload.get("skipped", 0))
            except (ClientError, TypeError, ValueError) as error:
                _LOG.warning("federation push to %s failed: %s",
                             url, error)
                failed.append(url)
                continue
        watermarks[url] = new_watermarks[url]
        applied_total += applied
        per_node[url] = {
            "pulled": len(pulled[url]),
            "pushed": len(outgoing),
            "applied": applied,
            "skipped": skipped,
            "watermark": watermarks[url],
        }

    get_registry().counter(
        "repro_cache_federation_rounds_total",
        "Cache federation rounds completed.",
    ).inc()
    if applied_total:
        get_registry().counter(
            "repro_cache_federation_applied_total",
            "Cache entries replicated onto a node by federation.",
        ).inc(applied_total)
    summary = {
        "nodes": len(set(node_urls)),
        "union": len(union),
        "applied": applied_total,
        "failed": sorted(set(failed)),
        "per_node": per_node,
    }
    _LOG.info("federation round: %d node(s), union %d, applied %d, "
              "%d failed", summary["nodes"], summary["union"],
              applied_total, len(summary["failed"]))
    return summary
