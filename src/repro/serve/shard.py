"""Sharding a batch across machines, and merging the slices back.

The partition itself lives next to batch discovery
(:func:`repro.engine.batch.shard_pairs`): every pair is assigned to
exactly one of ``n`` shards by the content-addressed hash of its base
``diff`` job, so any process that sees the same directory and base
config computes the same disjoint slices with no coordination.  This
module is the *other* half of the workflow:

- :func:`merge_reports` folds the JSON reports of all shards back into
  one batch report, validating that the shards really partition the
  batch (same shard count, distinct indices, disjoint pairs) and
  propagating ``partial`` markers from interrupted shards;
- :func:`canonical_report` / :func:`canonical_json` strip the volatile
  fields of a report (wall seconds, per-phase timings, cache-hit
  counters, tracebacks) so two reports can be compared *byte for
  byte*.  The determinism guarantee — asserted by the test suite and
  the CI smoke job — is that ``batch --shard k/n`` over all ``k``,
  merged, is canonically byte-identical to one unsharded ``--jobs 1``
  run;
- cache folding is :meth:`repro.engine.cache.ResultCache.merge_from`
  (atomic multi-writer tmp-file + rename), exposed here through
  :func:`merge_caches`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.engine.cache import ResultCache
from repro.errors import AnalysisError

#: Result fields that legitimately differ between two runs of the same
#: job (wall-clock measurements, machine-local tracebacks, cache state,
#: worker metrics-snapshot deltas, retry attempts — all machine
#: conditions, not analysis outcomes).
_VOLATILE_RESULT_FIELDS = ("seconds", "timings", "traceback", "cached",
                           "metrics", "attempts")

#: Stats counters that depend on cache state / wall clock / machine
#: health rather than on what was analyzed.
_VOLATILE_STATS_FIELDS = ("seconds", "cache_hits", "retries")


def parse_shard_spec(spec: str) -> tuple[int, int]:
    """Parse a ``"k/n"`` shard spec into ``(k, n)``."""
    try:
        index_text, count_text = spec.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise AnalysisError(
            f"shard spec must look like K/N (e.g. 0/2), got {spec!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise AnalysisError(
            f"shard spec needs 0 <= K < N, got {spec!r}"
        )
    return index, count


# -- canonical (byte-comparable) rendering --------------------------------

def _canonical_result(result: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in sorted(result.items())
            if key not in _VOLATILE_RESULT_FIELDS}


def _canonical_portfolio(portfolio: dict[str, Any]) -> dict[str, Any]:
    data = dict(portfolio)
    data["rungs"] = [_canonical_result(r) for r in portfolio.get("rungs", [])]
    refutation = portfolio.get("refutation")
    data["refutation"] = (None if refutation is None
                          else _canonical_result(refutation))
    return data


def canonical_report(report: dict[str, Any]) -> dict[str, Any]:
    """The deterministic core of a batch-report dict.

    Everything that depends only on *what was analyzed* survives
    (names, job keys, statuses, outcomes, thresholds, chosen rungs);
    everything that depends on when/where it ran is dropped.  Two runs
    over the same pairs and config — sharded or not, cached or not —
    canonicalize to identical dicts.
    """
    data = {key: value for key, value in sorted(report.items())
            if key not in ("seconds", "shard")}
    stats = dict(report.get("stats", {}))
    for field in _VOLATILE_STATS_FIELDS:
        stats.pop(field, None)
    data["stats"] = stats
    data["results"] = [_canonical_result(r)
                       for r in report.get("results", [])]
    if "portfolios" in report:
        data["portfolios"] = [_canonical_portfolio(p)
                              for p in report["portfolios"]]
    return data


def canonical_json(report: dict[str, Any]) -> str:
    """Byte-comparable JSON rendering of :func:`canonical_report`."""
    return json.dumps(canonical_report(report), indent=2, sort_keys=True)


# -- merging shard reports ------------------------------------------------

def _shard_of(report: dict[str, Any], position: int) -> tuple[int, int] | None:
    spec = report.get("shard")
    if spec is None:
        return None
    try:
        return parse_shard_spec(spec)
    except AnalysisError:
        raise AnalysisError(
            f"report #{position} carries a malformed shard marker "
            f"{spec!r}"
        ) from None


def merge_reports(reports: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold shard batch-report dicts into one unsharded report dict.

    Validates the shard markers (one consistent ``n``, distinct ``k``,
    disjoint pair sets) and reassembles results in pair-name order —
    the order an unsharded run produces, because batch discovery sorts
    pairs by name.  Missing shards or shards flushed by an interrupted
    run leave the merged report marked ``partial`` (with the missing
    indices listed) instead of failing: a killed shard's flushed slice
    is still worth folding in.
    """
    if not reports:
        raise AnalysisError("nothing to merge: no shard reports given")

    counts = set()
    seen_indices: dict[int, int] = {}
    for position, report in enumerate(reports):
        if "missing_shards" in report:
            # An already-merged partial report: its stats are sums over
            # several shards, so folding it in again would double-count
            # silently.  Merge once from the original shard reports
            # (the missing ones rerun) instead of merging a merge.
            missing_marker = ",".join(map(str, report["missing_shards"]))
            raise AnalysisError(
                f"report #{position} is itself a merged partial report "
                f"(missing shard(s) {missing_marker}); re-run the missing "
                "shards and merge all original shard reports in one pass "
                "instead of merging a merge"
            )
        shard = _shard_of(report, position)
        if shard is None:
            raise AnalysisError(
                f"report #{position} has no shard marker (was it produced "
                "by batch --shard?)"
            )
        index, count = shard
        counts.add(count)
        if index in seen_indices:
            raise AnalysisError(
                f"shard {index} appears twice (reports "
                f"#{seen_indices[index]} and #{position})"
            )
        seen_indices[index] = position
    if len(counts) != 1:
        raise AnalysisError(
            f"reports disagree on the shard count: {sorted(counts)}"
        )
    count = counts.pop()
    missing = sorted(set(range(count)) - set(seen_indices))

    names_seen: dict[str, int] = {}
    for position, report in enumerate(reports):
        for name in report.get("pair_names", []):
            if name in names_seen:
                raise AnalysisError(
                    f"pair {name!r} claimed by two shards (reports "
                    f"#{names_seen[name]} and #{position}) — were they "
                    "run with different base configs?"
                )
            names_seen[name] = position

    portfolio_mode = any("portfolios" in report for report in reports)
    if portfolio_mode:
        # A merged portfolio report is rebuilt from per-pair rung lists,
        # so a shard that ran without --portfolio (flat results only)
        # cannot be folded in — its answers would silently vanish.
        flat_only = [position for position, report in enumerate(reports)
                     if "portfolios" not in report and report.get("results")]
        if flat_only:
            raise AnalysisError(
                "cannot merge portfolio and non-portfolio shard reports: "
                f"report(s) #{', #'.join(map(str, flat_only))} carry flat "
                "results only (rerun them with --portfolio, or rerun the "
                "others without)"
            )
    portfolios = sorted(
        (p for report in reports for p in report.get("portfolios", [])),
        key=lambda p: p["name"],
    )
    if portfolio_mode:
        # Rung order inside a pair is ladder order and must survive the
        # merge; the flat results list is rebuilt pair by pair, exactly
        # how an unsharded portfolio run flattens it.
        results = [rung for p in portfolios for rung in p["rungs"]]
    else:
        results = sorted(
            (r for report in reports for r in report.get("results", [])),
            key=lambda r: (r["name"], r["job_key"]),
        )

    stats: dict[str, float] = {}
    for report in reports:
        for key, value in sorted(report.get("stats", {}).items()):
            stats[key] = stats.get(key, 0) + value

    merged: dict[str, Any] = {
        "directory": reports[0].get("directory", ""),
        "seconds": round(sum(r.get("seconds", 0.0) for r in reports), 3),
        "shard": None,
        "partial": bool(missing) or any(r.get("partial") for r in reports),
        "pairs_total": max(r.get("pairs_total", 0) for r in reports),
        "pair_names": sorted(names_seen),
        "stats": stats,
        "results": results,
    }
    if portfolio_mode:
        merged["portfolios"] = portfolios
    if missing:
        merged["missing_shards"] = missing
    return merged


def report_ok(report: dict[str, Any]) -> bool:
    """:attr:`repro.engine.batch.BatchReport.ok`, over a report dict.

    Mirrors the object property so merged (dict-form) reports gate CI
    the same way live reports do: execution failures fail the batch,
    sound ✗ answers do not, and a portfolio pair absorbs losing-rung
    failures as long as it produced a winner.
    """
    portfolios = report.get("portfolios")
    if portfolios:
        return all(
            p.get("chosen_rung") is not None
            or not any(r["status"] in ("error", "timeout")
                       for r in p.get("rungs", []))
            for p in portfolios
        )
    return not any(r["status"] in ("error", "timeout")
                   for r in report.get("results", []))


def merge_caches(destination: str, sources: list[str],
                 overwrite: bool = False) -> int:
    """Fold shard cache directories into ``destination``; returns the
    number of entries copied.  One transaction per source — safe to run
    while other writers target the same destination.  A missing source
    raises :class:`~repro.errors.AnalysisError`."""
    cache = ResultCache(destination)
    return sum(cache.merge_from(source, overwrite=overwrite)
               for source in sources)
