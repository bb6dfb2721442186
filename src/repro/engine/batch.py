"""Batch analysis over a directory of program pairs.

The batch front door of the engine: discover ``NAME_old.imp`` /
``NAME_new.imp`` pairs in a directory, turn them into jobs, run them on
the parallel executor (optionally as portfolios), and report the results
as an aligned table or JSON.  This is the entry point CI gates build on
(see ``examples/batch_regression_gate.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import AnalysisConfig, EngineConfig
from repro.engine.cache import ResultCache
from repro.engine.executor import ExecutorStats, ParallelExecutor
from repro.engine.jobs import AnalysisJob, JobResult
from repro.engine.portfolio import (
    DEFAULT_LADDER,
    PortfolioResult,
    attach_refutations,
    portfolio_jobs,
    record_portfolio_metrics,
    select_result,
)
from repro.errors import AnalysisError
from repro.obs import get_logger, span
from repro.utils.rationals import format_threshold as _fmt_threshold

_LOG = get_logger("engine.batch")

OLD_SUFFIX = "_old.imp"
NEW_SUFFIX = "_new.imp"


@dataclass(frozen=True)
class ProgramPair:
    """One discovered pair of program versions."""

    name: str
    old_path: Path
    new_path: Path

    def sources(self) -> tuple[str, str]:
        """The pair's source texts, read once per pair object — shard
        assignment, job building, refutation and partial-flush
        reconstruction all ask for them."""
        cached = getattr(self, "_sources", None)
        if cached is None:
            cached = (self.old_path.read_text(), self.new_path.read_text())
            object.__setattr__(self, "_sources", cached)
        return cached


def discover_pairs(directory: str | Path) -> list[ProgramPair]:
    """Find ``*_old.imp`` / ``*_new.imp`` pairs, sorted by name.

    Unpaired files raise: a batch silently skipping half a pair is a
    CI gate that silently passes.
    """
    root = Path(directory)
    if not root.is_dir():
        raise AnalysisError(f"not a directory: {root}")
    olds = {p.name[:-len(OLD_SUFFIX)]: p
            for p in sorted(root.glob(f"*{OLD_SUFFIX}"))}
    news = {p.name[:-len(NEW_SUFFIX)]: p
            for p in sorted(root.glob(f"*{NEW_SUFFIX}"))}
    unpaired = sorted(set(olds) ^ set(news))
    if unpaired:
        raise AnalysisError(
            f"unpaired program versions in {root}: {', '.join(unpaired)}"
        )
    if not olds:
        raise AnalysisError(f"no *{OLD_SUFFIX} / *{NEW_SUFFIX} pairs in {root}")
    return [
        ProgramPair(name, olds[name], news[name]) for name in sorted(olds)
    ]


def pair_shard_index(pair: ProgramPair, config: AnalysisConfig,
                     shards: int) -> int:
    """The shard a pair belongs to, out of ``shards``.

    The partition is by *job hash*: the content-addressed key of the
    pair's base ``diff`` job (sources + config; the display name is not
    keyed, so renaming a file never moves its pair).  Any process that
    agrees on the directory contents and base config computes the same
    assignment — no coordination, no shared state — which is what lets
    independent machines each run a disjoint slice of one batch.
    """
    old_source, new_source = pair.sources()
    job = AnalysisJob(kind="diff", old_source=old_source,
                      new_source=new_source, config=config, name=pair.name)
    return int(job.key[:16], 16) % shards


def shard_pairs(pairs: list[ProgramPair], config: AnalysisConfig,
                shard: tuple[int, int]) -> list[ProgramPair]:
    """The subset of ``pairs`` assigned to shard ``(k, n)``.

    Deterministic and disjoint: over all ``k`` in ``range(n)`` the
    subsets partition ``pairs`` exactly, so ``n`` shard runs merged
    back together cover every pair exactly once.
    """
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise AnalysisError(
            f"shard must be (k, n) with 0 <= k < n, got {shard!r}"
        )
    return [pair for pair in pairs
            if pair_shard_index(pair, config, count) == index]


@dataclass
class BatchReport:
    """Everything a batch run produced.

    ``shard`` records the ``"k/n"`` slice this run covered (``None``
    for an unsharded run); ``pair_names`` the pairs this run was
    responsible for and ``pairs_total`` how many the whole directory
    holds, so a merge can prove the shards partition the batch.
    ``partial`` marks a run that was interrupted (SIGTERM / Ctrl-C)
    and flushed only its completed pairs — still mergeable, but
    clearly not a full answer.
    """

    directory: str
    results: list[JobResult]
    portfolios: list[PortfolioResult] = field(default_factory=list)
    stats: ExecutorStats = field(default_factory=ExecutorStats)
    seconds: float = 0.0
    shard: str | None = None
    partial: bool = False
    pairs_total: int = 0
    pair_names: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no job failed to *execute* (analysis-level ✗ is a
        completed, sound answer and does not fail the batch).

        In portfolio mode a losing rung's timeout/error is absorbed as
        long as the pair still produced an answer — escalating past a
        failed cheap rung is the ladder's purpose.  A pair only fails
        the batch when it has no winner *and* at least one rung failed
        to execute (an all-rungs-completed ✗ is a sound answer).
        """
        if self.portfolios:
            return all(
                p.succeeded or not any(r.failed for r in p.rungs)
                for p in self.portfolios
            )
        return not any(result.failed for result in self.results)

    def thresholds(self) -> dict[str, float | None]:
        """Pair name → computed threshold (``None`` for ✗/failures)."""
        if self.portfolios:
            return {p.name: p.threshold for p in self.portfolios}
        return {r.name: r.threshold for r in self.results}

    def to_dict(self) -> dict:
        data = {
            "directory": self.directory,
            "seconds": round(self.seconds, 3),
            "shard": self.shard,
            "partial": self.partial,
            "pairs_total": self.pairs_total,
            "pair_names": list(self.pair_names),
            "stats": self.stats.as_dict(),
            "results": [result.to_dict() for result in self.results],
        }
        if self.portfolios:
            data["portfolios"] = [
                {
                    "name": p.name,
                    "mode": p.mode,
                    "threshold": p.threshold,
                    "chosen_rung": p.chosen_rung_index(),
                    "tight": p.tight,
                    "rungs": [r.to_dict() for r in p.rungs],
                    "refutation": (p.refutation.to_dict()
                                   if p.refutation is not None else None),
                }
                for p in self.portfolios
            ]
        return data


def _pair_job(pair: ProgramPair, config: AnalysisConfig) -> AnalysisJob:
    old_source, new_source = pair.sources()
    return AnalysisJob(
        kind="diff",
        old_source=old_source,
        new_source=new_source,
        config=config,
        name=pair.name,
    )


def _with_name(result: JobResult, name: str) -> JobResult:
    """A copy of ``result`` carrying ``name`` (recorded results may
    carry another pair's display name when two pairs share content)."""
    if result.name == name:
        return result
    clone = JobResult.from_dict(result.to_dict())
    clone.name = name
    return clone


def _run_portfolio_pairs(executor: ParallelExecutor,
                         pairs: list[ProgramPair],
                         config: AnalysisConfig,
                         engine: EngineConfig,
                         ladder: tuple[tuple[int, int, str], ...],
                         ) -> tuple[list[JobResult], list[PortfolioResult]]:
    per_pair = [
        portfolio_jobs(*pair.sources(), pair.name, base=config, ladder=ladder)
        for pair in pairs
    ]
    if engine.portfolio_mode == "best":
        # Every rung of every pair runs anyway in best mode, so submit
        # them all to one pool and select winners per pair — cross-pair
        # parallelism instead of one pair at a time.
        flat = executor.run([job for jobs in per_pair for job in jobs])
        rungs_per_pair, offset = [], 0
        for jobs in per_pair:
            rungs_per_pair.append(flat[offset:offset + len(jobs)])
            offset += len(jobs)
    else:
        # "first" overlaps the escalation ladders of many pairs on the
        # shared pool; per-pair selection stays ladder-order
        # deterministic (chosen rungs identical to --jobs 1).
        rungs_per_pair = executor.run_escalating_many(per_pair)
    portfolios = [
        PortfolioResult(
            name=pair.name,
            mode=engine.portfolio_mode,
            chosen=select_result(rungs, engine.portfolio_mode),
            rungs=rungs,
        )
        for pair, rungs in zip(pairs, rungs_per_pair)
    ]
    if engine.refute:
        attach_refutations(
            portfolios,
            {pair.name: pair.sources() for pair in pairs},
            executor, base=config,
        )
    record_portfolio_metrics(portfolios)
    return [rung for p in portfolios for rung in p.rungs], portfolios


def _completed_results(pairs: list[ProgramPair],
                       config: AnalysisConfig,
                       engine: EngineConfig,
                       ladder: tuple[tuple[int, int, str], ...],
                       recorded: dict[str, JobResult],
                       ) -> tuple[list[JobResult], list[PortfolioResult]]:
    """Rebuild the report rows of every pair that fully resolved before
    an interrupt, from the executor's as-it-happened result record.

    A portfolio pair counts as resolved only when every rung has a
    recorded verdict (in ``first`` mode a decided pair records
    ``cancelled`` markers for its abandoned rungs immediately, so
    decided pairs qualify); a half-walked ladder is dropped rather than
    reported with a premature selection.  The refutation stage is
    omitted from partial reports — tightness probes of an interrupted
    run are not worth reporting half of.
    """
    if engine.portfolio:
        portfolios = []
        for pair in pairs:
            jobs = portfolio_jobs(*pair.sources(), pair.name,
                                  base=config, ladder=ladder)
            rungs = [recorded.get(job.key) for job in jobs]
            if any(rung is None for rung in rungs):
                continue
            rungs = [_with_name(rung, job.name)
                     for rung, job in zip(rungs, jobs)]
            portfolios.append(
                PortfolioResult(
                    name=pair.name,
                    mode=engine.portfolio_mode,
                    chosen=select_result(rungs, engine.portfolio_mode),
                    rungs=rungs,
                )
            )
        return [rung for p in portfolios for rung in p.rungs], portfolios
    results = []
    for pair in pairs:
        job = _pair_job(pair, config)
        result = recorded.get(job.key)
        if result is not None:
            results.append(_with_name(result, job.name))
    return results, []


def run_batch(directory: str | Path,
              config: AnalysisConfig | None = None,
              engine: EngineConfig | None = None,
              ladder: tuple[tuple[int, int, str], ...] = DEFAULT_LADDER,
              shard: tuple[int, int] | None = None,
              ) -> BatchReport:
    """Analyze every pair in ``directory`` through the engine.

    ``shard=(k, n)`` (or ``engine.shard``) restricts the run to the
    pairs the deterministic job-hash partition assigns to slice ``k``
    of ``n`` — see :func:`shard_pairs`.  A ``KeyboardInterrupt`` (which
    the CLI also raises on SIGTERM) does not lose completed work: the
    report comes back with every fully-resolved pair and
    ``partial=True`` instead of propagating with nothing.
    """
    engine = engine or EngineConfig()
    config = config or AnalysisConfig()
    if shard is None:
        shard = engine.shard
    cache = ResultCache(engine.cache_dir) if engine.cache_dir else None
    all_pairs = discover_pairs(directory)
    pairs = (shard_pairs(all_pairs, config, shard) if shard is not None
             else all_pairs)
    start = time.perf_counter()
    recorded: dict[str, JobResult] = {}
    results: list[JobResult] = []
    portfolios: list[PortfolioResult] = []
    partial = False

    _LOG.info("batch over %s: %d pair(s)%s, jobs=%d%s", directory,
              len(pairs),
              "" if shard is None else f" (shard {shard[0]}/{shard[1]})",
              engine.jobs,
              ", portfolio" if engine.portfolio else "")
    # One executor — and therefore one long-lived worker pool — for the
    # whole batch, however many pairs it has.
    with ParallelExecutor(
        jobs=engine.jobs, timeout=engine.timeout, cache=cache,
        max_retries=engine.max_retries, hang_timeout=engine.hang_timeout,
    ) as executor:
        executor.on_result = (
            lambda result: recorded.__setitem__(result.job_key, result)
        )
        try:
            with span("batch", cat="engine",
                      args={"directory": str(directory),
                            "pairs": len(pairs)}):
                if engine.portfolio:
                    results, portfolios = _run_portfolio_pairs(
                        executor, pairs, config, engine, ladder
                    )
                else:
                    results = executor.run(
                        [_pair_job(pair, config) for pair in pairs]
                    )
        except KeyboardInterrupt:
            partial = True
            results, portfolios = _completed_results(
                pairs, config, engine, ladder, recorded
            )
            _LOG.warning("batch interrupted: flushing %d resolved pair(s)",
                         len(portfolios) if engine.portfolio else len(results))
        stats = executor.stats
    _LOG.info("batch done in %.2fs: %d completed, %d error(s), "
              "%d timeout(s), %d cache hit(s)",
              time.perf_counter() - start, stats.completed, stats.errors,
              stats.timeouts, stats.cache_hits)

    return BatchReport(
        directory=str(directory),
        results=results,
        portfolios=portfolios,
        stats=stats,
        seconds=time.perf_counter() - start,
        shard=None if shard is None else f"{shard[0]}/{shard[1]}",
        partial=partial,
        pairs_total=len(all_pairs),
        pair_names=[pair.name for pair in pairs],
    )


def format_batch_table(report: BatchReport) -> str:
    """Aligned text rendering of a batch report."""
    header = f"{'Pair':<24} {'Threshold':>10} {'Status':>9} {'Time(s)':>8}  Detail"
    title = f"Batch analysis of {report.directory}"
    if report.shard is not None:
        title += f" [shard {report.shard}]"
    if report.partial:
        title += " [PARTIAL — interrupted]"
    lines = [title, header, "-" * len(header)]
    if report.portfolios:
        for portfolio in report.portfolios:
            chosen = portfolio.chosen
            failed = sum(1 for r in portfolio.rungs if r.failed)
            if chosen:
                status = "ok"
            elif failed:
                # Not the paper's sound ✗: some rungs never completed.
                status = "failed"
            else:
                status = "✗"
            rung = (
                chosen.name.split("[", 1)[1].rstrip("]")
                if chosen else f"{len(portfolio.rungs)} rungs"
                + (f", {failed} failed" if failed else "")
            )
            cached = " (cached)" if chosen and chosen.cached else ""
            if portfolio.tight is True:
                cached += " [tight]"
            elif portfolio.tight is False:
                cached += " [slack?]"  # tightness probe could not certify
            lines.append(
                f"{portfolio.name:<24} {_fmt_threshold(portfolio.threshold):>10} "
                f"{status:>9} {portfolio.seconds:>8.2f}  {rung}{cached}"
            )
    else:
        for result in report.results:
            detail = result.message.splitlines()[0] if result.message else ""
            if result.cached:
                detail = (detail + " (cached)").strip()
            lines.append(
                f"{result.name:<24} {_fmt_threshold(result.threshold):>10} "
                f"{result.status:>9} {result.seconds:>8.2f}  {detail[:60]}"
            )
    stats = report.stats
    lines.append("-" * len(header))
    lines.append(
        f"{stats.submitted} job(s): {stats.completed} completed, "
        f"{stats.errors} error(s), {stats.timeouts} timeout(s), "
        f"{stats.cancelled} cancelled; cache hits {stats.cache_hits}; "
        f"{report.seconds:.2f}s wall"
    )
    if report.partial:
        reported = (len(report.portfolios) if report.portfolios
                    else len(report.results))
        lines.append(
            f"PARTIAL: interrupted with {reported}/{len(report.pair_names)} "
            "pair(s) resolved; rerun (same cache) to finish, or merge as a "
            "partial shard"
        )
    return "\n".join(lines)


def batch_to_json(report: BatchReport) -> str:
    """JSON rendering (for gates diffing against a baseline)."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
