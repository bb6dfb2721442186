"""Running the benchmark suite end-to-end (regenerates Table 1).

Suite runs execute through the parallel engine
(:mod:`repro.engine`): each Table 1 row becomes an
:class:`~repro.engine.jobs.AnalysisJob`, so ``jobs > 1`` fans the rows
out to a process pool and a result cache makes re-runs incremental.
``jobs == 1`` runs inline and is byte-identical to the historical
sequential path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from repro.bench.suite import SUITE, BenchmarkPair, load_pair, pair_sources
from repro.core.diffcost import DiffCostAnalyzer
from repro.core.results import AnalysisStatus, DiffCostResult


class SuiteInterrupted(KeyboardInterrupt):
    """A suite run was interrupted (SIGTERM / Ctrl-C) after some rows
    completed.

    Subclasses ``KeyboardInterrupt`` so callers that do not care still
    see interrupt semantics; callers that do (the CLI) catch it and
    flush :attr:`outcomes` — every row whose analysis finished before
    the interrupt — as a clearly-marked partial table.
    """

    def __init__(self, outcomes: list["BenchmarkOutcome"], total: int):
        super().__init__(
            f"suite interrupted after {len(outcomes)}/{total} rows"
        )
        self.outcomes = outcomes
        self.total = total


@dataclass
class BenchmarkOutcome:
    """One Table 1 row as measured by this reproduction."""

    pair: BenchmarkPair
    result: DiffCostResult
    seconds: float
    timings: dict[str, float] = field(default_factory=dict)
    #: Engine execution status ("ok" also covers a sound ✗ answer;
    #: "error"/"timeout" mean the analysis never completed).
    job_status: str = "ok"
    #: Replayed from the persistent result cache: ``seconds`` is 0 (this
    #: run did no analysis work for the row).
    cached: bool = False

    @property
    def computed(self) -> float | None:
        """The computed threshold (``None`` for ✗)."""
        if not self.result.is_threshold:
            return None
        return float(self.result.threshold)

    @property
    def is_tight(self) -> bool:
        """Tight in the paper's sense: for integer-valued programs a
        computed threshold within 1 of the true maximum is tight
        (Section 6's discussion of Ex2/Ex4/sum)."""
        if self.computed is None or self.pair.tight is None:
            return False
        return self.computed < self.pair.tight + 1

    @property
    def matches_paper_shape(self) -> bool:
        """Did we reproduce the qualitative outcome of the paper's row?

        Success/failure must agree; when the paper was tight we must be
        tight; when the paper over-approximated, any sound threshold
        (possibly tight — reconstructions can differ) is accepted.
        """
        if self.job_status != "ok":
            # The analysis never ran (worker error/timeout): that is an
            # infrastructure failure, not a reproduction of the paper's ✗.
            return False
        paper_failed = self.pair.paper_computed is None
        we_failed = self.computed is None
        if paper_failed or we_failed:
            return paper_failed == we_failed
        paper_was_tight = self.pair.paper_computed < self.pair.paper_tight + 1
        if paper_was_tight:
            return self.is_tight
        # Sound, possibly loose (reconstructions can be easier or harder
        # than the originals); 1e-4 absorbs float-LP noise.
        return self.computed >= self.pair.tight - 1e-4

    def row(self) -> dict:
        """A plain-dict rendering for reporting."""
        return {
            "benchmark": self.pair.name,
            "group": self.pair.group,
            "tight": self.pair.tight,
            "computed": self.computed,
            "paper_tight": self.pair.paper_tight,
            "paper_computed": self.pair.paper_computed,
            "is_tight": self.is_tight,
            "matches_paper": self.matches_paper_shape,
            "seconds": round(self.seconds, 2),
            "job_status": self.job_status,
            "cached": self.cached,
        }


def run_pair(pair: BenchmarkPair, lp_backend: str = "scipy") -> BenchmarkOutcome:
    """Analyze one benchmark pair and time it."""
    old, new = load_pair(pair.name)
    start = time.perf_counter()
    analyzer = DiffCostAnalyzer(old, new, pair.config(lp_backend))
    result = analyzer.compute_threshold()
    elapsed = time.perf_counter() - start
    return BenchmarkOutcome(pair, result, elapsed, result.timings)


def _suite_job(pair: BenchmarkPair, lp_backend: str):
    from repro.engine.jobs import AnalysisJob

    old_source, new_source = pair_sources(pair.name)
    return AnalysisJob(
        kind="diff",
        old_source=old_source,
        new_source=new_source,
        config=pair.config(lp_backend),
        name=pair.name,
    )


def _outcome_from_job_result(pair: BenchmarkPair, job_result) -> BenchmarkOutcome:
    """Rebuild a Table 1 row from an engine result.

    The inline execution path carries the full
    :class:`~repro.core.results.DiffCostResult` (certificates included);
    pool workers and cache hits ship only the structured fields, which
    is everything the Table 1 rendering needs.
    """
    if job_result.analysis is not None:
        result = job_result.analysis
    else:
        if job_result.status == "ok":
            status = AnalysisStatus(job_result.outcome)
            threshold = job_result.exact_threshold()
            if isinstance(threshold, float) and threshold.is_integer():
                threshold = Fraction(int(threshold))
            message = job_result.message
        else:
            status = AnalysisStatus.UNKNOWN
            threshold = None
            message = (
                f"job {job_result.status}"
                f" ({job_result.error_type}): {job_result.message}"
            )
        result = DiffCostResult(
            status=status,
            threshold=threshold,
            timings=dict(job_result.timings),
            message=message,
        )
    # Cache replays arrive with seconds == 0 (the replay cost this run
    # nothing), so Time(s) stays honest without special-casing here.
    return BenchmarkOutcome(pair, result, job_result.seconds, result.timings,
                            job_status=job_result.status,
                            cached=job_result.cached)


def run_suite(names: list[str] | None = None,
              lp_backend: str = "scipy",
              include_running_example: bool = True,
              jobs: int = 1,
              timeout: float | None = None,
              cache_dir: str | None = None,
              max_retries: int = 2,
              hang_timeout: float | None = None) -> list[BenchmarkOutcome]:
    """Run the whole suite (or a named subset) through the engine.

    ``jobs``, ``timeout``, ``cache_dir``, ``max_retries`` and
    ``hang_timeout`` configure the parallel executor; the defaults
    reproduce the sequential in-process run.

    An interrupt (SIGTERM / Ctrl-C) does not discard finished rows: it
    re-raises as :class:`SuiteInterrupted` carrying the outcomes of
    every row that completed, so the caller can flush a partial table.
    """
    from repro.engine.cache import ResultCache
    from repro.engine.executor import ParallelExecutor

    selected = [
        pair for pair in SUITE
        if (names is None or pair.name in names)
        and (include_running_example
             or pair.group != "Fig. 1 running example")
    ]
    cache = ResultCache(cache_dir) if cache_dir else None
    jobs_by_pair = [(pair, _suite_job(pair, lp_backend)) for pair in selected]
    recorded: dict[str, object] = {}
    # Context-managed so the long-lived worker pool is torn down when
    # the suite finishes rather than lingering until garbage collection.
    with ParallelExecutor(jobs=jobs, timeout=timeout, cache=cache,
                          max_retries=max_retries,
                          hang_timeout=hang_timeout) as executor:
        executor.on_result = (
            lambda result: recorded.__setitem__(result.job_key, result)
        )
        try:
            results = executor.run([job for _pair, job in jobs_by_pair])
        except KeyboardInterrupt:
            outcomes = [
                _outcome_from_job_result(pair, recorded[job.key])
                for pair, job in jobs_by_pair
                if job.key in recorded
            ]
            raise SuiteInterrupted(outcomes, len(selected)) from None
    return [
        _outcome_from_job_result(pair, job_result)
        for pair, job_result in zip(selected, results)
    ]
