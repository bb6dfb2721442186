"""The engine's job model.

An :class:`AnalysisJob` is one self-contained unit of analysis work: a
program pair (as source text, so jobs cross process boundaries without
pickling analyzer state), an :class:`~repro.config.AnalysisConfig`, and
the kind of analysis to run (``diff``/``bound``/``refute``/``single``).

Every job has a canonical, content-addressed :attr:`AnalysisJob.key`
(a SHA-256 over a canonical JSON rendering of everything that affects
the job's outcome).  Two jobs with the same key are guaranteed to
produce the same result, which is what makes the on-disk result cache
and cross-run deduplication sound.  Presentation-only attributes (the
display ``name``) are excluded from the key.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Any

from repro.config import AnalysisConfig
from repro.errors import AnalysisError
from repro.lp.backend import LP_SOLVER_REVISION, backend_modules

#: Bump when the meaning of a job (or the result schema) changes, so
#: stale cache entries are never replayed across incompatible versions.
JOB_SCHEMA_VERSION = 1

JOB_KINDS = ("diff", "bound", "refute", "single")

#: The ``lp_backend`` every refute job is keyed and reported under:
#: refutation solves exactly whatever the config says, so two refute
#: jobs that differ only in ``lp_backend`` are one computation, and
#: the warm-started exact rung names the arithmetic that runs.
REFUTE_BACKEND = "exact-warm"


@dataclass(frozen=True)
class AnalysisJob:
    """One unit of analysis work, addressable by content.

    Attributes
    ----------
    kind:
        ``"diff"`` (threshold synthesis), ``"bound"`` (symbolic bound
        proof), ``"refute"`` (candidate refutation) or ``"single"``
        (single-program bounds; uses only ``old_source``).
    old_source / new_source:
        `imp` source text of the two versions (``new_source`` is
        ``None`` for ``single`` jobs).
    config:
        The analysis configuration; any field change changes the key.
        A refute job's ``lp_backend`` is always :data:`REFUTE_BACKEND`.
    name:
        Display name (e.g. the benchmark pair name).  Not keyed.
    bound:
        Polynomial text for ``bound`` jobs.
    candidate:
        Candidate threshold for ``refute`` jobs.
    """

    kind: str
    old_source: str
    new_source: str | None = None
    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    name: str = ""
    bound: str | None = None
    candidate: float | None = None

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise AnalysisError(
                f"unknown job kind {self.kind!r} (use one of {JOB_KINDS})"
            )
        if self.kind != "single" and self.new_source is None:
            raise AnalysisError(f"{self.kind} jobs need a new_source")
        if self.kind == "bound" and self.bound is None:
            raise AnalysisError("bound jobs need a bound polynomial")
        if self.kind == "refute" and self.candidate is None:
            raise AnalysisError("refute jobs need a candidate threshold")
        if self.kind == "refute" and self.config.lp_backend != REFUTE_BACKEND:
            object.__setattr__(self, "config", replace(
                self.config, lp_backend=REFUTE_BACKEND))

    # -- content addressing ------------------------------------------------

    def canonical_payload(self) -> dict[str, Any]:
        """Everything that determines the job's outcome, canonically."""
        from repro import __version__ as analyzer_version

        return {
            "version": JOB_SCHEMA_VERSION,
            # Release upgrades may change analysis results (encoding
            # fixes, invariant improvements); keying on the package
            # version keeps the on-disk cache from replaying them.
            "analyzer": analyzer_version,
            # The backend *name* is keyed through config.lp_backend; the
            # solver revision additionally invalidates cached results
            # when a backend's algorithm changes under an unchanged name
            # (a result computed by the old solver must never be
            # replayed as if produced by the new one).
            "lp_solver": {
                "backend": self.config.lp_backend,
                "revision": LP_SOLVER_REVISION,
            },
            "kind": self.kind,
            "old_source": self.old_source,
            "new_source": self.new_source,
            "config": asdict(self.config),
            "bound": self.bound,
            "candidate": self.candidate,
        }

    @property
    def key(self) -> str:
        """Content-addressed job key (hex SHA-256)."""
        canonical = json.dumps(
            self.canonical_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- (de)serialization for process transport ---------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "old_source": self.old_source,
            "new_source": self.new_source,
            "config": asdict(self.config),
            "name": self.name,
            "bound": self.bound,
            "candidate": self.candidate,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "AnalysisJob":
        payload = dict(data)
        payload["config"] = AnalysisConfig(**payload["config"])
        return AnalysisJob(**payload)


@dataclass
class JobResult:
    """Structured outcome of running one job.

    ``status`` describes the *execution*: ``"ok"`` (the analysis ran to
    completion, including a sound "no certificate" answer), ``"error"``
    (a structured failure was captured), ``"timeout"`` (the per-job
    budget expired) or ``"cancelled"`` (a portfolio raced past it).
    ``outcome`` is the analysis-level verdict (the
    :class:`~repro.core.results.AnalysisStatus` value) when the run
    completed.
    """

    job_key: str
    name: str
    kind: str
    status: str
    outcome: str | None = None
    threshold: float | None = None
    threshold_str: str | None = None
    message: str = ""
    error_type: str | None = None
    traceback: str | None = None
    seconds: float = 0.0
    timings: dict[str, float] = field(default_factory=dict)
    config_summary: dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    #: Which execution attempt produced this result (0 = first try).
    #: A volatile machine condition like ``seconds`` — stripped from
    #: canonical reports, never cached (cache entries are attempt 0 by
    #: construction: only the final, successful attempt is stored).
    attempts: int = 0
    #: Metrics-snapshot delta from the worker process that ran the job
    #: (:meth:`repro.obs.metrics.MetricsRegistry.diff`).  Merged into
    #: the parent registry by the executor and cleared afterwards; a
    #: volatile side channel, stripped from canonical reports.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: The full in-process analysis result object (e.g.
    #: :class:`~repro.core.results.DiffCostResult`).  Only populated on
    #: the inline execution path; never serialized.
    analysis: Any = None

    @property
    def succeeded(self) -> bool:
        """True iff the analysis completed with a positive verdict
        (threshold synthesized / bound proved / candidate refuted)."""
        return self.status == "ok" and self.outcome in (
            "threshold", "proved", "refuted"
        )

    @property
    def failed(self) -> bool:
        """True iff execution itself failed (error or timeout)."""
        return self.status in ("error", "timeout")

    def exact_threshold(self) -> Fraction | float | None:
        """The threshold as an exact value when one was recorded."""
        if self.threshold_str is not None:
            return Fraction(self.threshold_str)
        return self.threshold

    def to_dict(self) -> dict[str, Any]:
        # Not asdict(): it would recurse into the in-process `analysis`
        # object, which is deliberately excluded from serialization.
        return {
            "job_key": self.job_key,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "outcome": self.outcome,
            "threshold": self.threshold,
            "threshold_str": self.threshold_str,
            "message": self.message,
            "error_type": self.error_type,
            "traceback": self.traceback,
            "seconds": self.seconds,
            "timings": dict(self.timings),
            "config_summary": dict(self.config_summary),
            "cached": self.cached,
            "attempts": self.attempts,
            "metrics": dict(self.metrics),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "JobResult":
        payload = {k: v for k, v in data.items() if k != "analysis"}
        return JobResult(**payload)


def _config_summary(config: AnalysisConfig) -> dict[str, Any]:
    return {
        "degree": config.degree,
        "max_products": config.max_products,
        "lp_backend": config.lp_backend,
    }


#: What :func:`load_analysis` imports.
_ANALYSIS_MODULES = ("repro.core", *backend_modules())


def load_analysis() -> None:
    """Import what :func:`run_job` analyses with: :mod:`repro.core` and
    every LP backend's module, which bring numpy and scipy.

    A process that only keys jobs or replays cached results never calls
    this, so it never loads them.  The worker pool calls it before it
    forks a worker, which then inherits the modules, and
    :func:`~repro.engine.executor.execute_job` before a job's clock and
    budget start.  A second call finds everything in ``sys.modules``,
    or waits out the import another thread has under way.
    """
    for module in _ANALYSIS_MODULES:
        importlib.import_module(module)


def analysis_loaded() -> bool:
    """Whether :func:`load_analysis` has run here, or is running."""
    return all(name in sys.modules for name in _ANALYSIS_MODULES)


def run_job(job: AnalysisJob) -> JobResult:
    """Execute ``job`` in-process and return its structured result.

    Analysis-level failures (LP infeasible) are *successful* runs with
    ``outcome == "unknown"``; genuine errors propagate to the caller
    (the executor turns them into structured ``"error"`` results).
    """
    from repro.core import (
        analyze_diffcost,
        analyze_single_program,
        prove_symbolic_bound,
        refute_threshold,
    )
    from repro.lang import load_program
    from repro.obs import span
    from repro.poly import parse_polynomial

    start = time.perf_counter()
    old = load_program(job.old_source, name=f"{job.name or 'job'}_old")
    result = JobResult(
        job_key=job.key,
        name=job.name,
        kind=job.kind,
        status="ok",
        config_summary=_config_summary(job.config),
    )

    with span(f"job:{job.kind}", cat="engine",
              args={"job_key": job.key, "name": job.name,
                    "degree": job.config.degree}):
        if job.kind == "single":
            analysis = analyze_single_program(old, job.config)
            threshold = analysis.precision
        else:
            new = load_program(job.new_source,
                               name=f"{job.name or 'job'}_new")
            if job.kind == "diff":
                analysis = analyze_diffcost(old, new, job.config)
                threshold = analysis.threshold
            elif job.kind == "bound":
                analysis = prove_symbolic_bound(
                    old, new, parse_polynomial(job.bound), job.config
                )
                threshold = None
            else:  # refute
                analysis = refute_threshold(old, new, job.candidate,
                                            job.config)
                threshold = analysis.guaranteed_difference

    result.outcome = analysis.status.value
    result.message = analysis.message
    if threshold is not None:
        result.threshold = float(threshold)
        if isinstance(threshold, Fraction):
            result.threshold_str = str(threshold)
    result.timings = dict(analysis.timings)
    result.seconds = time.perf_counter() - start
    result.analysis = analysis
    return result
