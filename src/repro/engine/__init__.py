"""Parallel portfolio analysis engine.

The orchestration layer over the single-pair analyzers of
:mod:`repro.core`:

- :mod:`repro.engine.jobs` — the content-addressed job model
  (:class:`AnalysisJob` / :class:`JobResult`);
- :mod:`repro.engine.scheduler` — the long-lived worker pool with
  per-task process tracking and the cross-pair escalation scheduler
  (:class:`WorkerPool` / :class:`EscalationScheduler`);
- :mod:`repro.engine.executor` — process-pool execution with per-job
  timeouts and structured failure capture
  (:class:`ParallelExecutor`);
- :mod:`repro.engine.cache` — the persistent SQLite result cache
  (:class:`ResultCache`);
- :mod:`repro.engine.portfolio` — racing an escalating configuration
  ladder per pair (:func:`run_portfolio`);
- :mod:`repro.engine.batch` — directory-level batch runs and reporting
  (:func:`run_batch`).

Every scaling entry point (the ``batch`` CLI, ``suite --jobs``, CI
gates) goes through this package.
"""

from repro.engine.jobs import AnalysisJob, JobResult, run_job
from repro.engine.cache import ResultCache
from repro.engine.scheduler import EscalationScheduler, Task, WorkerPool
from repro.engine.executor import (
    ExecutorStats,
    JobTimeoutError,
    ParallelExecutor,
    execute_job,
)
from repro.engine.portfolio import (
    DEFAULT_LADDER,
    PortfolioResult,
    ladder_configs,
    portfolio_jobs,
    run_portfolio,
    select_result,
)
from repro.engine.batch import (
    BatchReport,
    ProgramPair,
    batch_to_json,
    discover_pairs,
    format_batch_table,
    pair_shard_index,
    run_batch,
    shard_pairs,
)

__all__ = [
    "AnalysisJob",
    "JobResult",
    "run_job",
    "ResultCache",
    "EscalationScheduler",
    "Task",
    "WorkerPool",
    "ExecutorStats",
    "JobTimeoutError",
    "ParallelExecutor",
    "execute_job",
    "DEFAULT_LADDER",
    "PortfolioResult",
    "ladder_configs",
    "portfolio_jobs",
    "run_portfolio",
    "select_result",
    "BatchReport",
    "ProgramPair",
    "batch_to_json",
    "discover_pairs",
    "format_batch_table",
    "pair_shard_index",
    "run_batch",
    "shard_pairs",
]
