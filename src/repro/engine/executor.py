"""Parallel job execution on a long-lived worker pool.

The executor is the engine's scheduling layer:

- ``jobs == 1`` runs inline (no pool, no serialization round-trip), so
  single-worker runs stay byte-identical to the historical sequential
  path and keep full in-process result objects;
- ``jobs > 1`` fans jobs out to a long-lived
  :class:`~repro.engine.scheduler.WorkerPool` — one pool per executor,
  created on first parallel use and reused across every ``run`` /
  ``run_escalating_many`` call until :meth:`ParallelExecutor.close`.
  Workers receive jobs as plain dicts and return :class:`JobResult`
  dicts, so nothing analyzer-internal crosses process boundaries;
- per-job timeouts are enforced *inside* the worker with an interval
  timer (``SIGALRM``), which turns an overrunning job into a
  structured ``"timeout"`` result without killing the worker slot.
  The alarm fires between Python bytecodes, so multi-phase jobs are
  cut off promptly; one long uninterruptible C-level solve (scipy's
  HiGHS) is only cut off when it returns to Python — the pure-Python
  ``exact`` backend is interruptible throughout;
- every exception is captured as a structured ``"error"`` result with
  the exception type, message and traceback — a poisoned program pair
  cannot take down a batch run.

Results always come back in submission order regardless of completion
order, which keeps ``--jobs N`` output deterministic.
"""

from __future__ import annotations

import signal
import time
import traceback as traceback_module
import weakref
from dataclasses import dataclass

from repro.engine.cache import ResultCache
from repro.engine.jobs import AnalysisJob, JobResult, load_analysis, run_job
from repro.engine.scheduler import EscalationScheduler, Task, WorkerPool
from repro.errors import AnalysisError
from repro.faults import InjectedFaultError, active_plan, fault_point
from repro.obs import get_logger, get_registry

_LOG = get_logger("engine.executor")

#: Error types the retry layer treats as *transient* infrastructure
#: failures: the job itself is fine, the machine hiccupped.  Everything
#: else (an ``AnalysisError``, a parse failure, an arithmetic bug) is
#: deterministic — rerunning a content-addressed job can only reproduce
#: it, so those fail fast with the original structured failure.
RETRYABLE_ERROR_TYPES = frozenset({
    "BrokenWorker",       # worker process died mid-job (crash, OOM kill)
    "WorkerHung",         # heartbeat hang detector killed the worker
    "InjectedFaultError",  # repro.faults job.error site
    "OSError",
    "ConnectionError",
    "ConnectionResetError",
    "BrokenPipeError",
    "EOFError",
    "InterruptedError",
    "TimeoutError",
})

#: Bounded exponential backoff before retry attempt ``n`` (1-based):
#: ``min(CAP, BASE * 2**(n-1))`` seconds, slept in whatever process
#: re-executes the job — a worker slot, never the scheduling loop.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 2.0


def retry_backoff(attempt: int) -> float:
    """Seconds to sleep before retry ``attempt`` (0 for the first run)."""
    if attempt < 1:
        return 0.0
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * 2 ** (attempt - 1))


def is_retryable(result: JobResult) -> bool:
    """Whether ``result`` is a transient failure worth re-executing.

    Timeouts count: on a loaded machine a budget expiry says more about
    the machine than the job (and an honestly slow job just times out
    again, bounded by ``max_retries``).  Deterministic analysis errors
    never count — see :data:`RETRYABLE_ERROR_TYPES`.
    """
    if result.status == "timeout":
        return True
    return (result.status == "error"
            and result.error_type in RETRYABLE_ERROR_TYPES)


class JobTimeoutError(Exception):
    """Raised inside a worker when the per-job budget expires."""


@dataclass
class ExecutorStats:
    """Counters of one executor run."""

    submitted: int = 0
    completed: int = 0
    errors: int = 0
    timeouts: int = 0
    cancelled: int = 0
    cache_hits: int = 0
    retries: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


def _job_fault(site: str, job: AnalysisJob, attempt: int):
    """Consult the fault plan for a job-scoped site (cheap fast path:
    one lookup when no plan is active, before any key hashing)."""
    if active_plan() is None:
        return None
    return fault_point(site, name=job.name, key=job.key, kind=job.kind,
                       attempt=attempt)


def execute_job(job: AnalysisJob, timeout: float | None = None,
                attempt: int = 0) -> JobResult:
    """Run one job with structured failure capture and an optional
    wall-clock budget (seconds).  Never raises, unless the analysis
    fails to import.

    ``attempt`` is the retry ordinal: retries sleep their exponential
    backoff here — before the budget timer arms, so backoff never eats
    the job's own budget — and fault-injection sites see the attempt
    number (a rule with ``max_attempts=1`` faults the first run and
    lets the retry through).  The analysis is imported before the
    clock starts too, so neither the budget nor ``seconds`` counts it.
    """
    if attempt:
        time.sleep(retry_backoff(attempt))
    delay = _job_fault("job.delay", job, attempt)
    if delay is not None:
        time.sleep(delay.seconds)
    load_analysis()
    start = time.perf_counter()
    try:
        error = _job_fault("job.error", job, attempt)
        if error is not None:
            raise InjectedFaultError(
                "injected transient fault"
                + (f": {error.note}" if error.note else "")
            )
        if timeout is not None:
            result = _run_with_alarm(job, timeout)
        else:
            result = run_job(job)
    except JobTimeoutError:
        result = JobResult(
            job_key=job.key,
            name=job.name,
            kind=job.kind,
            status="timeout",
            error_type="JobTimeoutError",
            message=f"job exceeded its {timeout:g}s budget",
            seconds=time.perf_counter() - start,
        )
        _LOG.warning("job %s (%s) timed out after %.3fs",
                     job.name or job.key[:12], job.kind, result.seconds)
    except Exception as error:  # noqa: BLE001 — structured capture is the point
        result = JobResult(
            job_key=job.key,
            name=job.name,
            kind=job.kind,
            status="error",
            error_type=type(error).__name__,
            message=str(error),
            traceback=traceback_module.format_exc(limit=20),
            seconds=time.perf_counter() - start,
        )
        _LOG.warning("job %s (%s) failed: %s: %s",
                     job.name or job.key[:12], job.kind,
                     result.error_type, result.message)
    registry = get_registry()
    registry.counter(
        "repro_jobs_total", "Analysis jobs executed, by kind and status.",
        ("kind", "status"),
    ).inc(kind=job.kind, status=result.status)
    registry.histogram(
        "repro_job_seconds", "Wall-clock seconds per executed job.",
        ("kind",),
    ).observe(result.seconds, kind=job.kind)
    return result


def _run_with_alarm(job: AnalysisJob, timeout: float) -> JobResult:
    """Run with a ``SIGALRM`` interval timer when the platform allows.

    Pool workers always qualify (the job runs in the worker's main
    thread).  Inline execution from a non-main thread of a host
    application, or a platform without ``SIGALRM``, cannot install the
    timer — there the job runs without an enforced budget rather than
    failing before the analysis starts."""

    armed = True

    def _on_alarm(signum, frame):
        if armed:
            raise JobTimeoutError()
        # A late alarm that fired while the completed result was being
        # returned: swallow it instead of discarding the result.

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except (AttributeError, ValueError):
        return run_job(job)
    # Repeating: a raise that lands in a weakref callback or finalizer
    # (run by the garbage collector mid-job) is swallowed by the
    # interpreter, and the next alarm raises again.
    signal.setitimer(signal.ITIMER_REAL, timeout, timeout)
    try:
        return run_job(job)
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        # Drain an alarm that was generated before the disarm but not
        # yet delivered — restoring a default disposition while it is
        # pending would kill the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.signal(signal.SIGALRM, previous)


class ParallelExecutor:
    """Runs batches of :class:`AnalysisJob` with caching and timeouts."""

    def __init__(self, jobs: int = 1, timeout: float | None = None,
                 cache: ResultCache | None = None,
                 max_retries: int = 2,
                 hang_timeout: float | None = None,
                 quarantine_after: int = 3):
        if jobs < 1:
            raise AnalysisError("jobs must be at least 1")
        if max_retries < 0:
            raise AnalysisError("max_retries must be >= 0")
        self.jobs = jobs
        self.timeout = timeout
        self.cache = cache
        #: Extra executions granted to a transiently failed job (see
        #: :func:`is_retryable`); 0 disables the retry layer.
        self.max_retries = max_retries
        #: Passed to the pool: kill workers silent for this long
        #: (``None`` = hang detection off) and park a slot after this
        #: many consecutive crashes.
        self.hang_timeout = hang_timeout
        self.quarantine_after = quarantine_after
        self.stats = ExecutorStats()
        self._pool: WorkerPool | None = None
        #: How many worker pools this executor ever built — one for a
        #: whole batch, however many pairs it has.
        self.pools_created = 0
        #: Optional observer invoked with every accounted
        #: :class:`JobResult` (completions, cache hits, cancellations,
        #: failures) as it happens.  Batch runners use it to keep a
        #: partial-progress record, so an interrupted run can still
        #: flush everything that finished.
        self.on_result = None

    # -- pool lifecycle ----------------------------------------------------

    @property
    def pool(self) -> WorkerPool | None:
        """The long-lived worker pool (``None`` until first parallel use)."""
        return self._pool

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.closed:
            # A weak hook: a bound method would make executor and pool a
            # reference cycle, so an executor nobody closed would leave
            # its workers to the cyclic garbage collector, which can
            # reap them at any later point (inside another job's alarm
            # budget, say) instead of when the last reference goes.
            retry = weakref.WeakMethod(self._retry)
            self._pool = WorkerPool(
                self.jobs, timeout=self.timeout,
                hang_timeout=self.hang_timeout,
                quarantine_after=self.quarantine_after,
                retry=lambda *args: retry()(*args),
            )
            self.pools_created += 1
        return self._pool

    def pool_health(self) -> dict:
        """Supervision snapshot of the worker pool (``/healthz``); a
        zeroed schema-stable dict before the pool exists (or inline)."""
        if self._pool is not None and not self._pool.closed:
            return self._pool.health()
        return WorkerPool.empty_health(0 if self.jobs == 1 else self.jobs)

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the executor stays
        usable — the next parallel run builds a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- cache plumbing ----------------------------------------------------

    def _lookup(self, job: AnalysisJob) -> JobResult | None:
        """Probe the cache without touching executor stats — hits are
        only accounted when actually *used* (an escalation may cancel a
        pre-fetched rung, which must not count as a cache hit)."""
        if self.cache is None:
            return None
        hit = self.cache.get(job.key)
        if hit is not None:
            hit.name = job.name  # display name may differ across runs
        return hit

    def _use_hit(self, hit: JobResult) -> JobResult:
        self.stats.cache_hits += 1
        return self._account(hit)

    def _store(self, job: AnalysisJob, result: JobResult) -> None:
        if self.cache is not None:
            self.cache.put(job, result)

    def _account(self, result: JobResult) -> JobResult:
        if result.metrics:
            # The worker's metrics-snapshot delta rides home on the
            # result; fold it into this process's registry exactly once.
            get_registry().merge(result.metrics)
            result.metrics = {}
        if result.status == "error":
            self.stats.errors += 1
        elif result.status == "timeout":
            self.stats.timeouts += 1
        elif result.status == "cancelled":
            self.stats.cancelled += 1
        else:
            self.stats.completed += 1
        if self.on_result is not None:
            self.on_result(result)
        return result

    # -- retry classification ----------------------------------------------

    def _retry(self, job: AnalysisJob, result: JobResult,
               attempt: int) -> bool:
        """Whether a finished attempt is swallowed and run again — the
        one retry policy of the inline loop and the worker pool.

        A retried attempt never reaches :meth:`_finish` /
        :meth:`_account`, so error counters and ``on_result`` records
        stay identical to a fault-free run — only ``stats.retries``
        (volatile, like timings) says anything happened.  Its worker
        metrics delta is still folded in: the attempt really executed.
        """
        if attempt >= self.max_retries or not is_retryable(result):
            return False
        if result.metrics:
            get_registry().merge(result.metrics)
            result.metrics = {}
        self.stats.retries += 1
        get_registry().counter(
            "repro_job_retries_total",
            "Transient job failures swallowed by the retry layer.",
            ("error",),
        ).inc(error=result.error_type or result.status)
        _LOG.warning(
            "retrying job %s (%s) after transient %s (attempt %d/%d): %s",
            job.name or job.key[:12], job.kind,
            result.error_type or result.status,
            attempt + 1, self.max_retries, result.message,
        )
        return True

    def _execute_with_retry(self, job: AnalysisJob) -> JobResult:
        """Inline (``jobs == 1``) execution with the retry loop."""
        attempt = 0
        while True:
            result = execute_job(job, self.timeout, attempt=attempt)
            if not self._retry(job, result, attempt):
                result.attempts = attempt
                return result
            attempt += 1

    # -- execution ---------------------------------------------------------

    def run(self, jobs: list[AnalysisJob]) -> list[JobResult]:
        """Execute all jobs; results come back in submission order."""
        start = time.perf_counter()
        self.stats.submitted += len(jobs)
        results: list[JobResult | None] = [None] * len(jobs)
        pending: list[tuple[int, AnalysisJob]] = []
        for index, job in enumerate(jobs):
            hit = self._lookup(job)
            if hit is not None:
                results[index] = self._use_hit(hit)
            else:
                pending.append((index, job))

        if pending:
            if self.jobs == 1:
                for index, job in pending:
                    results[index] = self._finish(
                        job, self._execute_with_retry(job)
                    )
            else:
                self._run_pool(pending, results)
        self.stats.seconds += time.perf_counter() - start
        return [result for result in results if result is not None]

    def _finish(self, job: AnalysisJob, result: JobResult) -> JobResult:
        self._store(job, result)
        return self._account(result)

    def _run_pool(self, pending: list[tuple[int, AnalysisJob]],
                  results: list[JobResult | None]) -> None:
        pool = self._ensure_pool()
        waiting = {}
        for order, (index, job) in enumerate(pending):
            task = pool.submit(job, priority=(0, order))
            waiting[task.id] = (index, job)
        while waiting:
            completed = pool.wait()
            if not completed:
                # Nothing running and nothing dispatchable: the pool
                # stalled (it should be impossible with size >= 1, but
                # an infinite wait would be worse than a hard error).
                _LOG.error("worker pool stalled with %d task(s) "
                           "outstanding", len(waiting))
                for index, job in waiting.values():
                    results[index] = self._finish(job, JobResult(
                        job_key=job.key, name=job.name, kind=job.kind,
                        status="error", error_type="SchedulerError",
                        message="worker pool stalled with tasks outstanding",
                    ))
                return
            for task in completed:
                entry = waiting.pop(task.id, None)
                if entry is None:
                    continue
                index, job = entry
                results[index] = self._finish(job, task.result)

    # -- asynchronous single-job submission --------------------------------

    def submit_job(self, job: AnalysisJob, on_done,
                   priority: tuple = ()) -> Task | None:
        """Submit one job for callback-style completion (the serving
        front-end's entry point).

        A cache hit completes synchronously: ``on_done(result)`` is
        called before this method returns and the return value is
        ``None``.  Otherwise the job goes to the long-lived worker pool
        and the returned task completes through :meth:`poll` —
        ``on_done`` then fires on the polling thread with the finished
        (cached + accounted) result of the final attempt, or before
        this returns when no worker could be started for any attempt.
        The task can be withdrawn with :meth:`cancel_task`.
        """
        self.stats.submitted += 1
        hit = self._lookup(job)
        if hit is not None:
            on_done(self._use_hit(hit))
            return None
        return self._ensure_pool().submit(
            job, priority=priority,
            on_done=lambda task: on_done(self._finish(job, task.result)),
        )

    def poll(self, wake) -> int:
        """Drive the pool until a task completes or ``wake`` becomes
        readable, firing the :meth:`submit_job` callbacks of finished
        tasks; returns how many finished.  With no task running this
        waits on ``wake`` alone (see :meth:`WorkerPool.wait`)."""
        return len(self._ensure_pool().wait(wake))

    def cancel_task(self, task: Task) -> bool:
        """Withdraw a :meth:`submit_job` task.

        ``True`` means the job will never produce a result (its
        ``on_done`` never fires) and a cancellation was accounted.
        ``False`` means it completed in the race — its result was
        drained and ``on_done`` has already fired.
        """
        if self._pool is None or not self._pool.cancel(task):
            return False
        self.stats.cancelled += 1
        return True

    def run_escalating(self, jobs: list[AnalysisJob]) -> list[JobResult]:
        """Run one ordered ladder, stopping at the first success.

        All rungs may execute concurrently, but the *selection* walks
        the ladder in order: once rung ``i`` succeeds, every rung after
        it is cancelled (a rung still running gets exactly its worker
        terminated) and their outcomes never influence the caller, so
        the chosen rung is deterministic regardless of completion
        order.  Completed loser rungs are still harvested into the
        result cache before being dropped from selection.
        """
        return self.run_escalating_many([jobs])[0]

    def run_escalating_many(self, ladders: list[list[AnalysisJob]],
                            ) -> list[list[JobResult]]:
        """Run many escalation ladders, overlapping them on one pool.

        The cross-pair scheduler of ``first``-mode portfolio batches:
        several ladders (``max(2, pool size)``) are in flight at once on
        the executor's long-lived worker pool, so pair B's cheap first
        rung runs while pair A's expensive late rung is still solving.
        Per-ladder selection is the same as :meth:`run_escalating` —
        chosen rungs are byte-identical to a ``jobs == 1`` run.
        """
        start = time.perf_counter()
        if self.jobs == 1:
            results = [self._escalate_inline(jobs) for jobs in ladders]
        else:
            scheduler = EscalationScheduler(self, self._ensure_pool())
            results = scheduler.run(ladders)
        self.stats.seconds += time.perf_counter() - start
        return results

    def _escalate_inline(self, jobs: list[AnalysisJob]) -> list[JobResult]:
        """The sequential ladder walk (``jobs == 1``), the behavioral
        reference for the scheduler's parallel selection."""
        if not jobs:
            return []
        self.stats.submitted += len(jobs)
        results: list[JobResult] = []
        stopped = False
        for job in jobs:
            if stopped:
                results.append(self._account(self._cancelled(job)))
                continue
            hit = self._lookup(job)
            if hit is not None:
                result = self._use_hit(hit)
            else:
                result = self._finish(job, self._execute_with_retry(job))
            results.append(result)
            if result.succeeded:
                stopped = True
        return results

    def _cancelled(self, job: AnalysisJob) -> JobResult:
        return JobResult(
            job_key=job.key,
            name=job.name,
            kind=job.kind,
            status="cancelled",
            message="a lower portfolio rung already succeeded",
        )

