"""Long-lived worker pool and cross-pair escalation scheduling.

The scheduling layer under :class:`~repro.engine.executor.ParallelExecutor`.
Two pieces:

- :class:`WorkerPool` — a pool of analysis worker processes that lives
  for a whole batch (one handle per batch, not per pair).  Unlike
  ``concurrent.futures``, the pool tracks which *process* runs which
  *task*, so cancelling one abandoned portfolio rung terminates exactly
  that rung's worker and leaves the rest of the pool running.  This is
  what lets ``first``-mode portfolios share one pool across pairs
  instead of rebuilding a pool per pair.  The pool also owns the retry
  path: a transiently failed attempt goes back to the queue as the
  same task, so everything above the pool sees final attempts only.
- :class:`EscalationScheduler` — an event-driven completion loop that
  overlaps the escalation ladders of many pairs on one pool: while pair
  A's ``d2K2`` rung is solving, pair B's ``d1K1`` rung runs.  Selection
  stays per-pair ladder-order deterministic: rung ``i`` of a pair is
  only judged once every rung ``< i`` has a verdict, so the chosen
  rungs are byte-identical to a sequential ``--jobs 1`` run even though
  rungs of many pairs complete in arbitrary order.

Tasks are dispatched lowest ``(rung, pair)`` first, so cheap first
rungs of waiting pairs get workers before expensive late rungs — the
portfolio's latency profile, applied across the whole batch.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import threading
import time
import weakref
from collections import deque
from multiprocessing.connection import wait as _wait_ready

from repro.engine.jobs import (AnalysisJob, JobResult, analysis_loaded,
                               load_analysis)
from repro.errors import AnalysisError
from repro.obs import get_logger, get_registry, setup_from_env

_LOG = get_logger("engine.scheduler")

#: Exit code of a worker killed by an injected ``worker.crash`` fault —
#: distinguishable from real crashes in logs, identical in handling.
_CRASH_EXIT = 66

#: Worker→parent message tagging a liveness heartbeat (task ids are
#: ints, so the string tag cannot collide with a result message).
_HEARTBEAT = ("beat", None)

#: Task lifecycle: PENDING (queued) → RUNNING (on a worker) → DONE
#: (result available) or DROPPED (cancelled before a result existed).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
DROPPED = "dropped"


class Task:
    """One submitted job with its scheduling state.

    ``state`` transitions only inside the pool's (single-threaded)
    bookkeeping, so callers can read it without racing a worker: a task
    seen as ``DONE`` has its ``result`` populated.  A transient failure
    the pool's ``retry`` hook accepts sends the task back to
    ``PENDING`` with ``attempt + 1`` instead: callers only ever see a
    job's final attempt.

    ``on_done`` is the pool's async-safe completion hook: it fires with
    the task exactly once, on every path that produces a final result
    (a normal completion, a worker death, a worker that could not be
    started, or the drain inside a lost cancel race) — never for a
    genuinely cancelled task — and always on the thread driving the
    pool.  Callers bridging into an event loop wrap it in
    ``loop.call_soon_threadsafe``.
    """

    __slots__ = ("id", "job", "priority", "state", "result", "worker",
                 "on_done", "attempt")

    def __init__(self, task_id: int, job: AnalysisJob, priority: tuple,
                 on_done=None):
        self.id = task_id
        self.job = job
        self.priority = priority
        self.state = PENDING
        self.result: JobResult | None = None
        self.worker: _Worker | None = None
        self.on_done = on_done
        #: Which execution of the job is queued, running or final
        #: (0 = first); fault injection and backoff see it.
        self.attempt = 0


def _scrub_inherited_fds(keep: set[int]) -> None:
    """Close every open descriptor except ``keep`` (best-effort).

    Reads ``/proc/self/fd`` — the listing is materialized before any
    close, so closing the listing's own transient fd mid-walk is
    harmless.  On platforms without procfs the scrub is skipped; the
    worker merely keeps its inherited descriptors, as it always did.
    """
    import os

    try:
        inherited = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover — no procfs
        return
    for fd in inherited:
        if fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass


def _worker_main(conn, heartbeat: float = 1.0) -> None:
    """Entry point of one pool worker: a receive/execute/send loop.

    Jobs arrive as plain dicts and results leave as dicts, so nothing
    analyzer-internal crosses the pipe.  The per-job timeout is
    enforced inside :func:`~repro.engine.executor.execute_job` with an
    interval timer; a ``None`` message (or a closed pipe) ends the
    worker.

    The first act is closing every inherited descriptor except stdio
    and the job pipe.  A forked worker inherits whatever the parent had
    open — under the serving front-end that includes live client
    sockets, and a long-lived worker holding a duplicate keeps a
    connection the event loop already closed from ever delivering its
    FIN (clients reading to EOF would hang forever).

    While a job executes, a daemon thread sends :data:`_HEARTBEAT`
    messages up the pipe every ``heartbeat`` seconds — the parent's
    hang detector treats their absence as a wedged process.  Idle
    workers stay silent, so pipes of parked workers never fill.
    """
    import os
    import signal
    import threading

    from repro.engine.executor import execute_job
    from repro.faults import active_plan, fault_point

    # The pool kills workers with SIGTERM; an inherited handler (the
    # serve loop's no-op, the CLI's KeyboardInterrupt) would ignore it
    # or print a traceback.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        # A parent event loop's wakeup fd (asyncio's self-pipe) is
        # inherited as process-wide signal state; once the scrub closes
        # the fd, every delivered signal would whine about it.
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover — non-main thread
        pass
    _scrub_inherited_fds(keep={0, 1, 2, conn.fileno()})
    # Observability travels by environment: REPRO_LOG configures this
    # process's handler, REPRO_TRACE is read lazily by span().
    setup_from_env()
    registry = get_registry()

    # Result sends and heartbeat sends share the pipe; Connection.send
    # is not documented thread-safe, so both take the lock.
    send_lock = threading.Lock()
    busy = threading.Event()

    def _beat() -> None:
        while True:
            busy.wait()
            try:
                with send_lock:
                    conn.send(_HEARTBEAT)
            except (BrokenPipeError, OSError):
                return
            time.sleep(heartbeat)

    threading.Thread(target=_beat, daemon=True,
                     name="repro-worker-heartbeat").start()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, payload, timeout, attempt = message
        job = AnalysisJob.from_dict(payload)
        if active_plan() is not None:
            context = dict(name=job.name, key=job.key, kind=job.kind,
                           attempt=attempt)
            if fault_point("worker.crash", **context) is not None:
                os._exit(_CRASH_EXIT)
            hang = fault_point("worker.hang", **context)
            if hang is not None:
                # A wedged process: heartbeats stop (busy stays clear)
                # while the main thread sleeps.  With hang detection on,
                # the parent kills this worker mid-sleep; without it,
                # the job merely starts late.
                time.sleep(hang.seconds)
        busy.set()
        before = registry.snapshot()
        result = execute_job(job, timeout, attempt=attempt)
        busy.clear()
        # Ship this job's metric increments home as a snapshot delta;
        # the parent folds them into its registry when it accounts the
        # result, so fleet totals match a single-process run.
        result.metrics = registry.diff(before)
        try:
            with send_lock:
                conn.send((task_id, result.to_dict()))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One worker process and the duplex pipe to it."""

    __slots__ = ("process", "conn", "task", "last_beat")

    def __init__(self, context, heartbeat: float):
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn, heartbeat), daemon=True
        )
        try:
            self.process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self.conn = parent_conn
        self.task: Task | None = None
        #: Last liveness signal (monotonic): spawn, dispatch, or
        #: heartbeat — whichever came latest.
        self.last_beat = time.monotonic()


def _import_analysis(done) -> None:
    """Helper-thread body: import the analysis, then close ``done``."""
    try:
        load_analysis()
    except Exception:
        pass  # the pool's own load_analysis() raises it again
    finally:
        done.close()


def _terminate_workers(workers: list) -> None:
    """Finalizer: reclaim worker processes of an abandoned pool."""
    for worker in list(workers):
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()


def _error(task: Task, error_type: str, message: str) -> JobResult:
    """A structured ``"error"`` result for an attempt the pool ended."""
    return JobResult(job_key=task.job.key, name=task.job.name,
                     kind=task.job.kind, status="error",
                     error_type=error_type, message=message)


class WorkerPool:
    """A long-lived pool of analysis workers with per-task tracking.

    Workers are spawned lazily up to ``size`` and then reused across
    submissions — a batch pays process startup once, not once per pair.
    The pool records which worker runs which task, so :meth:`cancel`
    on a running task terminates exactly that worker; everyone else
    keeps solving.

    ``timeout`` is every job's wall-clock budget, enforced inside the
    worker.  ``retry(job, result, attempt) -> bool`` (optional) is
    asked about every finished attempt: when it says yes, the same
    task goes back to the queue with ``attempt + 1`` — same id, same
    priority, so it keeps its place — instead of completing.

    All bookkeeping happens in the caller's thread (``submit`` /
    ``wait`` / ``cancel``); the pool is not itself thread-safe, which
    is fine for the executor's single-threaded event loops.
    """

    def __init__(self, size: int, *, timeout: float | None = None,
                 hang_timeout: float | None = None,
                 quarantine_after: int = 3, retry=None):
        if size < 1:
            raise AnalysisError("worker pool size must be at least 1")
        if hang_timeout is not None and hang_timeout <= 0:
            raise AnalysisError("hang_timeout must be positive (or None)")
        if quarantine_after < 1:
            raise AnalysisError("quarantine_after must be at least 1")
        self.size = size
        self.timeout = timeout
        self.retry = retry
        #: Heartbeat period of workers; with hang detection on, clamped
        #: so several beats fit inside one hang window (a single missed
        #: scheduling quantum must not read as a wedge).
        self.heartbeat = 1.0
        if hang_timeout is not None:
            self.heartbeat = min(1.0, max(hang_timeout / 4, 0.02))
        #: Kill a worker whose running task saw no heartbeat for this
        #: long (``None`` = hang detection off); the attempt ends with
        #: a structured ``WorkerHung`` error.
        self.hang_timeout = hang_timeout
        #: After this many *consecutive* worker crashes, park one worker
        #: slot (capacity floor 1) — a poisoned machine degrades to a
        #: smaller pool instead of a crash loop.
        self.quarantine_after = quarantine_after
        self._context = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._queue: list[tuple[tuple, int, Task]] = []
        self._sequence = itertools.count()
        #: Workers ever started / workers killed by cancellation.  The
        #: latter must stay 0 when every rung ran to completion — a
        #: nonzero count on a fully-finished ladder is the cancel/done
        #: race this pool exists to close.
        self.spawned = 0
        self.terminated = 0
        #: Supervision counters: workers that died mid-task (crash or
        #: OOM), workers killed by the hang detector, spawns that
        #: replaced a dead worker, and slots parked by quarantine.
        self.crashed = 0
        self.hung = 0
        self.respawned = 0
        self.quarantined = 0
        self._crash_streak = 0
        self._peak = 0
        #: ``(ready, thread)`` of the analysis import a helper thread
        #: runs while tasks wait for the first worker.
        self._import: tuple | None = None
        self.closed = False
        self._finalizer = weakref.finalize(
            self, _terminate_workers, self._workers
        )

    # -- submission and dispatch -------------------------------------------

    def submit(self, job: AnalysisJob, priority: tuple = (),
               dispatch: bool = True, on_done=None) -> Task:
        """Queue ``job``; lower ``priority`` tuples dispatch first.

        ``dispatch=False`` only queues: a caller submitting a related
        batch (all rungs of several pairs) defers dispatch to one
        :meth:`flush` so priorities order the whole wave, not the
        submission interleaving.

        ``on_done`` (optional) is invoked with the task when it
        completes — see :class:`Task`; if no worker can be started for
        it, that happens before this returns.
        """
        if self.closed:
            raise AnalysisError("worker pool is closed")
        task = Task(next(self._sequence), job, priority, on_done)
        self._enqueue(task)
        if dispatch:
            self._dispatch()
        return task

    def flush(self) -> None:
        """Dispatch queued tasks to every idle (or spawnable) worker."""
        self._dispatch()

    def _enqueue(self, task: Task) -> None:
        task.state = PENDING
        task.worker = None
        heapq.heappush(self._queue, (task.priority, task.id, task))

    def _dispatch(self) -> list[Task]:
        """Hand queued tasks to idle (or spawnable) workers; returns the
        tasks that failed because no worker could be started."""
        failed: list[Task] = []
        while True:
            task = self._pop_pending()
            if task is None:
                return failed
            try:
                worker = self._acquire_worker()
            except (OSError, ImportError) as error:
                # Descriptors or processes ran out (transient: the retry
                # hook may run it again), or the analysis would not
                # import.  The attempt fails as if its worker had died,
                # instead of vanishing with the exception.
                _LOG.error("could not start a worker for %s: %s",
                           task.job.name or "a job", error)
                if self._finish(task, _error(task, type(error).__name__,
                                             str(error))):
                    failed.append(task)
                continue
            if worker is None:
                self._enqueue(task)
                return failed
            task.state = RUNNING
            task.worker = worker
            worker.task = task
            worker.last_beat = time.monotonic()
            try:
                worker.conn.send((task.id, task.job.to_dict(), self.timeout,
                                  task.attempt))
            except (BrokenPipeError, OSError):
                # The worker died while idle.  Requeue the task and
                # retire the corpse; the next loop turn acquires (or
                # spawns) a replacement.  A fresh worker's send always
                # lands in the pipe buffer, so this cannot spin.
                self._retire(worker)
                self._enqueue(task)

    def _pop_pending(self) -> Task | None:
        while self._queue:
            _, _, task = heapq.heappop(self._queue)
            if task.state == PENDING:
                return task
        return None

    @property
    def capacity(self) -> int:
        """Worker slots currently usable (``size`` minus quarantined,
        never below 1 — a fully-parked pool would deadlock)."""
        return max(1, self.size - self.quarantined)

    def _acquire_worker(self) -> _Worker | None:
        if self._idle:
            return self._idle.pop()
        if len(self._workers) < self.capacity:
            if not self._analysis_imported():
                return None
            worker = _Worker(self._context, self.heartbeat)
            self._workers.append(worker)
            self.spawned += 1
            if len(self._workers) <= self._peak:
                # Refilling a slot a dead worker vacated, not growing
                # the pool: this spawn is a supervised respawn.
                self.respawned += 1
                get_registry().counter(
                    "repro_pool_workers_respawned_total",
                    "Workers spawned to replace crashed/hung workers.",
                ).inc()
            else:
                self._peak = len(self._workers)
            get_registry().counter(
                "repro_pool_workers_spawned_total",
                "Worker processes ever started by a pool.",
            ).inc()
            _LOG.debug("spawned worker pid=%d (%d/%d)",
                       worker.process.pid, len(self._workers), self.size)
            return worker
        return None

    def _analysis_imported(self) -> bool:
        """Whether a worker may fork: the analysis is imported first, so
        workers share it copy-on-write and no job's budget pays for it.

        The import runs on a helper thread while tasks stay queued, and
        :meth:`wait` dispatches them once it ends.  So the thread that
        drives the pool goes on answering cache hits meanwhile, for the
        second or so a fresh ``serve``'s first miss spends here.
        """
        if self._import is None and not analysis_loaded():
            ready, done = multiprocessing.Pipe(duplex=False)
            thread = threading.Thread(target=_import_analysis, args=(done,),
                                      daemon=True)
            thread.start()
            self._import = (ready, thread)
        if self._import is not None:
            ready, thread = self._import
            if not ready.poll():
                return False
            thread.join()
            ready.close()
            self._import = None
        # At once; or it raises the import's error, or it waits out an
        # import another thread has under way: no fork copies half of one.
        load_analysis()
        return True

    # -- completion --------------------------------------------------------

    def wait(self, wake=None) -> list[Task]:
        """Block until a running task completes or ``wake`` is readable.

        ``wake`` is anything :func:`multiprocessing.connection.wait`
        accepts, such as a socket; reading it is the caller's job.  With
        no task running the wait is on ``wake`` alone (and on the
        analysis import, while tasks wait for it), and without either
        there is nothing to wait for, so it returns at once.

        Returns the newly completed tasks: empty when ``wake`` ended the
        wait or nothing ran.  Queued tasks — re-queued retries among
        them — are dispatched to any workers this frees; a task no
        worker could be started for completes with a structured error.
        Heartbeat messages are drained transparently; with
        :attr:`hang_timeout` set, workers whose running task stopped
        heartbeating are killed here and their attempts end with
        structured ``WorkerHung`` errors.
        """
        completed = self._dispatch()
        while not completed:
            busy = {worker.conn: worker for worker in self._workers
                    if worker.task is not None}
            waitables = [*busy, *([] if wake is None else [wake])]
            if self._import is not None and self._queue:
                waitables.append(self._import[0])
            if not waitables:
                return []
            # With hang detection on, wake at least once per heartbeat
            # period so a silent pipe is noticed within one hang window.
            tick = (max(self.heartbeat, 0.02)
                    if busy and self.hang_timeout is not None else None)
            ready = _wait_ready(waitables, tick)
            for conn in ready:
                worker = busy.get(conn)
                if worker is None:
                    continue  # ``wake``, or the import ended
                task = worker.task
                if self._receive(worker) and task is not None:
                    completed.append(task)
            completed.extend(self._reap_hung())
            # Every turn, not only after a completion: a re-queued
            # attempt needs a worker even when nothing completed.
            completed.extend(self._dispatch())
            if wake in ready:
                break
            # Otherwise only heartbeats (or a hang-check tick) arrived:
            # keep waiting for a real completion.
        return completed

    def _receive(self, worker: _Worker) -> bool:
        """Read one message from ``worker``; True iff a task completed.

        A dead pipe means the worker died mid-task (hard crash, OOM
        kill): the attempt ends with a structured ``"error"`` result
        and the worker is retired — one poisoned job cannot take down
        the batch.
        """
        task = worker.task
        try:
            task_id, payload = worker.conn.recv()
        except (EOFError, OSError):
            exitcode = worker.process.exitcode
            _LOG.warning("worker pid=%s died (exit code %s)%s",
                         worker.process.pid, exitcode,
                         "" if task is None
                         else f" while running {task.job.name or 'a job'}")
            self._retire(worker)
            if task is None:
                return False
            self._note_crash("crashed")
            return self._finish(task, _error(
                task, "BrokenWorker", f"worker died (exit code {exitcode})"
            ))
        if task_id == _HEARTBEAT[0]:
            worker.last_beat = time.monotonic()
            return False
        assert task is not None and task_id == task.id
        self._crash_streak = 0
        worker.task = None
        self._idle.append(worker)
        return self._finish(task, JobResult.from_dict(payload))

    def _finish(self, task: Task, result: JobResult) -> bool:
        """End the running attempt of ``task``; True iff it completed.

        The one way a task finishes, whatever ended the attempt.  When
        the ``retry`` hook accepts ``result``, the task goes back to
        the queue with ``attempt + 1`` and nobody hears of this
        attempt; otherwise ``result`` (stamped with its attempt) is
        final and ``on_done`` fires.
        """
        if self.retry is not None and self.retry(task.job, result,
                                                 task.attempt):
            task.attempt += 1
            self._enqueue(task)
            return False
        result.attempts = task.attempt
        task.state = DONE
        task.worker = None
        task.result = result
        if task.on_done is not None:
            task.on_done(task)
        return True

    def _note_crash(self, how: str) -> None:
        """Account one mid-task worker death and advance the
        consecutive-crash streak toward quarantine."""
        if how == "hung":
            self.hung += 1
            get_registry().counter(
                "repro_pool_workers_hung_total",
                "Workers killed by the heartbeat hang detector.",
            ).inc()
        else:
            self.crashed += 1
            get_registry().counter(
                "repro_pool_workers_crashed_total",
                "Workers that died mid-task (crash, OOM kill).",
            ).inc()
        self._crash_streak += 1
        if (self._crash_streak >= self.quarantine_after
                and self.size - self.quarantined > 1):
            self.quarantined += 1
            self._crash_streak = 0
            get_registry().counter(
                "repro_pool_workers_quarantined_total",
                "Worker slots parked after consecutive crashes.",
            ).inc()
            _LOG.warning(
                "quarantined a worker slot after %d consecutive "
                "crashes (capacity now %d/%d)",
                self.quarantine_after, self.capacity, self.size,
            )

    def _reap_hung(self) -> list[Task]:
        """Kill workers whose running task stopped heartbeating; their
        attempts end with structured ``WorkerHung`` errors (which the
        executor's retry hook treats as transient).  Returns the tasks
        that completed."""
        if self.hang_timeout is None:
            return []
        now = time.monotonic()
        completed: list[Task] = []
        for worker in list(self._workers):
            task = worker.task
            if task is None or now - worker.last_beat <= self.hang_timeout:
                continue
            silence = now - worker.last_beat
            _LOG.warning("worker pid=%s hung (no heartbeat for %.1fs) "
                         "while running %s — killing it",
                         worker.process.pid, silence,
                         task.job.name or "a job")
            self._retire(worker)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            self._note_crash("hung")
            if self._finish(task, _error(
                task, "WorkerHung",
                f"worker sent no heartbeat for {silence:.1f}s "
                f"(hang budget {self.hang_timeout:g}s)",
            )):
                completed.append(task)
        return completed

    def health(self) -> dict:
        """Point-in-time supervision snapshot (the ``/healthz`` block)."""
        data = self.empty_health(self.size)
        data.update(
            alive=len(self._workers),
            busy=sum(1 for w in self._workers if w.task is not None),
            spawned=self.spawned,
            respawned=self.respawned,
            crashed=self.crashed,
            hung=self.hung,
            terminated=self.terminated,
            quarantined=self.quarantined,
        )
        return data

    @staticmethod
    def empty_health(size: int = 0) -> dict:
        """The :meth:`health` schema with every counter zeroed (served
        before the pool exists, so scrapers see one stable shape)."""
        return {
            "size": size,
            "alive": 0,
            "busy": 0,
            "spawned": 0,
            "respawned": 0,
            "crashed": 0,
            "hung": 0,
            "terminated": 0,
            "quarantined": 0,
        }

    # -- cancellation ------------------------------------------------------

    def cancel(self, task: Task) -> bool:
        """Withdraw ``task``; True iff it will never produce a result.

        Pending tasks are dropped from the queue.  For a running task
        the pipe is checked first: the task may have finished between
        the caller's decision and this call, in which case its result
        is drained and the worker survives (returns False) — killing a
        worker whose rung already completed is the cancel/done race
        this check closes.  A drained transient failure that sent the
        task back to the queue is dropped there.  Only a task still
        genuinely running gets its worker (and exactly its worker)
        terminated.  Done tasks are left alone.
        """
        if task.state == RUNNING:
            worker = task.worker
            # Drain everything already in the pipe — heartbeats ride
            # ahead of results, so one poll()+receive is not enough to
            # rule out a completion racing the cancel.
            while task.state == RUNNING and worker.conn.poll():
                self._receive(worker)
            if task.state == RUNNING:
                task.state = DROPPED
                task.worker = None
                self._kill(worker)
                return True
        if task.state == PENDING:
            task.state = DROPPED
            return True
        return False

    def _kill(self, worker: _Worker) -> None:
        """Terminate exactly this worker's process (abandoned rung)."""
        self._retire(worker)
        if worker.process.is_alive():
            worker.process.terminate()
            self.terminated += 1
            get_registry().counter(
                "repro_pool_workers_terminated_total",
                "Workers killed to cancel an abandoned task.",
            ).inc()
            _LOG.debug("terminated worker pid=%d (cancelled task)",
                       worker.process.pid)
            worker.process.join(0.5)

    def _retire(self, worker: _Worker) -> None:
        worker.task = None
        if worker in self._idle:
            self._idle.remove(worker)
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop all workers (idempotent).

        Idle workers exit via the sentinel; a worker still running a
        task is terminated — callers resolve or cancel every task
        before shutting down, so that path is a safety net.
        """
        if self.closed:
            return
        self.closed = True
        _LOG.debug("shutting down pool (%d worker(s), %d spawned, "
                   "%d terminated)", len(self._workers), self.spawned,
                   self.terminated)
        self._finalizer.detach()
        for worker in list(self._workers):
            if worker.task is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            elif worker.process.is_alive():
                worker.process.terminate()
        for worker in list(self._workers):
            worker.process.join(2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._idle.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _LadderState:
    """Escalation progress of one pair.

    ``entries[i]`` is how rung ``i`` is being answered: a pre-fetched
    cache hit, a pool task, or skipped (it sat past a cached success
    and was never worth a worker).  ``cursor`` is the first rung
    without a verdict; resolution never looks past an unfinished rung,
    which is what keeps selection ladder-order deterministic.
    """

    __slots__ = ("index", "jobs", "entries", "results", "cursor", "winner",
                 "decided")

    HIT = "hit"
    TASK = "task"
    SKIP = "skip"

    def __init__(self, index: int, jobs: list[AnalysisJob]):
        self.index = index
        self.jobs = jobs
        self.entries: list[tuple] = [None] * len(jobs)
        self.results: list[JobResult | None] = [None] * len(jobs)
        self.cursor = 0
        self.winner: int | None = None
        self.decided = not jobs


class EscalationScheduler:
    """Overlap the escalation ladders of many pairs on one pool.

    The event-driven core of ``first``-mode portfolio batches: all
    rungs of up to ``max(2, pool.size)`` pairs are in flight at once —
    enough to keep every worker busy even when each pair is down to its
    last undecided rung, without flooding the queue with rungs that
    would sit for minutes.  Each completion advances exactly the
    affected pair's ladder, and a pair's decision immediately cancels
    its abandoned rungs and admits the next waiting pair.  Completed
    loser rungs are harvested into the result cache before being
    dropped from selection — paid-for work a later ``best``-mode run
    can replay for free.  Transient failures never reach selection: the
    pool re-runs them, so a rung's verdict is its final attempt.
    """

    def __init__(self, executor, pool: WorkerPool):
        self.executor = executor
        self.pool = pool
        self.max_inflight = max(2, pool.size)
        #: task.id → owning ladder, filled by `_activate`.
        self._owners: dict[int, _LadderState] = {}

    def run(self, ladders: list[list[AnalysisJob]]) -> list[list[JobResult]]:
        """Run every ladder; per-pair results in ladder order."""
        states = [_LadderState(i, jobs) for i, jobs in enumerate(ladders)]
        waiting = deque(state for state in states if not state.decided)
        self._owners = {}
        active: list[_LadderState] = []
        while waiting or active:
            while waiting and len(active) < self.max_inflight:
                state = waiting.popleft()
                self._activate(state)
                self._resolve(state)
                if not state.decided:
                    active.append(state)
            # One dispatch for the whole admission wave, so the
            # (rung, pair) priority orders it: first rungs of every
            # admitted pair get workers before anyone's late rungs.
            self.pool.flush()
            if not active:
                continue
            completed = self.pool.wait()
            if not completed:
                # Nothing running and nothing dispatchable while pairs
                # are still undecided: the pool stalled.  Should be
                # impossible with size >= 1, but failing structurally
                # beats waiting forever.
                for state in active:
                    self._fail(state)
                while waiting:
                    self._fail(waiting.popleft())
                break
            for task in completed:
                state = self._owners.pop(task.id, None)
                if state is not None and not state.decided:
                    self._resolve(state)
            active = [state for state in active if not state.decided]
        return [state.results for state in states]

    def _fail(self, state: _LadderState) -> None:
        executor = self.executor
        for rung in range(state.cursor, len(state.jobs)):
            entry = state.entries[rung]  # None when never activated
            if (entry is not None and entry[0] == _LadderState.TASK
                    and entry[1].state != DONE):
                self.pool.cancel(entry[1])
            job = state.jobs[rung]
            state.results[rung] = executor._account(JobResult(
                job_key=job.key, name=job.name, kind=job.kind,
                status="error", error_type="SchedulerError",
                message="worker pool stalled with rungs outstanding",
            ))
        state.decided = True

    def _activate(self, state: _LadderState) -> None:
        """Probe the cache and submit every rung that needs work.

        Rungs past the first cached *success* can never be chosen (a
        lower rung wins first either way), so they are not worth a
        worker.  Cache accounting happens at use time in `_resolve`,
        so stats and statuses match the ``jobs == 1`` path exactly.
        """
        executor = self.executor
        executor.stats.submitted += len(state.jobs)
        cached_success = False
        for rung, job in enumerate(state.jobs):
            if cached_success:
                state.entries[rung] = (_LadderState.SKIP, None)
                continue
            hit = executor._lookup(job)
            if hit is not None:
                state.entries[rung] = (_LadderState.HIT, hit)
                cached_success = hit.succeeded
            else:
                task = self.pool.submit(job, priority=(rung, state.index),
                                        dispatch=False)
                self._owners[task.id] = state
                state.entries[rung] = (_LadderState.TASK, task)

    def _resolve(self, state: _LadderState) -> None:
        """Advance the ladder as far as finished rungs allow."""
        if state.decided:
            return
        executor = self.executor
        total = len(state.jobs)
        while state.cursor < total:
            kind, payload = state.entries[state.cursor]
            if kind == _LadderState.TASK and payload.state != DONE:
                return
            job = state.jobs[state.cursor]
            if kind == _LadderState.HIT:
                result = executor._use_hit(payload)
            elif kind == _LadderState.SKIP:
                result = executor._account(executor._cancelled(job))
            else:
                result = executor._finish(job, payload.result)
            state.results[state.cursor] = result
            state.cursor += 1
            if result.succeeded:
                state.winner = state.cursor - 1
                self._abandon(state, state.cursor)
                state.cursor = total
        state.decided = True

    def _abandon(self, state: _LadderState, start: int) -> None:
        """Drop every rung past the winner.

        A rung that already *completed* is paid-for work: its result
        is harvested into the cache (a later ``best``-mode run replays
        it for free) even though its reported status stays
        ``"cancelled"`` for parity with sequential selection.  Pending
        rungs are dequeued; a rung still running gets exactly its
        worker terminated.
        """
        executor = self.executor
        for rung in range(start, len(state.jobs)):
            kind, payload = state.entries[rung]
            if kind == _LadderState.TASK:
                self.pool.cancel(payload)
                if payload.state == DONE and payload.result is not None:
                    executor._store(state.jobs[rung], payload.result)
            state.results[rung] = executor._account(
                executor._cancelled(state.jobs[rung])
            )
