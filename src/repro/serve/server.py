"""Async serving front-end over the engine's job model.

One :class:`AnalysisServer` is a small JSON-over-HTTP service (stdlib
``asyncio`` only) in front of the engine seam built in PRs 1–4:

- every request becomes a content-addressed
  :class:`~repro.engine.jobs.AnalysisJob`, so identical requests are
  *deduplicated twice* — against the persistent
  :class:`~repro.engine.cache.ResultCache` (a repeat of yesterday's
  request replays in microseconds) and against in-flight work (two
  concurrent identical requests run the analysis once and both get the
  one result);
- analysis runs on the engine's long-lived
  :class:`~repro.engine.scheduler.WorkerPool`, driven by a dedicated
  bridge thread.  The event loop and the pool meet only at a
  thread-safe message queue and ``loop.call_soon_threadsafe`` — the
  pool's bookkeeping stays single-threaded, exactly as the scheduler
  requires;
- a per-request deadline reuses the scheduler's cancellation path: when
  the last request waiting on a job times out, the job's worker is
  terminated through :meth:`WorkerPool.cancel` (the same cancel/done
  race-safe path portfolio escalation uses) and the request gets a
  structured ``"timeout"`` response;
- ``"portfolio"`` requests race the escalating config ladder with
  ladder-order selection — first success wins, the abandoned rungs are
  released (and cancelled once no other request shares them).

HTTP surface (all bodies JSON):

- ``POST /analyze`` — run one job (or a portfolio); see
  :func:`job_from_payload` for the request schema;
- ``GET /healthz`` — liveness plus serving/engine counters (zeroed but
  schema-complete before the engine warms up);
- ``GET /metrics`` — Prometheus text exposition of the process
  registry (request/job/cache counters, latency histograms, plus
  point-in-time gauges refreshed at scrape time).
"""

from __future__ import annotations

import asyncio
import json
import math
import queue
import threading
import time
from dataclasses import fields as dataclass_fields
from dataclasses import replace

from repro.config import AnalysisConfig, ServeConfig
from repro.engine.cache import ResultCache
from repro.engine.executor import ExecutorStats, ParallelExecutor
from repro.engine.jobs import JOB_KINDS, AnalysisJob, JobResult
from repro.engine.portfolio import (
    PORTFOLIO_MODES,
    portfolio_jobs,
    select_result,
)
from repro.engine.scheduler import WorkerPool
from repro.errors import ReproError
from repro.faults import fault_point
from repro.obs import get_logger, get_registry

_LOG = get_logger("serve.server")

_CONFIG_FIELDS = frozenset(f.name for f in dataclass_fields(AnalysisConfig))

#: Paths worth a per-path label on the request counter; anything else is
#: folded into ``"other"`` so scanners cannot blow up series cardinality.
_KNOWN_PATHS = ("/analyze", "/healthz", "/metrics",
                "/cache/delta", "/cache/merge")


class ServeError(ReproError):
    """A malformed serving request (maps to HTTP 400)."""


# -- shared HTTP/1.1 plumbing (this server and the cluster coordinator) ----

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 503: "Service Unavailable"}


async def read_http_request(reader: asyncio.StreamReader
                            ) -> tuple[str, str, bytes, str] | None:
    """One request off the stream: ``(METHOD, path, body, query)``, or
    ``None`` for a connect-and-leave probe.  ``query`` is the raw query
    string (no leading ``?``, empty when absent); ``path`` is always
    bare so fault-site and counter matching stay query-insensitive.
    Raises :class:`ServeError` on a malformed request line or
    Content-Length."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    try:
        method, target, _version = request_line.decode().split(None, 2)
    except ValueError:
        raise ServeError("malformed request line") from None
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode(errors="replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise ServeError("malformed Content-Length") from None
    body = (await reader.readexactly(content_length)
            if content_length else b"")
    path, _sep, query = target.partition("?")
    return method.upper(), path, body, query


async def handle_http_client(reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             route, *, drop_site: str | None = None) -> None:
    """The one-request-per-connection loop shared by the analysis server
    and the coordinator.  ``route(method, path, body, query)`` returns
    ``(status, payload)`` or ``(status, payload, headers)``; a string
    payload is sent as Prometheus text, anything else as JSON.  When
    ``drop_site`` names a fault site, a matching rule kills the
    connection after the request is read and before any response byte —
    the vanishing-server failure clients must survive.
    """
    status: int | None = 400
    payload: dict | str = {"error": "bad request"}
    headers: dict = {}
    try:
        request = await asyncio.wait_for(read_http_request(reader),
                                         timeout=60)
        if request is None:
            status = None  # connect-and-leave probe: say nothing
        elif (drop_site is not None
                and fault_point(drop_site, name=request[1]) is not None):
            status = None
        else:
            response = await route(*request)
            status, payload = response[0], response[1]
            headers = response[2] if len(response) > 2 else {}
    except (asyncio.TimeoutError, asyncio.IncompleteReadError):
        status, payload = 400, {"error": "incomplete request"}
    except ServeError as error:
        status, payload = 400, {"error": str(error)}
    except (asyncio.LimitOverrunError, ValueError):
        # e.g. a request/header line past the StreamReader's 64KB
        # limit — readline() surfaces that as a ValueError.
        status, payload = 400, {"error": "oversized or malformed request"}
    except ConnectionError:
        status = None
    finally:
        if status is not None:
            try:
                if isinstance(payload, str):  # /metrics exposition
                    data = payload.encode()
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    data = json.dumps(payload).encode()
                    content_type = "application/json"
                extra = "".join(f"{name}: {value}\r\n"
                                for name, value in headers.items())
                writer.write(
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"{extra}"
                    f"Connection: close\r\n\r\n".encode() + data
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def job_from_payload(payload: dict, base: AnalysisConfig) -> AnalysisJob:
    """Build the job a request payload describes.

    Schema::

        {"kind": "diff" | "bound" | "refute" | "single",
         "old_source": "...imp source...",
         "new_source": "...",              # absent for "single"
         "config": {"degree": 2, ...},     # partial AnalysisConfig overrides
         "name": "display-name",
         "bound": "polynomial",            # "bound" jobs
         "candidate": 9999.0}              # "refute" jobs

    ``config`` overrides are applied over the server's base config;
    unknown fields (and invalid values, via ``AnalysisConfig``'s own
    validation) are rejected rather than ignored — a typo silently
    falling back to defaults would serve the wrong analysis.
    """
    if not isinstance(payload, dict):
        raise ServeError("request body must be a JSON object")
    kind = payload.get("kind", "diff")
    if kind not in JOB_KINDS:
        raise ServeError(f"unknown job kind {kind!r} (use one of {JOB_KINDS})")
    overrides = payload.get("config") or {}
    if not isinstance(overrides, dict):
        raise ServeError("config must be a JSON object of AnalysisConfig fields")
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    if unknown:
        raise ServeError(f"unknown config field(s): {', '.join(unknown)}")
    config = replace(base, **overrides)

    old_source = payload.get("old_source")
    if not isinstance(old_source, str) or not old_source.strip():
        raise ServeError("old_source must be non-empty imp source text")
    new_source = payload.get("new_source")
    if new_source is not None and not isinstance(new_source, str):
        raise ServeError("new_source must be imp source text")
    bound = payload.get("bound")
    if bound is not None and not isinstance(bound, str):
        raise ServeError("bound must be a polynomial string")
    candidate = payload.get("candidate")
    if candidate is not None and not isinstance(candidate, (int, float)):
        raise ServeError("candidate must be a number")
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise ServeError("name must be a string")
    # AnalysisJob.__post_init__ enforces the kind-specific requirements
    # (new_source/bound/candidate presence) with its own AnalysisError.
    return AnalysisJob(
        kind=kind,
        old_source=old_source,
        new_source=new_source,
        config=config,
        name=name,
        bound=bound,
        candidate=None if candidate is None else float(candidate),
    )


class _EngineBridge(threading.Thread):
    """The thread that owns the executor and drives the worker pool.

    The pool is not thread-safe, so *every* interaction with it happens
    here: the event loop posts ``submit`` / ``cancel`` messages into a
    FIFO queue, and completion callbacks fire on this thread (callers
    re-enter their loop with ``call_soon_threadsafe``).  FIFO ordering
    is what makes cancellation sound without locks — a cancel enqueued
    after its submit is always handled after the task exists.
    """

    #: Poll quantum while jobs are in flight: the loop alternates
    #: draining the inbox and waiting on worker pipes, so this bounds
    #: both submission latency and completion latency.
    POLL = 0.05
    #: Inbox wait while the pool is idle (nothing to poll for).
    IDLE_WAIT = 0.5

    def __init__(self, executor: ParallelExecutor):
        super().__init__(name="repro-serve-engine", daemon=True)
        self._executor = executor
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._tasks: dict[str, object] = {}
        self._running = 0
        self._closed = False

    # -- event-loop facing API (thread-safe: only enqueues) ----------------

    def submit(self, job: AnalysisJob, on_done) -> None:
        """Request execution of ``job``; ``on_done(result)`` will fire
        exactly once on the bridge thread (synchronously for a cache
        hit) unless the job is cancelled first."""
        self._inbox.put(("submit", job, on_done))

    def cancel(self, key: str) -> None:
        """Withdraw the job under ``key`` if it is still running.  A
        completion that races the cancel wins (its ``on_done`` has
        fired); a genuinely cancelled job's worker is terminated."""
        self._inbox.put(("cancel", key, None))

    def shutdown(self) -> None:
        self._inbox.put(("stop", None, None))

    # -- bridge thread -----------------------------------------------------

    def run(self) -> None:
        while not self._closed:
            wait = self.POLL if self._running else self.IDLE_WAIT
            try:
                message = self._inbox.get(timeout=wait)
            except queue.Empty:
                message = None
            while message is not None:
                self._handle(message)
                try:
                    message = self._inbox.get_nowait()
                except queue.Empty:
                    message = None
            if not self._closed and self._running:
                self._executor.poll(timeout=self.POLL)

    def _handle(self, message) -> None:
        kind, payload, extra = message
        if kind == "stop":
            self._closed = True
        elif kind == "submit":
            self._submit(payload, extra)
        elif kind == "cancel":
            self._cancel(payload)

    def _submit(self, job: AnalysisJob, on_done) -> None:
        key = job.key

        def finished(result: JobResult) -> None:
            if self._tasks.pop(key, None) is not None:
                self._running -= 1
            on_done(result)

        task = self._executor.submit_job(job, finished)
        if task is not None:
            self._tasks[key] = task
            self._running += 1

    def _cancel(self, key: str) -> None:
        task = self._tasks.get(key)
        if task is None:
            return  # already completed (or was a cache hit)
        if self._executor.cancel_task(task):
            self._tasks.pop(key, None)
            self._running -= 1
        # else: it completed inside the cancel race and `finished` has
        # already run — nothing left to clean up.


class _InFlight:
    """One deduplicated unit of in-flight work on the event loop."""

    __slots__ = ("key", "future", "waiters")

    def __init__(self, key: str, future: asyncio.Future):
        self.key = key
        self.future = future
        self.waiters = 1


class AnalysisServer:
    """The serving front-end; see the module docstring.

    Usage::

        server = AnalysisServer(ServeConfig(port=0))
        await server.start()          # server.port is the bound port
        ...
        await server.stop()
    """

    def __init__(self, config: ServeConfig | None = None,
                 analysis: AnalysisConfig | None = None):
        self.config = config or ServeConfig()
        self.analysis = analysis or AnalysisConfig()
        self.port: int | None = None
        self.executor: ParallelExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._bridge: _EngineBridge | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight: dict[str, _InFlight] = {}
        self._admission: asyncio.Semaphore | None = None
        #: Requests admitted past load shedding and not yet answered
        #: (queued on the semaphore or analyzing) — what :meth:`drain`
        #: waits out.
        self._active = 0
        #: Requests queued on the admission semaphore right now; at
        #: ``config.max_queue`` new analysis requests are shed with 429.
        self._queued = 0
        self._draining = False
        #: Event-loop time the drain budget expires (set by drain()) —
        #: the Retry-After hint a draining 503 carries.
        self._drain_deadline: float | None = None
        #: Exponentially weighted /analyze latency, the throughput
        #: estimate behind the overload Retry-After hint.
        self._latency_ewma: float | None = None
        self.requests = 0
        self.coalesced = 0
        self.deadline_timeouts = 0
        self.shed = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        cache = (ResultCache(self.config.cache_dir)
                 if self.config.cache_dir else None)
        self.executor = ParallelExecutor(
            jobs=self.config.workers,
            timeout=self.config.job_timeout,
            cache=cache,
            max_retries=self.config.max_retries,
        )
        self._bridge = _EngineBridge(self.executor)
        self._bridge.start()
        self._admission = asyncio.Semaphore(self.config.max_concurrent)
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _LOG.info("serving on %s:%d (workers=%d, cache=%s)",
                  self.config.host, self.port, self.config.workers,
                  self.config.cache_dir or "off")

    async def drain(self) -> None:
        """Graceful shutdown, phase one (the SIGTERM path): stop
        admitting analysis work (new requests get ``503`` with a
        ``Retry-After``), let in-flight requests finish — bounded by
        ``config.drain_timeout`` — then close the listener.  Probe
        endpoints keep answering until the listener closes, so a load
        balancer sees the drain instead of a vanished backend.
        Idempotent; :meth:`stop` completes the teardown."""
        if self._draining:
            return
        self._draining = True
        _LOG.info("draining: %d request(s) in flight, budget %gs",
                  self._active, self.config.drain_timeout)
        deadline = self._loop.time() + self.config.drain_timeout
        self._drain_deadline = deadline
        while self._active and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self._active:
            _LOG.warning("drain budget expired with %d request(s) still "
                         "in flight", self._active)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self) -> None:
        _LOG.debug("stopping server on port %s", self.port)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._bridge is not None:
            self._bridge.shutdown()
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._bridge.join(timeout=5.0)
            )
            self._bridge = None
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    # -- dedupe / in-flight bookkeeping (event-loop thread only) -----------

    def _acquire(self, job: AnalysisJob) -> tuple[_InFlight, bool]:
        entry = self._inflight.get(job.key)
        if entry is not None:
            entry.waiters += 1
            self.coalesced += 1
            get_registry().counter(
                "repro_server_coalesced_total",
                "Requests served by piggybacking on in-flight work.",
            ).inc()
            return entry, False
        entry = _InFlight(job.key, self._loop.create_future())
        self._inflight[job.key] = entry
        self._bridge.submit(
            job,
            lambda result, key=job.key: self._loop.call_soon_threadsafe(
                self._resolve, key, result
            ),
        )
        return entry, True

    def _resolve(self, key: str, result: JobResult) -> None:
        entry = self._inflight.pop(key, None)
        if entry is not None and not entry.future.done():
            entry.future.set_result(result)

    def _release(self, entry: _InFlight) -> None:
        """One waiter stopped caring.  When the last waiter of an
        unfinished job lets go, the job is withdrawn through the pool's
        cancellation path — nobody is left to read the answer."""
        entry.waiters -= 1
        if entry.waiters > 0 or entry.future.done():
            return
        self._inflight.pop(entry.key, None)
        self._bridge.cancel(entry.key)
        entry.future.cancel()

    # -- request handling --------------------------------------------------

    def _deadline_of(self, payload: dict) -> float | None:
        deadline = payload.get("deadline", self.config.deadline)
        if deadline is None:
            return None
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            raise ServeError("deadline must be a positive number of seconds")
        return float(deadline)

    def _timeout_result(self, job: AnalysisJob, deadline: float) -> JobResult:
        self.deadline_timeouts += 1
        get_registry().counter(
            "repro_server_deadline_timeouts_total",
            "Requests that exceeded their deadline.",
        ).inc()
        _LOG.warning("deadline (%gs) expired for job %s", deadline, job.key)
        return JobResult(
            job_key=job.key,
            name=job.name,
            kind=job.kind,
            status="timeout",
            error_type="DeadlineExceeded",
            message=f"request exceeded its {deadline:g}s deadline",
            seconds=deadline,
        )

    def _cancelled_result(self, job: AnalysisJob, message: str) -> JobResult:
        return JobResult(
            job_key=job.key,
            name=job.name,
            kind=job.kind,
            status="cancelled",
            message=message,
        )

    async def _analyze(self, payload: dict) -> dict:
        job = job_from_payload(payload, self.analysis)
        deadline = self._deadline_of(payload)
        entry, created = self._acquire(job)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(entry.future), deadline
            )
        except asyncio.TimeoutError:
            result = self._timeout_result(job, deadline)
        finally:
            self._release(entry)
        return {
            "job_key": job.key,
            "deduped": not created,
            "result": result.to_dict(),
        }

    async def _analyze_portfolio(self, payload: dict, mode) -> dict:
        if mode is True:
            mode = "first"
        if mode not in PORTFOLIO_MODES:
            raise ServeError(
                f"portfolio must be one of {PORTFOLIO_MODES} (or true)"
            )
        base = job_from_payload(dict(payload, kind="diff"), self.analysis)
        deadline = self._deadline_of(payload)
        jobs = portfolio_jobs(base.old_source, base.new_source,
                              base.name or "request", base=base.config)
        started = self._loop.time()
        entries = [self._acquire(job) for job in jobs]
        results: list[JobResult | None] = [None] * len(jobs)
        timed_out = False
        try:
            if mode == "best":
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*(
                            asyncio.shield(entry.future)
                            for entry, _created in entries
                        )),
                        deadline,
                    )
                except asyncio.TimeoutError:
                    timed_out = True
                # Harvest every rung that did resolve — on a timeout,
                # finished rungs (a succeeded one included) are still
                # real answers; only the stragglers are abandoned.
                for index, (entry, _created) in enumerate(entries):
                    if entry.future.done() and not entry.future.cancelled():
                        results[index] = entry.future.result()
            else:
                # Ladder-order walk: identical selection to the batch
                # scheduler — rung i is only judged once every rung
                # before it has a verdict, so the chosen rung matches a
                # sequential run no matter how completions interleave.
                for index, (entry, _created) in enumerate(entries):
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - (self._loop.time() - started)
                        if remaining <= 0:
                            timed_out = True
                            break
                    try:
                        results[index] = await asyncio.wait_for(
                            asyncio.shield(entry.future), remaining
                        )
                    except asyncio.TimeoutError:
                        timed_out = True
                        break
                    if results[index].succeeded:
                        break
        finally:
            for entry, _created in entries:
                self._release(entry)

        for index, (job, result) in enumerate(zip(jobs, results)):
            if result is not None:
                continue
            results[index] = self._cancelled_result(
                job,
                "request deadline expired before this rung resolved"
                if timed_out else
                "a lower portfolio rung already succeeded",
            )
        chosen = select_result(results, mode)
        data = {
            "portfolio": mode,
            "name": base.name,
            "status": "timeout" if timed_out and chosen is None else "ok",
            "deduped": any(not created for _entry, created in entries),
            "chosen_rung": None if chosen is None else results.index(chosen),
            "threshold": None if chosen is None else chosen.threshold,
            "rungs": [result.to_dict() for result in results],
        }
        if timed_out and chosen is None:
            self.deadline_timeouts += 1
            get_registry().counter(
                "repro_server_deadline_timeouts_total",
                "Requests that exceeded their deadline.",
            ).inc()
            data["message"] = (
                f"request exceeded its {deadline:g}s deadline before any "
                "rung succeeded"
            )
        return data

    def _healthz(self) -> dict:
        executor = self.executor
        # Both nested blocks keep their schema before warm-up (zeroed
        # rather than null/empty) so scrapers never special-case boot.
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": len(self._inflight),
            "requests": self.requests,
            "coalesced": self.coalesced,
            "deadline_timeouts": self.deadline_timeouts,
            "shed": self.shed,
            "draining": self._draining,
            "workers": self.config.workers,
            "engine": (executor.stats.as_dict() if executor
                       else ExecutorStats().as_dict()),
            "pool": (executor.pool_health() if executor
                     else WorkerPool.empty_health(self.config.workers)),
            "cache": (executor.cache.stats()
                      if executor and executor.cache
                      else ResultCache.empty_stats()),
        }

    def _metrics_text(self) -> str:
        """Prometheus exposition; point-in-time gauges (in-flight count,
        engine counters, on-disk cache shape) are refreshed here so the
        scrape always reflects the current state."""
        registry = get_registry()
        registry.gauge(
            "repro_server_inflight", "Deduplicated jobs in flight.",
        ).set(len(self._inflight))
        registry.gauge(
            "repro_server_workers", "Configured worker processes.",
        ).set(self.config.workers)
        registry.gauge(
            "repro_server_draining",
            "1 while the server is draining (SIGTERM grace), else 0.",
        ).set(1 if self._draining else 0)
        registry.gauge(
            "repro_server_queued",
            "Requests waiting on the admission semaphore right now.",
        ).set(self._queued)
        # Materialize zero samples so dashboards see the shed counter
        # (both reasons) from the first scrape, not the first incident.
        shed = registry.counter(
            "repro_server_shed_total",
            "Analysis requests rejected by admission control, by reason.",
            ("reason",),
        )
        shed.inc(0, reason="overloaded")
        shed.inc(0, reason="draining")
        engine = (self.executor.stats.as_dict() if self.executor
                  else ExecutorStats().as_dict())
        for key, value in engine.items():
            registry.gauge(
                f"repro_engine_{key}",
                f"Executor stat {key!r}, mirrored at scrape time.",
            ).set(value)
        cache_stats = (self.executor.cache.stats()
                       if self.executor and self.executor.cache
                       else ResultCache.empty_stats())
        for key, value in cache_stats.items():
            registry.gauge(
                f"repro_cache_{key}",
                f"Result-cache stat {key!r}, mirrored at scrape time.",
            ).set(value)
        pool = (self.executor.pool_health() if self.executor
                else WorkerPool.empty_health(self.config.workers))
        for key, value in pool.items():
            registry.gauge(
                f"repro_pool_{key}",
                f"Worker-pool supervision stat {key!r}, mirrored at "
                "scrape time.",
            ).set(value)
        return registry.render_prometheus()

    # -- HTTP plumbing -----------------------------------------------------

    def _retry_after_seconds(self, why: str) -> int:
        """An honest ``Retry-After`` hint, not a constant.

        Draining: the remaining drain budget — once it expires the
        listener is gone and a sooner retry just burns a connection on
        this dying process.  Overload: the estimated time for the
        current queue to drain at observed throughput (EWMA request
        latency x backlog / concurrency), so a deep queue pushes
        clients further away than a blip.  Clamped to [1, 60]s.
        """
        if why == "draining":
            remaining = self.config.drain_timeout
            if self._drain_deadline is not None and self._loop is not None:
                remaining = self._drain_deadline - self._loop.time()
            return max(1, min(60, math.ceil(remaining)))
        latency = self._latency_ewma if self._latency_ewma else 1.0
        backlog = self._queued + 1  # the retry would wait behind the queue
        wait = backlog * latency / max(1, self.config.max_concurrent)
        return max(1, min(60, math.ceil(wait)))

    def _shed(self, why: str, status: int) -> tuple[int, dict, dict]:
        """An admission rejection: 429 (overload) or 503 (draining),
        always with a derived ``Retry-After`` hint."""
        self.shed += 1
        get_registry().counter(
            "repro_server_shed_total",
            "Analysis requests rejected by admission control, by reason.",
            ("reason",),
        ).inc(reason=why)
        retry_after = self._retry_after_seconds(why)
        _LOG.warning("shedding analyze request (%s): %d analyzing, "
                     "%d queued, Retry-After %ds", why,
                     self._active - self._queued, self._queued, retry_after)
        return status, {"error": f"server {why}; retry later"}, \
            {"Retry-After": str(retry_after)}

    # -- cache federation endpoints ----------------------------------------

    @property
    def _cache(self) -> ResultCache | None:
        return self.executor.cache if self.executor else None

    def _cache_delta(self, query: str) -> tuple[int, dict]:
        """``GET /cache/delta?since=<ts>``: the trusted entries written
        after ``since`` plus the new watermark — the federation pull
        leg.  The ``cache.delta_drop`` fault site turns the response
        into a retryable 503, modelling a node whose delta never
        arrives."""
        if self._cache is None:
            return 404, {"error": "this node serves without a cache"}
        if fault_point("cache.delta_drop", name="/cache/delta") is not None:
            return 503, {"error": "cache delta dropped by fault plan"}
        since = 0.0
        for pair in query.split("&"):
            name, _sep, value = pair.partition("=")
            if name == "since":
                try:
                    since = float(value)
                except ValueError:
                    return 400, {"error": "since must be a number"}
        watermark, records = self._cache.delta_since(since)
        return 200, {"watermark": watermark, "records": records,
                     "count": len(records)}

    def _cache_merge(self, body: bytes) -> tuple[int, dict]:
        """``POST /cache/merge`` with ``{"records": [...]}``: store the
        trusted records this node lacks — the federation push leg.
        Idempotent (first writer wins on content-addressed keys), so
        the resilient client may retry it freely.  The
        ``cache.merge_drop`` site sheds it with a retryable 503."""
        if self._cache is None:
            return 404, {"error": "this node serves without a cache"}
        if fault_point("cache.merge_drop", name="/cache/merge") is not None:
            return 503, {"error": "cache merge dropped by fault plan"}
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as error:
            return 400, {"error": f"invalid JSON body: {error}"}
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("records"), list):
            return 400, {"error": 'body must be {"records": [...]}'}
        applied, skipped = self._cache.apply_delta(payload["records"])
        return 200, {"applied": applied, "skipped": skipped}

    async def _route(self, method: str, path: str, body: bytes,
                     query: str = ""
                     ) -> tuple[int, dict | str] | tuple[int, dict | str, dict]:
        registry = get_registry()
        registry.counter(
            "repro_http_requests_total", "HTTP requests received, by path.",
            ("path",),
        ).inc(path=path if path in _KNOWN_PATHS else "other")
        if path == "/cache/delta":
            if method != "GET":
                return 405, {"error": "use GET for /cache/delta"}
            return self._cache_delta(query)
        if path == "/cache/merge":
            if method != "POST":
                return 405, {"error": "use POST for /cache/merge"}
            return self._cache_merge(body)
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET for /healthz"}
            return 200, self._healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET for /metrics"}
            return 200, self._metrics_text()
        if path == "/analyze":
            if method != "POST":
                return 405, {"error": "use POST for /analyze"}
            if self._draining:
                return self._shed("draining", 503)
            if (self._admission.locked()
                    and self._queued >= self.config.max_queue):
                return self._shed("overloaded", 429)
            try:
                payload = json.loads(body or b"null")
            except json.JSONDecodeError as error:
                return 400, {"error": f"invalid JSON body: {error}"}
            self.requests += 1
            started = time.perf_counter()
            self._active += 1
            self._queued += 1
            try:
                await self._admission.acquire()
            finally:
                self._queued -= 1
            try:
                mode = payload.get("portfolio") \
                    if isinstance(payload, dict) else None
                if mode:
                    return 200, await self._analyze_portfolio(payload, mode)
                return 200, await self._analyze(payload)
            except ReproError as error:
                _LOG.warning("rejected analyze request: %s", error)
                return 400, {"error": str(error)}
            finally:
                self._admission.release()
                self._active -= 1
                elapsed = time.perf_counter() - started
                self._latency_ewma = (
                    elapsed if self._latency_ewma is None
                    else 0.8 * self._latency_ewma + 0.2 * elapsed
                )
                registry.histogram(
                    "repro_http_request_seconds",
                    "Wall-clock latency of /analyze requests.",
                ).observe(elapsed)
        return 404, {"error": f"unknown path {path!r}"}

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        await handle_http_client(reader, writer, self._route,
                                 drop_site="server.drop")


async def serve_forever(config: ServeConfig | None = None,
                        analysis: AnalysisConfig | None = None,
                        ready=None) -> int:
    """Run a server until SIGINT (immediate) or SIGTERM (graceful
    drain) — the CLI entry point's core.

    SIGTERM is the orchestrator's "please leave the rotation" signal:
    the server sheds new analysis work with 503, finishes what is in
    flight (bounded by ``config.drain_timeout``), closes the listener,
    and only then tears the engine down.  SIGINT (an operator's ^C)
    stops immediately.

    ``ready`` (optional callable) receives the started server — used by
    the CLI to print the bound address and by tests to capture the
    ephemeral port.
    """
    import signal as signal_module

    server = AnalysisServer(config, analysis)
    await server.start()
    if ready is not None:
        ready(server)
    stop = asyncio.Event()
    drain = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum, event in ((signal_module.SIGINT, stop),
                          (signal_module.SIGTERM, drain)):
        try:
            loop.add_signal_handler(signum, event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    waits = [asyncio.ensure_future(stop.wait()),
             asyncio.ensure_future(drain.wait())]
    try:
        await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
        if drain.is_set() and not stop.is_set():
            await server.drain()
    finally:
        for future in waits:
            future.cancel()
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()
    return 0
