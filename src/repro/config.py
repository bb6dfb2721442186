"""Analysis configuration.

One dataclass collects every knob of the synthesis pipeline so that the
benchmark harness can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError


@dataclass
class AnalysisConfig:
    """Configuration of the simultaneous PF/anti-PF synthesis.

    Attributes
    ----------
    degree:
        Maximal degree ``d`` of the potential templates (paper default
        2; the 'nested' benchmark needs 3).
    max_products:
        Handelman parameter ``K``: products of at most this many premise
        inequalities (paper default 2).
    lp_backend:
        One of :func:`~repro.lp.backend.available_backends`:
        ``"scipy"`` (float, HiGHS — fast), ``"exact"`` (sparse revised
        simplex over rationals) or ``"exact-warm"`` (float warm start +
        rational certification — the fast exact rung).  Exact backends
        re-solve LPs that share a constraint system (the refutation
        witness loop, the threshold search) on one factorized basis
        via :class:`~repro.lp.dual.IncrementalLP`.
    widening_delay / narrowing_passes:
        Invariant-engine tuning.

    Every field is keyed into :attr:`repro.engine.jobs.AnalysisJob.key`,
    so a field here must be one that can change a reported result.
    """

    degree: int = 2
    max_products: int = 2
    lp_backend: str = "scipy"
    widening_delay: int = 3
    narrowing_passes: int = 2

    def __post_init__(self):
        # Overrides arrive as JSON (serve, coord): a string, float or
        # bool would otherwise be keyed as a config of its own and fail
        # (or silently run as 0/1) deep inside a worker.
        for name in ("degree", "max_products", "widening_delay",
                     "narrowing_passes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise AnalysisError(
                    f"{name} must be an integer, got {value!r}"
                )
        if self.degree < 0:
            raise AnalysisError("degree must be nonnegative")
        if self.max_products < 1:
            raise AnalysisError("max_products (K) must be at least 1")
        # The engine compares visits > widening_delay and runs
        # range(narrowing_passes): a negative value runs like 0 but
        # would be keyed as a config of its own.
        for name in ("widening_delay", "narrowing_passes"):
            if getattr(self, name) < 0:
                raise AnalysisError(f"{name} must be nonnegative")
        # Local import: repro.lp pulls in the polynomial layer, which
        # must not become an import-time dependency of plain configs.
        from repro.lp.backend import available_backends

        if self.lp_backend not in available_backends():
            raise AnalysisError(
                f"unknown lp_backend {self.lp_backend!r} "
                f"(available: {sorted(available_backends())})"
            )


DEFAULT_CONFIG = AnalysisConfig()


@dataclass
class EngineConfig:
    """Configuration of the parallel analysis engine (:mod:`repro.engine`).

    Attributes
    ----------
    jobs:
        Worker processes.  ``1`` runs inline (no pool), byte-identical
        to the sequential path.
    timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited).
        Expired jobs surface as structured ``"timeout"`` results.
    cache_dir:
        Directory of the persistent result cache (``None`` disables
        caching).
    portfolio:
        Race each pair through the escalating configuration ladder
        instead of a single configuration.
    portfolio_mode:
        ``"first"`` (first succeeding rung wins, losers cancelled) or
        ``"best"`` (minimal threshold among succeeding rungs).
    refute:
        Portfolio mode only: after selection, probe every chosen
        threshold ``T`` with a ``refute`` job at candidate ``T - 1``
        (winning rung's template shape, exact backend).  A refuted
        probe certifies the threshold tight to within 1 — exactly
        tight for integer-cost programs; see ``PortfolioResult.tight``.
    shard:
        ``(k, n)``: analyze only the pairs that the deterministic
        job-hash partition assigns to shard ``k`` of ``n`` (see
        :func:`repro.engine.batch.shard_pairs`).  ``None`` runs every
        pair.  Disjoint shard runs merged with
        :func:`repro.serve.shard.merge_reports` reproduce the
        unsharded report.
    max_retries:
        Extra executions granted to a job that failed *transiently*
        (worker crash, hang, OS-level error, timeout) — deterministic
        analysis errors are never retried.  Content-addressed jobs make
        re-execution idempotent, so retries never change a canonical
        report byte.  ``0`` disables the retry layer.
    hang_timeout:
        Kill a pool worker whose running job sent no heartbeat for this
        many seconds and retry the job (``None`` = hang detection off,
        the default: a legitimate job inside one long uninterruptible
        C-level LP solve is silent too).
    """

    jobs: int = 1
    timeout: float | None = None
    cache_dir: str | None = None
    portfolio: bool = False
    portfolio_mode: str = "first"
    refute: bool = False
    shard: tuple[int, int] | None = None
    max_retries: int = 2
    hang_timeout: float | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise AnalysisError("jobs must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise AnalysisError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise AnalysisError("max_retries must be >= 0")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise AnalysisError("hang_timeout must be positive (or None)")
        if self.portfolio_mode not in ("first", "best"):
            raise AnalysisError(
                f"unknown portfolio_mode {self.portfolio_mode!r} "
                "(use 'first' or 'best')"
            )
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or not 0 <= index < count:
                raise AnalysisError(
                    f"shard must be (k, n) with 0 <= k < n, got {self.shard}"
                )


@dataclass
class ServeConfig:
    """Configuration of the async serving front-end (:mod:`repro.serve`).

    Attributes
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound
        port is reported by :attr:`~repro.serve.AnalysisServer.port`).
    workers:
        Worker processes of the server's long-lived analysis pool.
    max_concurrent:
        Cap on requests being analyzed at once; requests beyond it
        queue on the server's admission semaphore.
    deadline:
        Default per-request wall-clock budget in seconds (``None`` =
        unlimited; a request may override it).  An expired request gets
        a structured ``"timeout"`` response and its job — unless other
        requests still share it — is cancelled through the worker
        pool's cancellation path, so the worker slot is reclaimed
        immediately.
    job_timeout:
        Per-job budget enforced *inside* workers (the executor's
        ``SIGALRM`` path), independent of request deadlines.
    cache_dir:
        Persistent result cache shared by all requests (``None``
        disables caching).
    max_queue:
        Admission control: when ``max_concurrent`` slots are all taken,
        at most this many further requests may queue for one; beyond
        that the server *sheds load* — new analysis requests get an
        immediate ``429`` with a ``Retry-After`` hint instead of
        queueing unboundedly.
    drain_timeout:
        Graceful-shutdown budget: on SIGTERM the server stops accepting
        work (new analysis requests get ``503``), finishes in-flight
        requests for up to this many seconds, then closes the listener.
    max_retries:
        Transient-failure retry budget of the server's executor (same
        semantics as :attr:`EngineConfig.max_retries`).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    max_concurrent: int = 16
    deadline: float | None = None
    job_timeout: float | None = None
    cache_dir: str | None = ".repro-cache"
    max_queue: int = 64
    drain_timeout: float = 10.0
    max_retries: int = 2

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise AnalysisError("port must be in [0, 65535]")
        if self.workers < 1:
            raise AnalysisError("workers must be at least 1")
        if self.max_concurrent < 1:
            raise AnalysisError("max_concurrent must be at least 1")
        if self.deadline is not None and self.deadline <= 0:
            raise AnalysisError("deadline must be positive (or None)")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise AnalysisError("job_timeout must be positive (or None)")
        if self.max_queue < 0:
            raise AnalysisError("max_queue must be >= 0")
        if self.drain_timeout <= 0:
            raise AnalysisError("drain_timeout must be positive")
        if self.max_retries < 0:
            raise AnalysisError("max_retries must be >= 0")


@dataclass
class CoordConfig:
    """Configuration of the multi-node batch coordinator
    (:mod:`repro.coord`).

    Attributes
    ----------
    host / port:
        Coordinator listen address (``port=0`` binds an ephemeral
        port).
    nodes:
        Worker-node URLs registered at startup (more may join at run
        time through ``POST /nodes``).
    node_concurrency:
        Concurrent analysis requests the dispatcher keeps open against
        each node — match it to the node's ``--workers``.
    min_nodes:
        Capacity floor: when fewer nodes are eligible for work (live or
        suspect), a running batch degrades gracefully — it stops
        dispatching and returns a partial, mergeable report instead of
        spinning forever against a dead cluster.
    heartbeat_interval:
        Seconds between ``/healthz`` probes of every registered node.
    dead_after:
        Consecutive missed heartbeats before a node is declared dead
        (its pending work is reassigned to healthy nodes).
    quarantine_after:
        Consecutive exhausted-retry request failures before a node is
        quarantined (no new work until ``recover_after`` clean
        heartbeats clear it).
    recover_after:
        Clean heartbeats a quarantined node needs to rejoin.
    evict_after:
        Seconds a node may stay dead before it is evicted from the
        registry entirely.
    request_deadline:
        Per-request wall-clock budget of the coordinator's HTTP client
        (each analysis request, each retry attempt).
    client_retries:
        Transient-failure retry budget per node request (connection
        refused/reset, timeout, truncated body, 429/503 shedding).
    backoff_base:
        First retry backoff in seconds; subsequent retries double it
        (bounded, with seeded jitter).
    client_seed:
        Seed of the retry-jitter RNG — two coordinator runs with the
        same seed sleep the same backoff schedule.
    steal_after:
        Seconds a pair must already be in flight on another node before
        an idle node may *steal* a duplicate execution of it (the
        straggler hedge; duplicates coalesce first-result-wins, and the
        nodes' own cache/in-flight dedupe absorbs the extra work).
    drain_timeout:
        SIGTERM grace: finish the running batch for up to this many
        seconds before the listener closes.
    """

    host: str = "127.0.0.1"
    port: int = 8790
    nodes: tuple[str, ...] = ()
    node_concurrency: int = 2
    min_nodes: int = 1
    heartbeat_interval: float = 0.5
    dead_after: int = 3
    quarantine_after: int = 3
    recover_after: int = 2
    evict_after: float = 300.0
    request_deadline: float = 120.0
    client_retries: int = 3
    backoff_base: float = 0.05
    client_seed: int = 2022
    steal_after: float = 0.25
    drain_timeout: float = 10.0

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise AnalysisError("port must be in [0, 65535]")
        if self.node_concurrency < 1:
            raise AnalysisError("node_concurrency must be at least 1")
        if self.min_nodes < 1:
            raise AnalysisError("min_nodes must be at least 1")
        if self.heartbeat_interval <= 0:
            raise AnalysisError("heartbeat_interval must be positive")
        if self.dead_after < 1:
            raise AnalysisError("dead_after must be at least 1")
        if self.quarantine_after < 1:
            raise AnalysisError("quarantine_after must be at least 1")
        if self.recover_after < 1:
            raise AnalysisError("recover_after must be at least 1")
        if self.evict_after <= 0:
            raise AnalysisError("evict_after must be positive")
        if self.request_deadline <= 0:
            raise AnalysisError("request_deadline must be positive")
        if self.client_retries < 0:
            raise AnalysisError("client_retries must be >= 0")
        if self.backoff_base <= 0:
            raise AnalysisError("backoff_base must be positive")
        if self.steal_after < 0:
            raise AnalysisError("steal_after must be >= 0")
        if self.drain_timeout <= 0:
            raise AnalysisError("drain_timeout must be positive")


@dataclass
class ObsConfig:
    """Observability switches (:mod:`repro.obs`).

    Deliberately **not** part of :class:`AnalysisConfig`: observability
    must never perturb analysis results, so its knobs stay out of the
    content-addressed job hash — turning tracing on cannot invalidate a
    cache entry or change a report byte.

    Attributes
    ----------
    trace_file:
        Write Chrome ``trace_event`` JSONL spans here (one complete
        event per line; load in Perfetto / ``chrome://tracing``).
        ``None`` disables tracing.
    log_level:
        Stdlib logging level name for the ``repro`` logger tree
        (``"debug"``, ``"info"``, ...).  ``None`` leaves logging
        unconfigured (silent) unless ``REPRO_LOG`` is set.
    """

    trace_file: str | None = None
    log_level: str | None = None

    def __post_init__(self):
        if self.log_level is not None:
            from repro.obs.log import parse_level

            try:
                parse_level(self.log_level)
            except ValueError as error:
                raise AnalysisError(str(error)) from None

    def activate(self) -> None:
        """Export the switches to this process *and* its future worker
        processes (both ride on environment variables, which fork/spawn
        children inherit)."""
        from repro.obs import setup_logging, trace_enable
        from repro.obs.log import LOG_ENV

        if self.trace_file is not None:
            trace_enable(self.trace_file)
        if self.log_level is not None:
            import os

            os.environ[LOG_ENV] = self.log_level
            setup_logging(self.log_level)
        else:
            from repro.obs import setup_from_env

            setup_from_env()


@dataclass
class LintConfig:
    """Knobs of the ``repro-diffcost lint`` static-analysis gate
    (:mod:`repro.lint`).

    Attributes
    ----------
    format:
        Output rendering — ``"text"`` (one finding per line plus a
        summary) or ``"json"`` (machine-readable findings + summary).
    baseline:
        Path of a baseline ratchet file; its fingerprints are
        tolerated, anything new fails.  ``None`` means no ratchet.
    show_suppressed:
        Also print pragma-suppressed findings (text format only).
    """

    format: str = "text"
    baseline: str | None = None
    show_suppressed: bool = False

    def __post_init__(self):
        if self.format not in ("text", "json"):
            raise AnalysisError(
                f"lint format must be 'text' or 'json', got {self.format!r}"
            )
