"""The cluster coordinator's HTTP front-end and heartbeat monitor.

A :class:`CoordinatorServer` is the control plane of a small analysis
cluster: worker nodes (each a :class:`~repro.serve.AnalysisServer`)
register with it, a heartbeat monitor thread probes their ``/healthz``
every :attr:`~repro.config.CoordConfig.heartbeat_interval` seconds and
drives the :class:`~repro.coord.registry.NodeRegistry` state machine,
and ``POST /batch`` fans a whole-directory batch across the live nodes
through the work-stealing :mod:`~repro.coord.dispatch` layer.

HTTP surface (all bodies JSON):

- ``POST /batch`` — ``{"directory": DIR, "config": {...overrides},
  "shards": N?}``; replies with the merged report (canonically
  byte-identical to a fault-free local ``batch --jobs 1`` run) plus
  cluster bookkeeping (steals, reassignments, retries).  Sheds with
  503 + ``Retry-After`` while draining or below the capacity floor;
- ``POST /nodes`` — ``{"url": "host:port"}`` registers (or revives) a
  worker node; idempotent;
- ``GET /nodes`` — the registry: per-node state and counts;
- ``GET /healthz`` — coordinator liveness + registry summary;
- ``GET /metrics`` — Prometheus exposition (node states, batch and
  dispatch counters, client retries).

Shutdown mirrors the node servers: SIGINT stops immediately, SIGTERM
drains — new batches are shed, running ones get
:attr:`~repro.config.CoordConfig.drain_timeout` seconds to finish.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields as dataclass_fields
from dataclasses import replace
import threading

from repro.config import AnalysisConfig, CoordConfig
from repro.engine.cache.federation import federate_round
from repro.errors import AnalysisError, ReproError
from repro.obs import get_logger, get_registry
from repro.serve.server import ServeError, handle_http_client

from repro.coord.client import ClientError, ResilientClient
from repro.coord.dispatch import run_cluster_batch
from repro.coord.registry import NODE_STATES, NodeRegistry, RegistryError

_LOG = get_logger("coord.server")

_CONFIG_FIELDS = frozenset(f.name for f in dataclass_fields(AnalysisConfig))

_KNOWN_PATHS = ("/batch", "/nodes", "/healthz", "/metrics",
                "/cache/federate")

#: Dispatch counters pre-materialized at scrape time so dashboards see
#: them at zero from the first scrape, not the first incident.
_COUNTERS = (
    ("repro_coord_steals_total",
     "Pairs stolen from another node's shard."),
    ("repro_coord_reassigned_total",
     "Pairs reassigned off dead or quarantined nodes."),
    ("repro_coord_duplicates_total",
     "Straggler pairs duplicated onto a second node."),
    ("repro_coord_client_retries_total",
     "Node requests retried after a transient failure."),
    ("repro_coord_batches_total", "Cluster batches run to completion."),
    ("repro_cache_federation_rounds_total",
     "Cache federation rounds completed."),
    ("repro_cache_federation_applied_total",
     "Cache entries replicated onto a node by federation."),
)


class HeartbeatMonitor(threading.Thread):
    """Probes every registered node's ``/healthz`` on a fixed cadence.

    One failed probe (no retries — the next beat is the retry) feeds
    :meth:`NodeRegistry.heartbeat_missed`; the state machine debounces
    it into suspect/dead.  The monitor also evicts long-dead nodes.
    Probes go through the resilient client, so ``node.partition`` fault
    rules blind the coordinator to a node exactly like a real partition.
    """

    def __init__(self, registry: NodeRegistry, client: ResilientClient,
                 interval: float):
        super().__init__(name="coord-heartbeat", daemon=True)
        self.registry = registry
        self.client = client
        self.interval = interval
        # Not ``_stop``: ``threading.Thread.join`` calls a method of
        # that name, which an attribute would shadow.
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.beat()

    def beat(self) -> None:
        """One probe round (synchronous; tests call it directly)."""
        for node in self.registry.nodes():
            try:
                self.client.get(f"{node.url}/healthz", retries=0)
            except ClientError:
                # Unreachable or answering garbage on /healthz — either
                # way not a node to trust with work.
                state = self.registry.heartbeat_missed(node.url)
                if state == "dead":
                    _LOG.warning("node %s declared dead; its pairs will "
                                 "be reassigned", node.url)
            else:
                self.registry.heartbeat_ok(node.url)
        self.registry.evict_expired()


class CoordinatorServer:
    """The cluster control plane; see the module docstring.

    Usage::

        server = CoordinatorServer(CoordConfig(port=0, nodes=(...,)))
        await server.start()          # server.port is the bound port
        ...
        await server.stop()
    """

    def __init__(self, coord: CoordConfig | None = None,
                 analysis: AnalysisConfig | None = None):
        self.coord = coord or CoordConfig()
        self.analysis = analysis or AnalysisConfig()
        self.registry = NodeRegistry(dead_after=self.coord.dead_after)
        self.client = ResilientClient(
            deadline=self.coord.request_deadline,
            retries=self.coord.client_retries,
            seed=self.coord.client_seed,
        )
        #: Heartbeats use a short deadline decoupled from the (long)
        #: analysis deadline — a probe that takes seconds IS a miss.
        self.heartbeat_client = ResilientClient(
            deadline=max(1.0, self.coord.heartbeat_interval * 2),
            retries=0,
            seed=self.coord.client_seed,
        )
        self.port: int | None = None
        self.batches = 0
        self.batches_active = 0
        self.federation_rounds = 0
        #: Per-node federation watermarks: the last delta timestamp
        #: that fully round-tripped (pull + push) for each node URL.
        #: Advancing only on success makes every round retry-safe.
        self._watermarks: dict[str, float] = {}
        self._federate_lock = threading.Lock()
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._monitor: HeartbeatMonitor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for url in self.coord.nodes:
            self.registry.register(url)
        self._monitor = HeartbeatMonitor(self.registry,
                                         self.heartbeat_client,
                                         self.coord.heartbeat_interval)
        self._monitor.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.coord.host, self.coord.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _LOG.info("coordinating on %s:%d (%d node(s) preregistered, "
                  "floor %d)", self.coord.host, self.port,
                  len(self.coord.nodes), self.coord.min_nodes)

    async def drain(self) -> None:
        """SIGTERM grace: shed new batches with 503, give running ones
        ``coord.drain_timeout`` seconds, then close the listener."""
        if self._draining:
            return
        self._draining = True
        _LOG.info("draining: %d batch(es) running, budget %gs",
                  self.batches_active, self.coord.drain_timeout)
        deadline = self._loop.time() + self.coord.drain_timeout
        while self.batches_active and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None

    # -- /batch ------------------------------------------------------------

    def _batch_config(self, payload: dict) -> AnalysisConfig:
        if payload.get("portfolio"):
            raise ServeError(
                "portfolio batches are not supported by the coordinator; "
                "run them through a node's /analyze or a local batch"
            )
        overrides = payload.get("config") or {}
        if not isinstance(overrides, dict):
            raise ServeError(
                "config must be a JSON object of AnalysisConfig fields"
            )
        unknown = sorted(set(overrides) - _CONFIG_FIELDS)
        if unknown:
            raise ServeError(f"unknown config field(s): {', '.join(unknown)}")
        return replace(self.analysis, **overrides)

    async def _batch(self, payload) -> tuple[int, dict] | tuple[int, dict, dict]:
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        directory = payload.get("directory")
        if not isinstance(directory, str) or not directory:
            raise ServeError("directory must be a non-empty path string")
        shards = payload.get("shards")
        if shards is not None and (not isinstance(shards, int)
                                   or shards < 1):
            raise ServeError("shards must be a positive integer")
        config = self._batch_config(payload)
        self.batches += 1
        self.batches_active += 1
        try:
            # The dispatcher is thread-driven and blocking; keep the
            # event loop (and /healthz) responsive while it runs.
            merged, cluster = await self._loop.run_in_executor(
                None,
                lambda: run_cluster_batch(
                    directory, config, self.registry, self.client,
                    self.coord, shards=shards,
                ),
            )
        except AnalysisError as error:
            # Below the capacity floor before dispatch even started:
            # the cluster equivalent of load shedding.
            _LOG.warning("rejecting batch: %s", error)
            return 503, {"error": str(error)}, \
                {"Retry-After": str(max(1, int(self.coord.heartbeat_interval
                                               * self.coord.dead_after)))}
        finally:
            self.batches_active -= 1
        return 200, {"report": merged, "cluster": cluster}

    # -- /cache/federate ---------------------------------------------------

    async def _federate(self) -> tuple[int, dict]:
        """One cache federation round over the registry's non-dead
        nodes (suspect nodes are included: a slow heartbeat is no
        reason to withhold cache entries — the resilient client and
        per-node watermarks absorb any failure).  Serialized by a lock
        so overlapping triggers can't race the watermark map."""
        urls = [node.url for node in self.registry.nodes()
                if node.state != "dead"]
        if not urls:
            return 503, {"error": "no live nodes to federate"}
        self.federation_rounds += 1

        def round_locked() -> dict:
            with self._federate_lock:
                return federate_round(self.client, urls, self._watermarks)

        summary = await self._loop.run_in_executor(None, round_locked)
        return 200, summary

    # -- probes ------------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "batches": self.batches,
            "batches_active": self.batches_active,
            "federation_rounds": self.federation_rounds,
            "min_nodes": self.coord.min_nodes,
            "registry": self.registry.as_dict(),
        }

    def _metrics_text(self) -> str:
        registry = get_registry()
        counts = self.registry.counts()
        nodes = registry.gauge(
            "repro_coord_nodes",
            "Registered worker nodes, by health state.", ("state",),
        )
        for state in NODE_STATES:
            nodes.set(counts[state], state=state)
        registry.gauge(
            "repro_coord_batches_active",
            "Cluster batches dispatching right now.",
        ).set(self.batches_active)
        registry.gauge(
            "repro_coord_draining",
            "1 while the coordinator is draining (SIGTERM grace), else 0.",
        ).set(1 if self._draining else 0)
        for name, help_text in _COUNTERS:
            registry.counter(name, help_text).inc(0)
        return registry.render_prometheus()

    # -- routing -----------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes,
                     query: str = ""
                     ) -> tuple[int, dict | str] | tuple[int, dict | str, dict]:
        get_registry().counter(
            "repro_coord_http_requests_total",
            "Coordinator HTTP requests received, by path.", ("path",),
        ).inc(path=path if path in _KNOWN_PATHS else "other")
        if path == "/cache/federate":
            if method != "POST":
                return 405, {"error": "use POST for /cache/federate"}
            return await self._federate()
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET for /healthz"}
            return 200, self._healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET for /metrics"}
            return 200, self._metrics_text()
        if path == "/nodes":
            if method == "GET":
                return 200, self.registry.as_dict()
            if method != "POST":
                return 405, {"error": "use GET or POST for /nodes"}
            try:
                payload = json.loads(body or b"null")
            except json.JSONDecodeError as error:
                return 400, {"error": f"invalid JSON body: {error}"}
            if not isinstance(payload, dict) \
                    or not isinstance(payload.get("url"), str):
                return 400, {"error": 'body must be {"url": "host:port"}'}
            try:
                node = self.registry.register(payload["url"])
            except RegistryError as error:
                return 400, {"error": str(error)}
            return 200, {"registered": node.url, "state": node.state}
        if path == "/batch":
            if method != "POST":
                return 405, {"error": "use POST for /batch"}
            if self._draining:
                return 503, {"error": "coordinator draining; retry later"}, \
                    {"Retry-After": str(max(1, int(self.coord.drain_timeout)))}
            try:
                payload = json.loads(body or b"null")
            except json.JSONDecodeError as error:
                return 400, {"error": f"invalid JSON body: {error}"}
            try:
                return await self._batch(payload)
            except ReproError as error:
                _LOG.warning("rejected batch request: %s", error)
                return 400, {"error": str(error)}
        return 404, {"error": f"unknown path {path!r}"}

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        await handle_http_client(reader, writer, self._route)


async def coordinate_forever(coord: CoordConfig | None = None,
                             analysis: AnalysisConfig | None = None,
                             ready=None) -> int:
    """Run a coordinator until SIGINT (immediate) or SIGTERM (drain) —
    the ``repro-diffcost coord`` entry point's core."""
    import signal as signal_module

    server = CoordinatorServer(coord, analysis)
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
