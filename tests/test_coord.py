"""Cluster coordinator tests: fault-tolerant multi-node batch fan-out.

The suite holds the coordinator to this PR's hard invariant — a batch
fanned across live worker nodes, with nodes dying, partitioned or
shedding mid-run, must merge to canonical report bytes identical to a
fault-free local ``--jobs 1`` run.  The layers underneath (resilient
client retry classification, registry health state machine, shard
report synthesis, work stealing and reassignment, graceful degradation
below the capacity floor) are tested directly so an end-to-end failure
localizes quickly.

Worker nodes run as real :class:`~repro.serve.AnalysisServer` instances
on ephemeral ports (each on its own event-loop thread); node death is
injected with ``node.partition`` fault rules, which blind both the
dispatch client and the heartbeat monitor to a node exactly like a
yanked cable.  The CI job ``cluster-chaos-smoke`` covers the
separate-process ``kill -9`` variant.
"""

import asyncio
import http.server
import json
import logging
import random
import threading
import time

import pytest

from repro.config import AnalysisConfig, CoordConfig, EngineConfig, ServeConfig
from repro.coord import (
    BACKOFF_CAP,
    ClientError,
    ClusterDispatch,
    CoordinatorServer,
    HeartbeatMonitor,
    NodeRegistry,
    NodeUnreachable,
    RegistryError,
    ResilientClient,
    backoff_schedule,
    normalize_url,
    run_cluster_batch,
    shard_report,
)
from repro.engine import run_batch
from repro.engine.batch import batch_to_json
from repro.faults import FaultPlan, set_plan
from repro.serve import AnalysisServer, canonical_json

#: Outer safety net per async test body.
TEST_DEADLINE = 180

QUICK_OLD = """
proc count(n) {
  assume(1 <= n && n <= 10);
  var i = 0;
  while (i < n) { tick(1); i = i + 1; }
}
"""

#: Degree-1 analysis keeps every pair sub-second; the cluster behavior
#: under test is scheduling and failure handling, not LP depth.
FAST = AnalysisConfig(degree=1, max_products=1)

PAIRS = [("alpha", 4), ("beta", 6), ("gamma", 8), ("delta", 10), ("eps", 7)]


def _write_pairs(directory, pairs):
    directory.mkdir(parents=True, exist_ok=True)
    for name, bound in pairs:
        old = QUICK_OLD.replace("n <= 10", f"n <= {bound}")
        (directory / f"{name}_old.imp").write_text(old)
        (directory / f"{name}_new.imp").write_text(
            old.replace("tick(1)", "tick(2)"))


def run_async(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=TEST_DEADLINE))


class LiveNode:
    """A real AnalysisServer on its own event-loop thread, so the
    blocking cluster dispatcher can call it over actual sockets."""

    def __init__(self, cache_dir=None, workers=1):
        self.port = None
        self.server = None
        self._settings = {"port": 0, "workers": workers,
                          "cache_dir": cache_dir}
        self._loop = None
        self._stopping = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(30), "node failed to start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self.server = AnalysisServer(ServeConfig(**self._settings))
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self._stopping.wait()
        await self.server.stop()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    @property
    def address(self):
        return f"127.0.0.1:{self.port}"

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        self._thread.join(timeout=30)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    set_plan(None)


def partition_plan(*addresses, max_attempts=0):
    """A plan that takes whole nodes off the network (every attempt)."""
    return FaultPlan.from_dict({
        "seed": 7,
        "rules": [{"site": "node.partition", "name": address,
                   "max_attempts": max_attempts}
                  for address in addresses],
    })


def local_canonical(directory, config=FAST):
    report = run_batch(directory, config=config,
                       engine=EngineConfig(jobs=1, cache_dir=None))
    return canonical_json(json.loads(batch_to_json(report)))


# -- the resilient client ---------------------------------------------------


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Scriptable endpoints for retry-classification tests."""

    calls: dict[str, int] = {}

    def _count(self) -> int:
        calls = type(self).calls
        calls[self.path] = calls.get(self.path, 0) + 1
        return calls[self.path]

    def _reply(self, status, body, headers=()):
        data = json.dumps(body).encode()
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        nth = self._count()
        if self.path == "/ok":
            self._reply(200, {"ok": True})
        elif self.path == "/shed-once":
            if nth == 1:
                self._reply(429, {"error": "overloaded"},
                            [("Retry-After", "0")])
            else:
                self._reply(200, {"ok": True, "attempt": nth})
        elif self.path == "/flaky-500":
            if nth == 1:
                self._reply(500, {"error": "boom"})
            else:
                self._reply(200, {"ok": True, "attempt": nth})
        elif self.path == "/bad":
            self._reply(400, {"error": "no such thing"})
        else:
            self._reply(404, {"error": "nope"})

    do_POST = do_GET

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.calls = {}
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestResilientClient:
    def fast_client(self, retries=3):
        return ResilientClient(deadline=5.0, retries=retries,
                               backoff_base=0.001, seed=2022)

    def test_plain_round_trip(self, stub_server):
        status, body = self.fast_client().get(f"{stub_server}/ok")
        assert (status, body) == (200, {"ok": True})

    def test_shedding_is_retried_honoring_retry_after(self, stub_server):
        status, body = self.fast_client().get(f"{stub_server}/shed-once")
        assert status == 200
        assert body["attempt"] == 2
        assert _StubHandler.calls["/shed-once"] == 2

    def test_5xx_is_retried(self, stub_server):
        status, body = self.fast_client().get(f"{stub_server}/flaky-500")
        assert status == 200
        assert body["attempt"] == 2

    def test_4xx_fails_fast_without_retries(self, stub_server):
        with pytest.raises(ClientError) as error:
            self.fast_client().get(f"{stub_server}/bad")
        assert error.value.retryable is False
        assert error.value.status == 400
        assert "no such thing" in str(error.value)
        assert _StubHandler.calls["/bad"] == 1

    def test_connection_refused_exhausts_into_node_unreachable(self):
        client = self.fast_client(retries=2)
        with pytest.raises(NodeUnreachable, match="3 attempt"):
            client.get("http://127.0.0.1:9/ok", deadline=0.5)

    def test_truncated_body_is_retried_to_a_full_answer(self, stub_server):
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "net.truncated_body", "name": "*/ok", "times": 1},
        ]}))
        status, body = self.fast_client().get(f"{stub_server}/ok")
        assert (status, body) == (200, {"ok": True})
        assert _StubHandler.calls["/ok"] == 2

    def test_transient_refusal_self_heals_on_retry(self, stub_server):
        # max_attempts=1 fires on attempt 0 only: the backoff retry of
        # the same request runs clean — the self-healing contract.
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "net.refused", "name": "*/ok", "max_attempts": 1},
        ]}))
        status, _body = self.fast_client().get(f"{stub_server}/ok")
        assert status == 200
        assert _StubHandler.calls["/ok"] == 1  # refusal never connected

    def test_partition_rule_blinds_a_whole_node(self, stub_server):
        address = stub_server.split("://", 1)[1]
        set_plan(partition_plan(address))
        with pytest.raises(NodeUnreachable):
            self.fast_client(retries=1).get(f"{stub_server}/ok")
        assert _StubHandler.calls.get("/ok", 0) == 0

    def test_backoff_is_bounded_exponential_with_seeded_jitter(self):
        first = [backoff_schedule(a, random.Random(5)) for a in range(12)]
        again = [backoff_schedule(a, random.Random(5)) for a in range(12)]
        assert first == again  # seeded: two runs sleep the same schedule
        assert all(0 < sleep <= BACKOFF_CAP for sleep in first)
        widths = [0.05 * 2 ** attempt for attempt in range(12)]
        assert all(sleep <= min(BACKOFF_CAP, width)
                   for sleep, width in zip(first, widths))


# -- the node registry ------------------------------------------------------


class TestNodeRegistry:
    def test_url_normalization(self):
        assert normalize_url("127.0.0.1:8765") == "http://127.0.0.1:8765"
        assert normalize_url("http://h:1/") == "http://h:1"
        with pytest.raises(RegistryError):
            normalize_url("")
        with pytest.raises(RegistryError):
            normalize_url("https://h:1")

    def test_register_is_idempotent_and_revives_the_dead(self):
        registry = NodeRegistry(dead_after=1)
        node = registry.register("127.0.0.1:1")
        assert registry.register("http://127.0.0.1:1") is node
        registry.heartbeat_missed(node.url)
        assert registry.counts()["dead"] == 1
        fresh = registry.register("127.0.0.1:1")
        assert fresh is not node
        assert fresh.state == "live"

    def test_missed_heartbeats_debounce_into_death(self):
        registry = NodeRegistry(dead_after=3)
        url = registry.register("127.0.0.1:1").url
        assert registry.heartbeat_missed(url) == "suspect"
        assert registry.heartbeat_missed(url) == "suspect"
        assert [n.url for n in registry.eligible()] == [url]  # still used
        assert registry.heartbeat_missed(url) == "dead"
        assert registry.eligible() == []
        # One clean heartbeat rejoins the (respawned) node.
        registry.heartbeat_ok(url)
        assert registry.counts()["live"] == 1

    def test_request_failures_quarantine_and_heartbeats_recover(self):
        registry = NodeRegistry(quarantine_after=2, recover_after=2)
        url = registry.register("127.0.0.1:1").url
        assert registry.mark_request_failed(url) == "live"
        assert registry.mark_request_failed(url) == "quarantined"
        assert registry.eligible() == []  # no new work while poisoned
        registry.heartbeat_ok(url)
        assert registry.counts()["quarantined"] == 1
        registry.heartbeat_ok(url)
        assert registry.counts()["live"] == 1
        # A success resets the failure streak.
        registry.mark_request_ok(url)
        assert registry.mark_request_failed(url) == "live"

    def test_dead_nodes_are_evicted_after_the_grace(self):
        registry = NodeRegistry(dead_after=1, evict_after=0.0)
        url = registry.register("127.0.0.1:1").url
        registry.heartbeat_missed(url)
        assert registry.evict_expired() == [url]
        assert registry.nodes() == []

    def test_heartbeat_monitor_drives_the_state_machine(self):
        registry = NodeRegistry(dead_after=2)
        registry.register("127.0.0.1:9")  # nothing listens there
        monitor = HeartbeatMonitor(
            registry, ResilientClient(deadline=0.3, retries=0),
            interval=60.0)
        monitor.beat()
        assert registry.counts()["suspect"] == 1
        monitor.beat()
        assert registry.counts()["dead"] == 1


# -- shard report synthesis -------------------------------------------------


class TestShardReportSynthesis:
    def test_stats_count_the_logical_batch_not_the_retries(self):
        from repro.coord.dispatch import PairTask

        tasks = [
            PairTask(name="b", shard=0, payload={}, state="done",
                     executions=3,
                     result={"name": "b", "job_key": "2" * 64,
                             "status": "ok"}),
            PairTask(name="a", shard=0, payload={}, state="done",
                     executions=1,
                     result={"name": "a", "job_key": "1" * 64,
                             "status": "error"}),
        ]
        report = shard_report("d", 0, 2, tasks, pairs_total=2, seconds=1.0)
        assert report["shard"] == "0/2"
        assert report["partial"] is False
        assert report["pair_names"] == ["a", "b"]  # name-sorted
        assert [r["name"] for r in report["results"]] == ["a", "b"]
        stats = report["stats"]
        assert stats["submitted"] == 2  # not 4: duplicates are volatile
        assert stats["completed"] == 1
        assert stats["errors"] == 1

    def test_unresolved_pairs_leave_the_shard_partial(self):
        from repro.coord.dispatch import PairTask

        tasks = [PairTask(name="a", shard=0, payload={}, state="pending")]
        report = shard_report("d", 0, 1, tasks, pairs_total=1, seconds=0.1)
        assert report["partial"] is True
        assert report["results"] == []
        assert report["pair_names"] == ["a"]


# -- the cluster end to end -------------------------------------------------


class TestClusterBatch:
    def coord_config(self, nodes, **overrides):
        settings = dict(nodes=tuple(node.url for node in nodes),
                        min_nodes=1, node_concurrency=2,
                        heartbeat_interval=0.05, dead_after=2,
                        request_deadline=60.0, client_retries=2,
                        backoff_base=0.01, steal_after=0.05)
        settings.update(overrides)
        return CoordConfig(**settings)

    def cluster(self, coord):
        registry = NodeRegistry(
            dead_after=coord.dead_after,
            quarantine_after=coord.quarantine_after,
            recover_after=coord.recover_after,
            evict_after=coord.evict_after,
        )
        for url in coord.nodes:
            registry.register(url)
        client = ResilientClient(
            deadline=coord.request_deadline, retries=coord.client_retries,
            backoff_base=coord.backoff_base, seed=coord.client_seed,
        )
        return registry, client

    def test_fan_out_matches_local_jobs1_byte_for_byte(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS)
        nodes = [LiveNode(), LiveNode()]
        try:
            coord = self.coord_config(nodes)
            registry, client = self.cluster(coord)
            merged, cluster = run_cluster_batch(
                str(tmp_path / "batch"), FAST, registry, client, coord)
        finally:
            for node in nodes:
                node.stop()
        assert cluster["pairs"] == len(PAIRS)
        assert cluster["shards"] == 2
        assert not cluster["aborted"]
        assert cluster["failed_pairs"] == []
        assert merged["partial"] is False
        assert canonical_json(merged) == local_canonical(tmp_path / "batch")

    def test_dead_node_mid_run_is_reassigned_and_bytes_survive(
            self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS)
        nodes = [LiveNode(), LiveNode()]
        monitor = None
        try:
            coord = self.coord_config(nodes)
            registry, client = self.cluster(coord)
            # Partition the second node before dispatch: every analyze
            # call and every heartbeat to it fails, so its shard's
            # pairs requeue onto the survivor while the monitor walks
            # it live -> suspect -> dead.
            set_plan(partition_plan(nodes[1].address))
            monitor = HeartbeatMonitor(
                registry, ResilientClient(deadline=0.5, retries=0),
                interval=coord.heartbeat_interval)
            monitor.start()
            merged, cluster = run_cluster_batch(
                str(tmp_path / "batch"), FAST, registry, client, coord)
        finally:
            if monitor is not None:
                # Join before lifting the partition: a beat still in
                # flight would find the node reachable and revive it.
                monitor.stop()
                monitor.join(timeout=10)
            set_plan(None)
            for node in nodes:
                node.stop()
        assert not monitor.is_alive()
        assert not cluster["aborted"]
        assert cluster["failed_pairs"] == []
        assert cluster["requeues"] + cluster["reassigned"] >= 1
        assert registry.counts()["dead"] == 1
        assert merged["partial"] is False
        # The hard invariant: a node death is a volatile machine
        # condition — never a canonical report byte.
        assert canonical_json(merged) == local_canonical(tmp_path / "batch")

    def test_below_capacity_floor_degrades_to_partial(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS[:3])
        nodes = [LiveNode()]
        monitor = None
        try:
            coord = self.coord_config(nodes, min_nodes=1,
                                      client_retries=1)
            registry, client = self.cluster(coord)
            set_plan(partition_plan(nodes[0].address))
            monitor = HeartbeatMonitor(
                registry, ResilientClient(deadline=0.5, retries=0),
                interval=coord.heartbeat_interval)
            monitor.start()
            merged, cluster = run_cluster_batch(
                str(tmp_path / "batch"), FAST, registry, client, coord)
        finally:
            if monitor is not None:
                # Join before lifting the partition: a beat still in
                # flight would find the node reachable and revive it.
                monitor.stop()
                monitor.join(timeout=10)
            set_plan(None)
            for node in nodes:
                node.stop()
        assert not monitor.is_alive()
        assert cluster["aborted"] is True
        assert merged["partial"] is True
        assert len(cluster["unresolved_pairs"]) == 3
        # The partial report is still a mergeable, well-formed batch
        # report — graceful degradation, not a crash.
        assert merged["pair_names"] == sorted(n for n, _b in PAIRS[:3])

    def test_whole_cluster_down_refuses_the_batch(self, tmp_path):
        from repro.errors import AnalysisError

        _write_pairs(tmp_path / "batch", PAIRS[:1])
        registry = NodeRegistry(dead_after=1)
        url = registry.register("127.0.0.1:9").url
        registry.heartbeat_missed(url)  # dead before dispatch
        coord = CoordConfig(min_nodes=1)
        with pytest.raises(AnalysisError, match="capacity floor"):
            ClusterDispatch([], FAST, registry,
                            ResilientClient(), coord)

    def test_summary_line_logs_requeues_and_duplicates(self, tmp_path,
                                                       caplog):
        # A stub client in place of live nodes: the pair's first
        # execution is refused (one requeue) and its second is held
        # until the other node duplicates it (one duplicate).
        class StubClient:
            def __init__(self):
                self.calls = 0
                self.duplicated = threading.Event()
                self.lock = threading.Lock()

            def post(self, url, payload, **kwargs):
                with self.lock:
                    self.calls += 1
                    call = self.calls
                if call == 1:
                    raise NodeUnreachable(f"{url} refused the connection")
                if call == 2:
                    self.duplicated.wait(10)
                else:
                    self.duplicated.set()
                return 200, {"result": {
                    "job_key": "k", "name": payload["name"],
                    "kind": "diff", "status": "ok", "threshold": 8.0}}

        _write_pairs(tmp_path / "batch", PAIRS[:1])
        registry = NodeRegistry()
        for url in ("127.0.0.1:1", "127.0.0.1:2"):
            registry.register(url)
        coord = CoordConfig(min_nodes=1, node_concurrency=1,
                            steal_after=0.01)
        logger = logging.getLogger("repro.coord.dispatch")
        caplog.set_level(logging.INFO, logger=logger.name)
        # Also attached directly: an earlier --log-level run may have
        # stopped "repro" propagating to the root logger's capture.
        logger.addHandler(caplog.handler)
        try:
            _merged, cluster = run_cluster_batch(
                str(tmp_path / "batch"), FAST, registry, StubClient(),
                coord)
        finally:
            logger.removeHandler(caplog.handler)
        assert (cluster["requeues"], cluster["duplicates"]) == (1, 1)
        summary = {record.getMessage() for record in caplog.records
                   if "cluster batch done" in record.getMessage()}
        assert len(summary) == 1
        assert "1 requeue(s), 1 duplicate(s)" in summary.pop()

    def test_steal_counters_reach_the_metrics_registry(self, tmp_path):
        from repro.obs import get_registry

        _write_pairs(tmp_path / "batch", PAIRS)
        nodes = [LiveNode(), LiveNode()]
        try:
            coord = self.coord_config(nodes, steal_after=0.01)
            registry, client = self.cluster(coord)
            before = get_registry().counter(
                "repro_coord_pairs_dispatched_total").value()
            _merged, cluster = run_cluster_batch(
                str(tmp_path / "batch"), FAST, registry, client, coord)
        finally:
            for node in nodes:
                node.stop()
        after = get_registry().counter(
            "repro_coord_pairs_dispatched_total").value()
        assert after - before == len(PAIRS)
        if cluster["steals"]:
            assert get_registry().counter(
                "repro_coord_steals_total").value() >= cluster["steals"]


# -- the coordinator HTTP surface -------------------------------------------


async def http_json(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\nConnection: close\r\n\r\n"
        ).encode() + body
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    head, _, rest = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), head.decode(), json.loads(rest)


class TestCoordinatorServer:
    async def started(self, **overrides):
        settings = dict(port=0, heartbeat_interval=30.0)
        settings.update(overrides)
        server = CoordinatorServer(CoordConfig(**settings), FAST)
        await server.start()
        return server

    def test_node_registration_and_healthz(self):
        async def scenario():
            server = await self.started()
            try:
                status, _head, body = await http_json(
                    server.port, "POST", "/nodes",
                    {"url": "127.0.0.1:18999"})
                assert status == 200
                assert body["registered"] == "http://127.0.0.1:18999"
                status, _head, nodes = await http_json(
                    server.port, "GET", "/nodes")
                assert status == 200
                assert nodes["counts"]["live"] == 1
                status, _head, health = await http_json(
                    server.port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["registry"]["counts"]["live"] == 1

                status, _head, body = await http_json(
                    server.port, "POST", "/nodes", {"nope": 1})
                assert status == 400
            finally:
                await server.stop()

        run_async(scenario())

    def test_metrics_exposition_carries_cluster_series(self):
        async def scenario():
            server = await self.started()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 0\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                text = (await reader.read()).decode()
                writer.close()
                for series in (
                    'repro_coord_nodes{state="live"}',
                    'repro_coord_nodes{state="dead"}',
                    "repro_coord_batches_active",
                    "repro_coord_draining",
                    "repro_coord_steals_total",
                    "repro_coord_reassigned_total",
                    "repro_coord_duplicates_total",
                    "repro_coord_client_retries_total",
                ):
                    assert series in text, series
            finally:
                await server.stop()

        run_async(scenario())

    def test_batch_request_validation(self, tmp_path):
        async def scenario():
            server = await self.started()
            try:
                for payload, fragment in (
                    ({"config": {}}, "directory"),
                    ({"directory": ""}, "directory"),
                    ({"directory": "d", "shards": 0}, "shards"),
                    ({"directory": "d", "portfolio": True}, "portfolio"),
                    ({"directory": "d", "config": {"typo": 1}}, "typo"),
                    ({"directory": "d", "config": {"degree": "3"}},
                     "degree"),
                ):
                    status, _head, body = await http_json(
                        server.port, "POST", "/batch", payload)
                    assert status == 400, payload
                    assert fragment in body["error"]
                # No nodes registered: the floor rejection is a 503
                # with a Retry-After, not a hang or a crash.
                _write_pairs(tmp_path / "batch", PAIRS[:1])
                status, head, body = await http_json(
                    server.port, "POST", "/batch",
                    {"directory": str(tmp_path / "batch")})
                assert status == 503
                assert "retry-after:" in head.lower()
                assert "capacity floor" in body["error"]
            finally:
                await server.stop()

        run_async(scenario())

    def test_batch_over_http_matches_local(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS[:3])
        nodes = [LiveNode(), LiveNode()]

        async def scenario():
            server = await self.started(
                nodes=tuple(node.url for node in nodes),
                node_concurrency=2, steal_after=0.05)
            try:
                status, _head, body = await http_json(
                    server.port, "POST", "/batch",
                    {"directory": str(tmp_path / "batch"),
                     "config": {"degree": 1, "max_products": 1}})
                assert status == 200
                assert body["cluster"]["pairs"] == 3
                return body["report"]
            finally:
                await server.stop()

        try:
            report = run_async(scenario())
        finally:
            for node in nodes:
                node.stop()
        assert canonical_json(report) == local_canonical(tmp_path / "batch")

    def test_draining_coordinator_sheds_batches(self):
        async def scenario():
            server = await self.started()
            try:
                server._draining = True
                status, head, _body = await http_json(
                    server.port, "POST", "/batch", {"directory": "d"})
                assert status == 503
                assert "retry-after:" in head.lower()
            finally:
                await server.stop()

        run_async(scenario())


# -- CLI ---------------------------------------------------------------------


class TestCoordCli:
    def test_one_shot_batch_exits_zero_and_prints_canonical(
            self, tmp_path, capsys):
        from repro.cli import main

        _write_pairs(tmp_path / "batch", PAIRS[:2])
        node = LiveNode()
        try:
            exit_code = main([
                "coord", "--node", node.address,
                "--batch", str(tmp_path / "batch"), "--canonical",
                "-d", "1", "-K", "1", "--client-retries", "2",
            ])
        finally:
            node.stop()
        cluster_out = capsys.readouterr().out
        assert exit_code == 0
        # The local baseline through the same CLI config plumbing.
        assert main(["batch", str(tmp_path / "batch"), "--jobs", "1",
                     "--format", "json", "--no-cache",
                     "-d", "1", "-K", "1"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert cluster_out.rstrip("\n") == canonical_json(local)

    def test_one_shot_batch_with_no_nodes_is_a_structured_error(
            self, tmp_path, capsys):
        from repro.cli import main

        _write_pairs(tmp_path / "batch", PAIRS[:1])
        exit_code = main(["coord", "--batch", str(tmp_path / "batch"),
                          "--min-nodes", "1"])
        assert exit_code == 2
        assert "capacity floor" in capsys.readouterr().err
