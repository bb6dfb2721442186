"""Cache federation over live HTTP: delta/merge endpoints, the
coordinator's federation round, and the drop-fault sites.

A fleet of ``serve`` nodes each accumulates cache entries locally; one
federation round (pull deltas, union, push merges) must converge them
to the same cache without ever laundering an entry a local ``get``
would refuse.  The protocol is first-writer-wins on content-addressed
keys, so every leg is idempotent and retryable — which is what the
``cache.delta_drop`` / ``cache.merge_drop`` chaos sites exercise.
"""

import asyncio
import threading

import pytest

from repro.config import AnalysisConfig, CoordConfig, ServeConfig
from repro.coord import CoordinatorServer, ResilientClient
from repro.engine.cache import ResultCache
from repro.engine.cache.federation import federate_round, merge_deltas
from repro.engine.jobs import AnalysisJob, JobResult
from repro.faults import FaultPlan, set_plan
from repro.serve import AnalysisServer

TEST_DEADLINE = 180

FAST = AnalysisConfig(degree=1, max_products=1)


def job(index: int) -> AnalysisJob:
    source = (
        "proc p(n) {\n"
        f"  assume(1 <= n && n <= {index + 2});\n"
        "  var i = 0;\n"
        "  while (i < n) { tick(1); i = i + 1; }\n"
        "}\n"
    )
    return AnalysisJob(kind="single", old_source=source,
                       config=AnalysisConfig(), name=f"fed{index}")


def seed_cache(directory, indices) -> list[str]:
    cache = ResultCache(directory)
    keys = []
    for index in indices:
        the_job = job(index)
        assert cache.put(the_job, JobResult(
            job_key=the_job.key, name=the_job.name, kind=the_job.kind,
            status="ok", outcome="bounded", threshold=float(index),
            threshold_str=str(index), message=f"fed entry {index}",
            seconds=0.1,
        ))
        keys.append(the_job.key)
    return keys


class LiveNode:
    """A real AnalysisServer on its own event-loop thread so blocking
    federation clients can reach it over actual sockets."""

    def __init__(self, cache_dir):
        self.port = None
        self.server = None
        self._settings = {"port": 0, "workers": 1,
                          "cache_dir": str(cache_dir)}
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

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        self._thread.join(timeout=30)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    set_plan(None)
    yield
    set_plan(None)


def fast_client(retries=3):
    return ResilientClient(deadline=10.0, retries=retries,
                           backoff_base=0.001, seed=2022)


class TestDeltaEndpoint:
    def test_delta_serves_trusted_entries_and_watermarks(self, tmp_path):
        keys = seed_cache(tmp_path / "a", range(3))
        node = LiveNode(tmp_path / "a")
        try:
            status, body = fast_client().get(
                f"{node.url}/cache/delta?since=0.0")
            assert status == 200
            assert body["count"] == 3
            assert sorted(r["key"] for r in body["records"]) == sorted(keys)
            assert body["watermark"] > 0.0
            # Nothing newer than the watermark: the next pull is empty.
            status, drained = fast_client().get(
                f"{node.url}/cache/delta?since={body['watermark']!r}")
            assert status == 200
            assert drained["count"] == 0
        finally:
            node.stop()

    def test_malformed_since_is_a_structured_400(self, tmp_path):
        from repro.coord.client import ClientError

        seed_cache(tmp_path / "a", range(1))
        node = LiveNode(tmp_path / "a")
        try:
            with pytest.raises(ClientError) as error:
                fast_client().get(f"{node.url}/cache/delta?since=yesterday")
            assert error.value.status == 400
        finally:
            node.stop()


class TestMergeEndpoint:
    def test_merge_applies_once_and_is_idempotent(self, tmp_path):
        seed_cache(tmp_path / "a", range(3))
        node_a = LiveNode(tmp_path / "a")
        node_b = LiveNode(tmp_path / "b")
        try:
            _status, delta = fast_client().get(
                f"{node_a.url}/cache/delta?since=0.0")
            status, outcome = fast_client().post(
                f"{node_b.url}/cache/merge", {"records": delta["records"]})
            assert status == 200
            assert outcome == {"applied": 3, "skipped": 0}
            # Re-delivery is a no-op: first writer already won.
            _status, again = fast_client().post(
                f"{node_b.url}/cache/merge", {"records": delta["records"]})
            assert again == {"applied": 0, "skipped": 0}
        finally:
            node_a.stop()
            node_b.stop()
        merged = ResultCache(tmp_path / "b")
        assert len(merged) == 3

    def test_merge_rejects_malformed_bodies(self, tmp_path):
        from repro.coord.client import ClientError

        seed_cache(tmp_path / "a", range(1))
        node = LiveNode(tmp_path / "a")
        try:
            with pytest.raises(ClientError) as error:
                fast_client().post(f"{node.url}/cache/merge",
                                   {"entries": []})
            assert error.value.status == 400
        finally:
            node.stop()


class TestFederationRound:
    def test_two_nodes_converge_to_the_union(self, tmp_path):
        keys_a = seed_cache(tmp_path / "a", (0, 1))
        keys_b = seed_cache(tmp_path / "b", (2,))
        node_a = LiveNode(tmp_path / "a")
        node_b = LiveNode(tmp_path / "b")
        watermarks: dict[str, float] = {}
        try:
            summary = federate_round(fast_client(),
                                     [node_a.url, node_b.url], watermarks)
            assert summary["failed"] == []
            assert summary["union"] == 3
            assert summary["applied"] == 3  # 1 onto A, 2 onto B
            assert set(watermarks) == {node_a.url, node_b.url}
            # A second round applies nothing (first writer already won
            # everywhere — re-delivery is a no-op), and the advanced
            # watermarks then silence the third round completely.
            again = federate_round(fast_client(),
                                   [node_a.url, node_b.url], watermarks)
            assert again["applied"] == 0
            third = federate_round(fast_client(),
                                   [node_a.url, node_b.url], watermarks)
            assert third["union"] == 0
        finally:
            node_a.stop()
            node_b.stop()
        for directory in (tmp_path / "a", tmp_path / "b"):
            cache = ResultCache(directory)
            for key in (*keys_a, *keys_b):
                assert cache.get(key) is not None, (directory, key)

    def test_drop_faults_are_absorbed_by_retries(self, tmp_path):
        seed_cache(tmp_path / "a", (0, 1))
        seed_cache(tmp_path / "b", (2,))
        # Both legs shed once: the node answers 503, the resilient
        # client backs off and retries, the round still converges.
        plan = FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "cache.delta_drop", "times": 1, "max_attempts": 0},
            {"site": "cache.merge_drop", "times": 1, "max_attempts": 0},
        ]})
        set_plan(plan)
        node_a = LiveNode(tmp_path / "a")
        node_b = LiveNode(tmp_path / "b")
        try:
            summary = federate_round(fast_client(),
                                     [node_a.url, node_b.url], {})
            assert plan.fired() == 2
            assert summary["failed"] == []
            assert summary["applied"] == 3
        finally:
            node_a.stop()
            node_b.stop()
        assert len(ResultCache(tmp_path / "a")) == 3
        assert len(ResultCache(tmp_path / "b")) == 3

    def test_unreachable_node_fails_without_poisoning_the_round(
            self, tmp_path):
        seed_cache(tmp_path / "a", (0, 1))
        node_a = LiveNode(tmp_path / "a")
        dead_url = "http://127.0.0.1:9"
        watermarks: dict[str, float] = {}
        try:
            summary = federate_round(fast_client(retries=0),
                                     [node_a.url, dead_url], watermarks)
            assert summary["failed"] == [dead_url]
            assert node_a.url in summary["per_node"]
            assert dead_url not in watermarks  # retried from 0 next round
        finally:
            node_a.stop()

    def test_merge_deltas_union_earliest_writer_wins(self):
        union = merge_deltas([
            [{"key": "k1", "ts": 5.0, "entry": {"a": 1}},
             {"key": "k2", "ts": 3.0, "entry": {"b": 1}}],
            [{"key": "k1", "ts": 2.0, "entry": {"a": 2}},
             "garbage", {"key": 7}],
        ])
        assert [record["key"] for record in union] == ["k1", "k2"]
        assert union[0]["ts"] == 2.0  # the earliest write of k1 won


class TestCoordinatorFederation:
    async def _drive(self, tmp_path, node_urls):
        coordinator = CoordinatorServer(
            CoordConfig(port=0, nodes=tuple(node_urls),
                        heartbeat_interval=30.0, client_retries=1,
                        backoff_base=0.001),
            FAST,
        )
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port)
            writer.write(b"POST /cache/federate HTTP/1.1\r\n"
                         b"Host: localhost\r\nContent-Length: 0\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            health = coordinator._healthz()
        finally:
            await coordinator.stop()
        import json as json_module

        head, _, rest = data.partition(b"\r\n\r\n")
        return int(head.split()[1]), json_module.loads(rest), health

    def test_post_cache_federate_converges_the_fleet(self, tmp_path):
        seed_cache(tmp_path / "a", (0, 1))
        seed_cache(tmp_path / "b", (2, 3))
        node_a = LiveNode(tmp_path / "a")
        node_b = LiveNode(tmp_path / "b")
        try:
            status, summary, health = asyncio.run(asyncio.wait_for(
                self._drive(tmp_path, [node_a.url, node_b.url]),
                timeout=TEST_DEADLINE))
            assert status == 200
            assert summary["union"] == 4
            assert summary["applied"] == 4
            assert summary["failed"] == []
            assert health["federation_rounds"] == 1
        finally:
            node_a.stop()
            node_b.stop()
        assert len(ResultCache(tmp_path / "a")) == 4
        assert len(ResultCache(tmp_path / "b")) == 4

    def test_federate_without_nodes_is_a_503(self, tmp_path):
        status, body, _health = asyncio.run(asyncio.wait_for(
            self._drive(tmp_path, []), timeout=TEST_DEADLINE))
        assert status == 503
        assert "no live nodes" in body["error"]
