"""End-to-end tests of the serving front-end and the shard workflow.

Everything here runs against a *live* server on an ephemeral port (no
internal shortcuts for the request path) and asserts the layer's three
contracts: dedupe (cache replay + in-flight coalescing), structured
deadline timeouts riding the pool's cancellation path, and shard/merge
determinism (``--shard 0/2`` + ``--shard 1/2`` + merge byte-identical
to one unsharded ``--jobs 1`` run).

Every async entry point is wrapped in an outer ``asyncio.wait_for`` so
a regression hangs a test for at most ``TEST_DEADLINE`` seconds, not
forever (CI adds pytest-timeout on top).
"""

import asyncio
import errno
import gc
import json
import os
import socket
import sqlite3
import statistics
import sys
import threading
import time
import warnings

import pytest

from cache_rows import read_entry, stored_keys
from repro.config import AnalysisConfig, EngineConfig, ServeConfig
from repro.engine import (AnalysisJob, ResultCache, discover_pairs, run_batch,
                          shard_pairs)
from repro.engine import scheduler
from repro.engine.batch import batch_to_json
from repro.engine.executor import ParallelExecutor
from repro.faults import FaultPlan, set_plan
from repro.serve import (
    AnalysisServer,
    ServeError,
    canonical_json,
    job_from_payload,
    merge_caches,
    merge_reports,
    parse_shard_spec,
    report_ok,
)

#: Outer safety net per async test body.
TEST_DEADLINE = 180

QUICK_OLD = """
proc count(n) {
  assume(1 <= n && n <= 10);
  var i = 0;
  while (i < n) { tick(1); i = i + 1; }
}
"""
QUICK_NEW = QUICK_OLD.replace("tick(1)", "tick(2)")

#: Takes ~0.2 s to analyze at degree 2: two back-to-back requests
#: overlap once the first is confirmed in flight.  A test that needs it
#: to outlast a deadline holds it with a ``job.delay`` rule.
SLOW_OLD = """
proc nested(n, m) {
  assume(1 <= n && n <= 100 && 1 <= m && m <= 100);
  var i = 0;
  while (i < n) {
    var j = 0;
    while (j < m) { tick(1); j = j + 1; }
    i = i + 1;
  }
}
"""
SLOW_NEW = SLOW_OLD.replace("tick(1)", "tick(3)")

#: Under half a second at degree 2 and a few seconds at d = K = 3.
#: Tests confirm it in flight before they rely on it running.
CUBIC_OLD = """
proc nested(n, m, p) {
  assume(1 <= n && n <= 100);
  assume(1 <= m && m <= 100);
  assume(1 <= p && p <= 100);
  var i = 0;
  var j = 0;
  var k = 0;
  while (i < n) {
    j = 0;
    while (j < m) {
      k = 0;
      while (k < p) { tick(1); k = k + 1; }
      j = j + 1;
    }
    i = i + 1;
  }
}
"""
CUBIC_NEW = CUBIC_OLD.replace("tick(1)", "tick(2)")


def run_async(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=TEST_DEADLINE))


async def http_json(port, method, path, payload=None):
    """Minimal HTTP/1.1 client: one request, read to EOF, parse JSON."""
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
    return int(head.split()[1]), json.loads(rest)


async def http_text(port, method, path):
    """Like :func:`http_json` but returns the raw body and headers —
    for the Prometheus text exposition of ``/metrics``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: 0\r\nConnection: close\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    head, _, rest = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), head.decode(), rest.decode()


def _metric_value(text: str, sample: str) -> float:
    """The value of an exact sample line (name incl. labels)."""
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[-1])
    raise AssertionError(f"sample {sample!r} not in exposition:\n{text}")


async def started_server(tmp_path, **overrides) -> AnalysisServer:
    settings = {"port": 0, "workers": 1,
                "cache_dir": str(tmp_path / "serve-cache")}
    settings.update(overrides)
    server = AnalysisServer(ServeConfig(**settings))
    await server.start()
    return server


class TestRoundTrip:
    def test_analyze_round_trip_and_cache_replay(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                payload = {"kind": "diff", "old_source": QUICK_OLD,
                           "new_source": QUICK_NEW, "name": "count"}
                status, first = await http_json(
                    server.port, "POST", "/analyze", payload)
                assert status == 200
                assert first["deduped"] is False
                assert first["result"]["status"] == "ok"
                assert first["result"]["outcome"] == "threshold"
                assert first["result"]["threshold"] == pytest.approx(10.0)
                assert not first["result"]["cached"]

                # The same request again replays from the persistent
                # cache: no new analysis, flagged as cached.
                status, second = await http_json(
                    server.port, "POST", "/analyze", payload)
                assert status == 200
                assert second["result"]["cached"] is True
                assert second["job_key"] == first["job_key"]

                status, health = await http_json(
                    server.port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["engine"]["cache_hits"] == 1
                assert health["engine"]["completed"] >= 1
            finally:
                await server.stop()

        run_async(scenario())

    def test_config_overrides_change_the_job(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                base = {"kind": "diff", "old_source": QUICK_OLD,
                        "new_source": QUICK_NEW, "name": "count"}
                _status, default = await http_json(
                    server.port, "POST", "/analyze", base)
                _status, exact = await http_json(
                    server.port, "POST", "/analyze",
                    dict(base, config={"lp_backend": "exact"}))
                # Different config → different content hash → its own
                # cache entry, but the same exact threshold.
                assert exact["job_key"] != default["job_key"]
                assert exact["result"]["threshold_str"] == "10"
            finally:
                await server.stop()

        run_async(scenario())

    def test_malformed_requests_are_structured_400s(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                for payload in (
                    {"kind": "nope", "old_source": QUICK_OLD},
                    {"kind": "diff", "old_source": ""},
                    {"kind": "diff", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "config": {"typo_field": 1}},
                    {"kind": "diff", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "deadline": -1},
                ):
                    status, body = await http_json(
                        server.port, "POST", "/analyze", payload)
                    assert status == 400, payload
                    assert "error" in body
                # A JSON boolean is not a refutation candidate.
                status, body = await http_json(
                    server.port, "POST", "/analyze",
                    {"kind": "refute", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "candidate": True})
                assert status == 400
                assert "candidate" in body["error"], body
                # Mistyped or retired config overrides are rejected at
                # the door with an error naming the field, before any
                # job is keyed or dispatched.
                for field, value in (("degree", "3"), ("degree", 2.5),
                                     ("degree", True),
                                     ("max_products", 1.5),
                                     ("widening_delay", "x"),
                                     ("widening_delay", -5),
                                     ("narrowing_passes", -1),
                                     ("lp_incremental", False)):
                    payload = {"kind": "diff", "old_source": QUICK_OLD,
                               "new_source": QUICK_NEW,
                               "config": {field: value}}
                    status, body = await http_json(
                        server.port, "POST", "/analyze", payload)
                    assert status == 400, payload
                    assert field in body["error"], body
                status, body = await http_json(server.port, "GET", "/nope")
                assert status == 404
                # The server survives all of it.
                status, _health = await http_json(
                    server.port, "GET", "/healthz")
                assert status == 200
            finally:
                await server.stop()

        run_async(scenario())


class TestCoalescing:
    def test_duplicate_request_runs_one_job_two_responses(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                payload = {"kind": "diff", "old_source": SLOW_OLD,
                           "new_source": SLOW_NEW, "name": "nested"}
                first = asyncio.create_task(
                    http_json(server.port, "POST", "/analyze", payload))
                # Deterministic overlap: wait until the server reports
                # the job in flight before firing the duplicate.
                for _ in range(600):
                    _status, health = await http_json(
                        server.port, "GET", "/healthz")
                    if health["inflight"] >= 1:
                        break
                    await asyncio.sleep(0.05)
                else:
                    pytest.fail("job never showed up as in-flight")
                second = asyncio.create_task(
                    http_json(server.port, "POST", "/analyze", payload))
                (status1, body1), (status2, body2) = await asyncio.gather(
                    first, second)
                assert status1 == status2 == 200
                assert body1["result"]["threshold"] == pytest.approx(20000.0)
                assert body2["result"]["threshold"] == pytest.approx(20000.0)
                # One of the two was coalesced onto the other's run.
                assert body2["deduped"] or body1["deduped"]

                _status, health = await http_json(
                    server.port, "GET", "/healthz")
                assert health["coalesced"] == 1
                # One job submitted to the engine, zero cache hits: the
                # second response came from the same single run.
                assert health["engine"]["submitted"] == 1
                assert health["engine"]["cache_hits"] == 0
            finally:
                await server.stop()

        run_async(scenario())


class TestMetricsEndpoint:
    def test_metrics_exposition_tracks_requests_and_cache(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                payload = {"kind": "diff", "old_source": QUICK_OLD,
                           "new_source": QUICK_NEW, "name": "count"}
                for _ in range(2):  # second replays from the cache
                    status, _body = await http_json(
                        server.port, "POST", "/analyze", payload)
                    assert status == 200

                status, head, text = await http_text(
                    server.port, "GET", "/metrics")
                assert status == 200
                assert "text/plain; version=0.0.4" in head
                assert "# TYPE repro_http_requests_total counter" in text
                # The registry is process-global (tests share it), so
                # assert the floor this scenario guarantees, not ==.
                requests = _metric_value(
                    text, 'repro_http_requests_total{path="/analyze"}')
                assert requests >= 2
                assert _metric_value(text, "repro_cache_hits_total") >= 1
                assert _metric_value(text, "repro_cache_stores_total") >= 1
                # Scrape-time gauges mirror engine and disk state.
                assert _metric_value(text, "repro_engine_submitted") >= 2
                assert _metric_value(text, "repro_engine_cache_hits") >= 1
                assert _metric_value(text, "repro_cache_entries") >= 1
                assert _metric_value(text, "repro_cache_total_bytes") > 0
                assert _metric_value(text, "repro_server_inflight") == 0
                # Admission-control series are present from the first
                # scrape — gauges and zeroed shed counters, not absent
                # until the first incident.
                assert _metric_value(text, "repro_server_draining") == 0
                assert _metric_value(text, "repro_server_queued") == 0
                assert _metric_value(
                    text, 'repro_server_shed_total{reason="overloaded"}') >= 0
                assert _metric_value(
                    text, 'repro_server_shed_total{reason="draining"}') >= 0
                # The scrape itself is counted on its own label.
                status, _head, text = await http_text(
                    server.port, "GET", "/metrics")
                assert _metric_value(
                    text, 'repro_http_requests_total{path="/metrics"}') >= 2

                # /healthz carries the full cache stats schema.
                _status, health = await http_json(
                    server.port, "GET", "/healthz")
                from repro.engine.cache import ResultCache

                assert set(health["cache"]) == set(ResultCache.empty_stats())
                assert health["cache"]["entries"] >= 1
            finally:
                await server.stop()

        run_async(scenario())

    def test_metrics_rejects_post(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                status, _body = await http_json(
                    server.port, "POST", "/metrics")
                assert status == 405
            finally:
                await server.stop()

        run_async(scenario())


class TestDeadline:
    def test_deadline_returns_structured_timeout_and_cancels(self, tmp_path):
        # A delay rule holds the job past the deadline whatever the
        # host's speed.  Set before the server forks its workers, which
        # inherit the plan.
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "job.delay", "name": "nested", "seconds": 30,
             "max_attempts": 0}]}))

        async def scenario():
            server = await started_server(tmp_path)
            try:
                status, body = await http_json(
                    server.port, "POST", "/analyze",
                    {"kind": "diff", "old_source": SLOW_OLD,
                     "new_source": SLOW_NEW, "name": "nested",
                     "deadline": 0.25})
                assert status == 200
                result = body["result"]
                assert result["status"] == "timeout"
                assert result["error_type"] == "DeadlineExceeded"
                assert "0.25" in result["message"]

                # The abandoned job went through the pool's cancel path
                # and the server still serves fresh work afterwards.
                _status, health = await http_json(
                    server.port, "GET", "/healthz")
                assert health["deadline_timeouts"] == 1
                assert health["inflight"] == 0
                status, quick = await http_json(
                    server.port, "POST", "/analyze",
                    {"kind": "diff", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "name": "count"})
                assert status == 200
                assert quick["result"]["status"] == "ok"
            finally:
                await server.stop()

        try:
            run_async(scenario())
        finally:
            set_plan(None)

    def test_waiter_deadline_does_not_kill_shared_job(self, tmp_path):
        """A timed-out waiter only withdraws *itself*: the job keeps
        running for the patient waiter, which still gets the answer."""
        # A one-second delay outlasts the hasty waiter's deadline
        # whatever the host's speed.
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "job.delay", "name": "nested", "seconds": 1,
             "max_attempts": 0}]}))

        async def scenario():
            server = await started_server(tmp_path)
            try:
                payload = {"kind": "diff", "old_source": SLOW_OLD,
                           "new_source": SLOW_NEW, "name": "nested"}
                patient = asyncio.create_task(
                    http_json(server.port, "POST", "/analyze", payload))
                for _ in range(600):
                    _status, health = await http_json(
                        server.port, "GET", "/healthz")
                    if health["inflight"] >= 1:
                        break
                    await asyncio.sleep(0.05)
                status, hasty = await http_json(
                    server.port, "POST", "/analyze",
                    dict(payload, deadline=0.1))
                assert hasty["result"]["status"] == "timeout"
                status, body = await patient
                assert status == 200
                assert body["result"]["status"] == "ok"
                assert body["result"]["threshold"] == pytest.approx(20000.0)
            finally:
                await server.stop()

        try:
            run_async(scenario())
        finally:
            set_plan(None)


QUICK_PAYLOAD = {"kind": "diff", "old_source": QUICK_OLD,
                 "new_source": QUICK_NEW, "name": "count"}

#: A miss that keeps the only worker busy for seconds (d = K = 3); the
#: deadline bounds the test, not the analysis.
LONG_MISS_PAYLOAD = {"kind": "diff", "old_source": CUBIC_OLD,
                     "new_source": CUBIC_NEW, "name": "cubic",
                     "config": {"degree": 3, "max_products": 3},
                     "deadline": 3}


async def start_long_miss(port) -> asyncio.Task:
    """Post :data:`LONG_MISS_PAYLOAD` and return once it is in flight."""
    miss = asyncio.ensure_future(
        http_json(port, "POST", "/analyze", LONG_MISS_PAYLOAD))
    for _ in range(600):
        _status, health = await http_json(port, "GET", "/healthz")
        if health["inflight"] >= 1:
            return miss
        await asyncio.sleep(0.01)
    raise AssertionError("the miss never showed up in flight")


def thread_cpu_seconds(thread: threading.Thread) -> float:
    """User + system CPU time of one thread of this process."""
    with open(f"/proc/self/task/{thread.native_id}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    # Fields 14 and 15 of stat(5), counted from the state field (3).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class TestEngineBridge:
    """The bridge thread wakes on events, survives errors and leaks
    nothing."""

    def test_hit_during_a_miss_is_answered_promptly(self, tmp_path):
        """A cached answer must not wait for the running miss: the
        bridge wakes on the posted request, not on a poll timer."""
        async def scenario():
            server = await started_server(tmp_path)
            try:
                _status, first = await http_json(
                    server.port, "POST", "/analyze", QUICK_PAYLOAD)
                assert first["result"]["status"] == "ok"
                miss = await start_long_miss(server.port)
                seconds = []
                for _ in range(20):
                    start = time.perf_counter()
                    _status, body = await http_json(
                        server.port, "POST", "/analyze", QUICK_PAYLOAD)
                    seconds.append(time.perf_counter() - start)
                    assert body["result"]["cached"], body
                _status, health = await http_json(
                    server.port, "GET", "/healthz")
                assert health["inflight"] == 1 and not miss.done()
                assert statistics.median(seconds) < 0.010, seconds
                status, _body = await miss
                assert status == 200
            finally:
                await server.stop()

        run_async(scenario())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs procfs")
    def test_start_stop_leaves_nothing_behind(self, tmp_path):
        # Without a cache: its SQLite handle is released by the garbage
        # collector, not by stop().
        async def cycle():
            server = await started_server(tmp_path, cache_dir=None)
            await server.stop()

        gc.collect()  # what earlier tests left to the collector
        descriptors = len(os.listdir("/proc/self/fd"))
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            # A socket left to the garbage collector warns when freed.
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(10):
                run_async(cycle())
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert threading.active_count() == threads
        assert not [warning for warning in caught
                    if issubclass(warning.category, ResourceWarning)]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs procfs")
    def test_bridge_sleeps_while_idle_and_while_a_miss_runs(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                bridge = server._bridge
                before = thread_cpu_seconds(bridge)
                await asyncio.sleep(1.0)
                assert thread_cpu_seconds(bridge) - before < 0.1
                miss = await start_long_miss(server.port)
                before = thread_cpu_seconds(bridge)
                await asyncio.sleep(1.0)
                assert thread_cpu_seconds(bridge) - before < 0.1
                assert not miss.done()
                await miss
            finally:
                await server.stop()

        run_async(scenario())

    def test_no_posted_message_is_slept_on(self, tmp_path):
        """Stress the drain order: with a tiny switch interval, rounds of
        concurrent hits post messages while the idle bridge is between
        its drains.  A message whose wake byte was consumed before the
        message was read would sleep until the next event — and with
        nothing running there is none, so the round would time out."""
        pairs = [dict(QUICK_PAYLOAD,
                      new_source=QUICK_OLD.replace("tick(1)", f"tick({c})"))
                 for c in range(2, 6)]

        async def scenario():
            server = await started_server(tmp_path)
            try:
                for payload in pairs:
                    await http_json(server.port, "POST", "/analyze", payload)
                for _ in range(100):
                    replies = await asyncio.wait_for(asyncio.gather(*(
                        http_json(server.port, "POST", "/analyze", payload)
                        for payload in pairs)), 10)
                    assert all(body["result"]["cached"]
                               for _status, body in replies), replies
            finally:
                await server.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_async(scenario())
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("where", ["worker spawn", "cache read",
                                       "pool wait"])
    def test_one_failure_neither_kills_the_bridge_nor_loses_a_request(
            self, tmp_path, monkeypatch, where):
        """One exception — descriptors exhausted when the miss spawns
        its worker, a broken cache read inside the submission, or an
        error while driving the pool — is answered (structurally where
        it ends the submission) and the next request is served."""
        owner, name, error, expected = {
            "worker spawn": (scheduler, "_Worker",
                             OSError(errno.EMFILE,
                                     os.strerror(errno.EMFILE)),
                             ("error", "OSError")),
            "cache read": (ResultCache, "get",
                           sqlite3.DatabaseError("disk image is malformed"),
                           ("error", "DatabaseError")),
            "pool wait": (ParallelExecutor, "poll", RuntimeError("boom"),
                          ("ok", None)),
        }[where]
        original = getattr(owner, name)
        failures = [error]

        def fail_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, fail_once)

        async def scenario():
            server = await started_server(tmp_path, max_retries=0)
            try:
                _status, first = await asyncio.wait_for(http_json(
                    server.port, "POST", "/analyze", QUICK_PAYLOAD), 30)
                result = first["result"]
                assert (result["status"], result["error_type"]) == expected
                if expected[0] == "error":
                    assert str(error) in result["message"]
                assert not failures
                _status, second = await asyncio.wait_for(http_json(
                    server.port, "POST", "/analyze", QUICK_PAYLOAD), 30)
                assert second["result"]["status"] == "ok"
                assert server._bridge.is_alive()
            finally:
                await server.stop()

        run_async(scenario())


def quick_job(name: str, tick: int = 2) -> AnalysisJob:
    return AnalysisJob(kind="diff", old_source=QUICK_OLD,
                       new_source=QUICK_OLD.replace("tick(1)",
                                                    f"tick({tick})"),
                       name=name)


class TestSubmissionRetry:
    """A job whose first attempt fails transiently is re-run inside the
    engine: its submitter gets exactly one answer, from the last
    attempt."""

    @pytest.fixture(autouse=True)
    def flaky_plan(self):
        # Installed before the pool forks the workers that inherit it.
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "job.error", "name": "flaky", "max_attempts": 1},
            {"site": "job.delay", "name": "holder", "seconds": 30,
             "max_attempts": 0}]}))
        yield
        set_plan(None)

    def test_submit_job_answers_once_from_the_retry(self):
        answers = []
        with ParallelExecutor(jobs=1, max_retries=2) as executor:
            executor.submit_job(quick_job("flaky"), answers.append)
            deadline = time.monotonic() + 60
            while not answers:
                assert time.monotonic() < deadline
                executor.poll(None)
            executor.poll(None)  # nothing runs any more: returns at once
            assert [(r.status, r.attempts) for r in answers] == [("ok", 1)]
            assert executor.stats.retries == 1
            assert executor.stats.errors == 0

    def test_post_analyze_answers_once_from_the_retry(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                status, body = await http_json(
                    server.port, "POST", "/analyze",
                    dict(QUICK_PAYLOAD, name="flaky"))
                assert status == 200
                assert body["result"]["status"] == "ok"
                assert body["result"]["attempts"] == 1
                _status, health = await http_json(
                    server.port, "GET", "/healthz")
                engine = health["engine"]
                assert engine["retries"] == 1
                assert (engine["completed"], engine["errors"]) == (1, 0)
            finally:
                await server.stop()

        run_async(scenario())

    def test_cancel_between_a_failure_and_its_retry(self):
        # One worker: the flaky job fails first, then the held job (a
        # lower priority tuple) takes the worker and the retry waits
        # behind it — where the cancel finds it.
        answers = []
        waker, wake = socket.socketpair()
        waker.send(b"\0")  # never read: every poll returns promptly
        try:
            with ParallelExecutor(jobs=1, max_retries=2) as executor:
                flaky = executor.submit_job(quick_job("flaky"),
                                            answers.append, priority=(1,))
                executor.submit_job(quick_job("holder", tick=3),
                                    answers.append, priority=(0,))
                deadline = time.monotonic() + 60
                while executor.stats.retries < 1:
                    assert time.monotonic() < deadline
                    executor.poll(wake)
                    time.sleep(0.01)
                assert executor.cancel_task(flaky) is True
                for _ in range(3):
                    executor.poll(wake)
                assert answers == []
                assert executor.stats.cancelled == 1
                assert executor.pool.terminated == 0
        finally:
            waker.close()
            wake.close()


class TestPortfolioRequests:
    def test_best_mode_deadline_harvests_finished_rungs(self, tmp_path):
        """A best-mode deadline only abandons the *stragglers*: rungs
        that resolved before the deadline (here: cache-hit scipy rungs)
        still yield a chosen threshold instead of a blanket timeout."""
        # The uncached exact-warm rung is the straggler: a delay rule
        # holds it past the deadline whatever the host's speed.  Set
        # before the server forks its workers, which inherit the plan.
        set_plan(FaultPlan.from_dict({"seed": 1, "rules": [
            {"site": "job.delay", "name": "nested[d2K2:exact-warm]",
             "seconds": 30, "max_attempts": 0}]}))

        async def scenario():
            server = await started_server(tmp_path)
            try:
                # Prime the ladder's scipy rungs into the persistent
                # cache (identical configs to the portfolio's rungs).
                for degree, products in ((1, 1), (2, 2), (3, 2)):
                    status, _body = await http_json(
                        server.port, "POST", "/analyze",
                        {"old_source": SLOW_OLD, "new_source": SLOW_NEW,
                         "name": "nested",
                         "config": {"degree": degree,
                                    "max_products": products,
                                    "lp_backend": "scipy"}})
                    assert status == 200
                # The delayed exact-warm rung outlasts the deadline;
                # the cached rungs resolve in milliseconds.
                status, body = await http_json(
                    server.port, "POST", "/analyze",
                    {"old_source": SLOW_OLD, "new_source": SLOW_NEW,
                     "name": "nested", "portfolio": "best",
                     "deadline": 1.2})
                assert status == 200
                assert body["status"] == "ok"
                assert body["chosen_rung"] is not None
                assert body["threshold"] == pytest.approx(20000.0)
                resolved = [r for r in body["rungs"]
                            if r["status"] == "ok"]
                assert len(resolved) >= 2
                assert body["rungs"][3]["status"] == "cancelled"
            finally:
                await server.stop()

        try:
            run_async(scenario())
        finally:
            set_plan(None)

    def test_portfolio_first_mode_selection(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                status, body = await http_json(
                    server.port, "POST", "/analyze",
                    {"old_source": QUICK_OLD, "new_source": QUICK_NEW,
                     "name": "count", "portfolio": True})
                assert status == 200
                assert body["status"] == "ok"
                assert body["chosen_rung"] == 0  # d1K1 suffices here
                assert body["threshold"] == pytest.approx(10.0)
                assert len(body["rungs"]) == 4
                # Selection is ladder-order: rungs past the winner are
                # never reported as winners.
                for rung in body["rungs"][1:]:
                    assert rung["status"] in ("cancelled", "ok")
            finally:
                await server.stop()

        run_async(scenario())


def _write_pairs(directory, pairs):
    directory.mkdir(parents=True, exist_ok=True)
    for name, bound in pairs:
        old = QUICK_OLD.replace("n <= 10", f"n <= {bound}")
        new = old.replace("tick(1)", "tick(2)")
        (directory / f"{name}_old.imp").write_text(old)
        (directory / f"{name}_new.imp").write_text(new)


PAIRS = [("alpha", 4), ("beta", 6), ("gamma", 8), ("delta", 10)]


class TestShardMerge:
    def test_shard_partition_is_deterministic_and_disjoint(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS)
        pairs = discover_pairs(tmp_path / "batch")
        config = AnalysisConfig()
        shard0 = shard_pairs(pairs, config, (0, 2))
        shard1 = shard_pairs(pairs, config, (1, 2))
        names0 = {pair.name for pair in shard0}
        names1 = {pair.name for pair in shard1}
        assert names0 | names1 == {name for name, _bound in PAIRS}
        assert not names0 & names1
        # Stable across calls (and, by construction, across machines).
        assert [p.name for p in shard_pairs(pairs, config, (0, 2))] \
            == [p.name for p in shard0]

    def test_sharded_merge_matches_unsharded_byte_for_byte(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS)
        config = AnalysisConfig()

        whole_cache = tmp_path / "cache-whole"
        whole = run_batch(
            tmp_path / "batch", config=config,
            engine=EngineConfig(jobs=1, cache_dir=str(whole_cache)),
        )
        assert whole.ok and not whole.partial

        shard_reports, shard_caches = [], []
        for index in (0, 1):
            cache_dir = tmp_path / f"cache-{index}"
            shard_caches.append(cache_dir)
            report = run_batch(
                tmp_path / "batch", config=config,
                engine=EngineConfig(jobs=1, cache_dir=str(cache_dir)),
                shard=(index, 2),
            )
            assert report.shard == f"{index}/2"
            shard_reports.append(json.loads(batch_to_json(report)))

        merged = merge_reports(shard_reports)
        assert report_ok(merged)
        assert not merged["partial"]
        # The determinism guarantee, byte for byte.
        assert canonical_json(merged) \
            == canonical_json(json.loads(batch_to_json(whole)))

        # Cache contents match too: same entry set, same payloads up to
        # the volatile recorded seconds.
        merged_cache = tmp_path / "cache-merged"
        copied = merge_caches(str(merged_cache),
                              [str(path) for path in shard_caches])
        assert copied == len(ResultCache(whole_cache))
        keys = stored_keys(merged_cache)
        assert keys == stored_keys(whole_cache)
        for key in keys:
            ours = read_entry(merged_cache, key)
            theirs = read_entry(whole_cache, key)
            for entry in (ours, theirs):
                entry["result"].pop("seconds")
                entry["result"].pop("timings")
                # Derived from the full (volatile-bearing) result.
                entry.pop("checksum")
            assert ours == theirs, key

    def test_sharded_portfolio_merge_matches_unsharded(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS[:3])
        config = AnalysisConfig()
        engine = dict(jobs=1, cache_dir=None, portfolio=True)
        whole = run_batch(tmp_path / "batch", config=config,
                          engine=EngineConfig(**engine))
        shard_reports = [
            json.loads(batch_to_json(run_batch(
                tmp_path / "batch", config=config,
                engine=EngineConfig(**engine), shard=(index, 2),
            )))
            for index in (0, 1)
        ]
        merged = merge_reports(shard_reports)
        assert canonical_json(merged) \
            == canonical_json(json.loads(batch_to_json(whole)))

    def test_merge_rejects_inconsistent_shards(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS[:2])
        config = AnalysisConfig()
        report = json.loads(batch_to_json(run_batch(
            tmp_path / "batch", config=config,
            engine=EngineConfig(jobs=1, cache_dir=None), shard=(0, 2),
        )))
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="twice"):
            merge_reports([report, report])
        unsharded = json.loads(batch_to_json(run_batch(
            tmp_path / "batch", config=config,
            engine=EngineConfig(jobs=1, cache_dir=None),
        )))
        with pytest.raises(AnalysisError, match="no shard marker"):
            merge_reports([unsharded])

    def test_merge_rejects_mixed_portfolio_and_plain_shards(self, tmp_path):
        """A shard run without --portfolio cannot silently vanish into
        a portfolio merge — the mode mismatch is a hard error."""
        from repro.errors import AnalysisError

        _write_pairs(tmp_path / "plain", PAIRS[:1])
        _write_pairs(tmp_path / "port", PAIRS[1:2])
        plain = json.loads(batch_to_json(run_batch(
            tmp_path / "plain", config=AnalysisConfig(),
            engine=EngineConfig(jobs=1, cache_dir=None),
        )))
        portfolio = json.loads(batch_to_json(run_batch(
            tmp_path / "port", config=AnalysisConfig(),
            engine=EngineConfig(jobs=1, cache_dir=None, portfolio=True),
        )))
        plain["shard"], portfolio["shard"] = "0/2", "1/2"
        with pytest.raises(AnalysisError, match="non-portfolio"):
            merge_reports([plain, portfolio])

    def test_merge_marks_missing_shards_partial(self, tmp_path):
        _write_pairs(tmp_path / "batch", PAIRS)
        config = AnalysisConfig()
        report = json.loads(batch_to_json(run_batch(
            tmp_path / "batch", config=config,
            engine=EngineConfig(jobs=1, cache_dir=None), shard=(0, 2),
        )))
        merged = merge_reports([report])
        assert merged["partial"] is True
        assert merged["missing_shards"] == [1]

    def test_parse_shard_spec(self):
        from repro.errors import AnalysisError

        assert parse_shard_spec("0/2") == (0, 2)
        assert parse_shard_spec("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "x/2", "1", "1/0"):
            with pytest.raises(AnalysisError):
                parse_shard_spec(bad)


class TestPartialFlush:
    def test_interrupted_batch_flushes_completed_pairs(self, tmp_path,
                                                       monkeypatch):
        _write_pairs(tmp_path / "batch", PAIRS[:3])
        import repro.engine.executor as executor_module

        real_execute = executor_module.execute_job
        calls = {"n": 0}

        def interrupting(job, timeout=None, attempt=0):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt()
            return real_execute(job, timeout, attempt)

        monkeypatch.setattr(executor_module, "execute_job", interrupting)
        report = run_batch(
            tmp_path / "batch", config=AnalysisConfig(),
            engine=EngineConfig(jobs=1, cache_dir=None),
        )
        assert report.partial is True
        assert len(report.results) == 2
        assert all(r.status == "ok" for r in report.results)
        # The flushed slice is mergeable: it reads back like any shard
        # report (modulo the shard marker).
        data = json.loads(batch_to_json(report))
        assert data["partial"] is True
        assert len(data["results"]) == 2

    def test_interrupted_batch_cli_exits_130(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main
        _write_pairs(tmp_path / "batch", PAIRS[:2])
        import repro.engine.executor as executor_module

        monkeypatch.setattr(
            executor_module, "execute_job",
            lambda job, timeout=None, attempt=0: (_ for _ in ()).throw(
                KeyboardInterrupt()),
        )
        code = main(["batch", str(tmp_path / "batch"), "--no-cache",
                     "--format", "json"])
        assert code == 130
        data = json.loads(capsys.readouterr().out)
        assert data["partial"] is True
        assert data["results"] == []

    def test_interrupted_suite_flushes_partial_table(self, monkeypatch,
                                                     capsys):
        from repro.cli import main
        import repro.engine.executor as executor_module

        real_execute = executor_module.execute_job
        calls = {"n": 0}

        def interrupting(job, timeout=None, attempt=0):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt()
            return real_execute(job, timeout, attempt)

        monkeypatch.setattr(executor_module, "execute_job", interrupting)
        code = main(["suite", "--names", "join,ex2", "--no-cache"])
        assert code == 130
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.err
        assert "1/2" in captured.err

    def test_sigterm_maps_to_keyboard_interrupt(self):
        import os
        import signal as signal_module

        from repro.cli import _sigterm_as_interrupt

        with _sigterm_as_interrupt():
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal_module.SIGTERM)
        # Restored afterwards: the handler is no longer ours.
        assert signal_module.getsignal(signal_module.SIGTERM) \
            is signal_module.SIG_DFL


class TestCliShardCommands:
    def test_batch_shard_and_merge_shards_cli(self, tmp_path, capsys):
        from repro.cli import main

        _write_pairs(tmp_path / "batch", PAIRS)
        outputs = []
        for index in (0, 1):
            code = main([
                "batch", str(tmp_path / "batch"), "--shard", f"{index}/2",
                "--cache-dir", str(tmp_path / f"cache-{index}"),
                "--format", "json",
            ])
            assert code == 0
            payload = capsys.readouterr().out
            path = tmp_path / f"shard{index}.json"
            path.write_text(payload)
            outputs.append(path)
        code = main([
            "merge-shards", str(outputs[0]), str(outputs[1]),
            "-o", str(tmp_path / "merged.json"), "--canonical",
            "--cache-dir", str(tmp_path / "cache-merged"),
            "--source-caches",
            f"{tmp_path / 'cache-0'},{tmp_path / 'cache-1'}",
        ])
        assert code == 0
        merged = json.loads((tmp_path / "merged.json").read_text())
        assert merged["pair_names"] == sorted(n for n, _b in PAIRS)
        assert len(merged["results"]) == len(PAIRS)
        assert len(ResultCache(tmp_path / "cache-merged")) == len(PAIRS)

    def test_bad_shard_spec_is_a_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        _write_pairs(tmp_path / "batch", PAIRS[:1])
        code = main(["batch", str(tmp_path / "batch"), "--shard", "2/2"])
        assert code == 2
        assert "shard" in capsys.readouterr().err


class TestJobFromPayload:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ServeError, match="typo"):
            job_from_payload(
                {"old_source": QUICK_OLD, "new_source": QUICK_NEW,
                 "config": {"typo": 1}},
                AnalysisConfig(),
            )

    def test_defaults_inherited_from_base(self):
        base = AnalysisConfig(degree=3)
        job = job_from_payload(
            {"old_source": QUICK_OLD, "new_source": QUICK_NEW},
            base,
        )
        assert job.config.degree == 3
        assert job.kind == "diff"

    def test_refute_payload(self):
        job = job_from_payload(
            {"kind": "refute", "old_source": QUICK_OLD,
             "new_source": QUICK_NEW, "candidate": 9},
            AnalysisConfig(),
        )
        assert job.candidate == 9.0

    def test_refute_payload_rejects_a_boolean_candidate(self):
        with pytest.raises(ServeError, match="candidate"):
            job_from_payload(
                {"kind": "refute", "old_source": QUICK_OLD,
                 "new_source": QUICK_NEW, "candidate": True},
                AnalysisConfig(),
            )


async def http_post_raw(port, path, payload):
    """Raw POST: returns (status, head text, parsed JSON body) so tests
    can assert response *headers* (``Retry-After``)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
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


class TestAdmissionControl:
    """Load shedding (429 + Retry-After) and SIGTERM graceful drain."""

    SLOW_PAYLOAD = {"kind": "diff", "old_source": SLOW_OLD,
                    "new_source": SLOW_NEW, "name": "nested"}

    async def _wait_until(self, predicate, what):
        for _ in range(2000):
            if predicate():
                return
            await asyncio.sleep(0.01)
        raise AssertionError(f"timed out waiting for {what}")

    def test_overload_is_shed_with_429_and_retry_after(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path, max_concurrent=1,
                                          max_queue=0)
            try:
                inflight = asyncio.ensure_future(http_json(
                    server.port, "POST", "/analyze", self.SLOW_PAYLOAD))
                # Only once the slow request holds the single admission
                # slot is the next arrival deterministically sheddable.
                await self._wait_until(lambda: server._active == 1,
                                       "the slow request to be admitted")
                status, head, body = await http_post_raw(
                    server.port, "/analyze",
                    {"kind": "diff", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "name": "count"})
                assert status == 429
                assert "retry-after:" in head.lower()
                assert "overloaded" in body["error"]

                status, first = await inflight
                assert status == 200
                assert first["result"]["status"] == "ok"

                status, health = await http_json(
                    server.port, "GET", "/healthz")
                assert status == 200
                assert health["shed"] == 1
                # The worker-liveness block rides on /healthz.
                assert health["pool"]["alive"] >= 1
                assert health["pool"]["quarantined"] == 0
                assert health["engine"]["retries"] == 0

                # Once the slot frees up, requests are admitted again.
                status, after = await http_json(
                    server.port, "POST", "/analyze",
                    {"kind": "diff", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "name": "count"})
                assert status == 200
            finally:
                await server.stop()

        run_async(scenario())

    def test_sigterm_drains_in_flight_then_exits(self, tmp_path):
        import os
        import signal

        from repro.serve import serve_forever

        async def scenario():
            config = ServeConfig(port=0, workers=1,
                                 cache_dir=str(tmp_path / "serve-cache"),
                                 drain_timeout=60.0)
            started: list[AnalysisServer] = []
            serving = asyncio.ensure_future(
                serve_forever(config, ready=started.append))
            await self._wait_until(lambda: bool(started), "server start")
            server = started[0]

            inflight = asyncio.ensure_future(http_json(
                server.port, "POST", "/analyze", self.SLOW_PAYLOAD))
            await self._wait_until(lambda: server._active == 1,
                                   "the request to be in flight")
            os.kill(os.getpid(), signal.SIGTERM)
            await self._wait_until(lambda: server._draining, "drain start")

            # While draining, new analysis work is refused with 503 —
            # the probe-able "leaving the rotation" signal.
            status, head, body = await http_post_raw(
                server.port, "/analyze",
                {"kind": "diff", "old_source": QUICK_OLD,
                 "new_source": QUICK_NEW, "name": "count"})
            assert status == 503
            assert "retry-after:" in head.lower()
            status, health = await http_json(server.port, "GET", "/healthz")
            assert health["status"] == "draining"

            # The in-flight request still completes normally.
            status, result = await inflight
            assert status == 200
            assert result["result"]["status"] == "ok"

            assert await serving == 0  # drained, closed, exited cleanly

        run_async(scenario())

    def test_request_cut_off_by_stop_is_a_503(self, tmp_path):
        """stop() tears the engine down under an in-flight request; the
        loop's shutdown then cancels the orphaned handler.  The client
        is refused like drained work (503), not told its request was
        malformed, and releasing the entry skips the gone bridge."""
        async def scenario():
            server = await started_server(tmp_path)
            inflight = asyncio.ensure_future(http_post_raw(
                server.port, "/analyze", self.SLOW_PAYLOAD))
            await self._wait_until(lambda: server._active == 1,
                                   "the request to be in flight")
            handlers = [
                task for task in asyncio.all_tasks()
                if task.get_coro().__qualname__
                == "AnalysisServer._handle_client"
            ]
            assert len(handlers) == 1
            stopping = asyncio.ensure_future(server.stop())
            # Where the listener's wait_closed() waits for open
            # connections, stop() is still pending here; the handler
            # must be refused either way.
            await asyncio.wait({stopping}, timeout=2.0)
            for task in handlers:
                task.cancel()
            status, _head, body = await asyncio.wait_for(inflight, 30)
            assert status == 503
            assert "stopped" in body["error"]
            await asyncio.wait_for(stopping, 30)
            assert server._bridge is None and not server._inflight

        run_async(scenario())

    def test_sigint_with_a_request_in_flight_exits_promptly(self, tmp_path):
        """A forked worker keeps SIGTERM's default action, so stopping
        the pool kills a busy worker even though the serve loop had a
        SIGTERM handler installed when it forked."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--no-cache"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = process.stdout.readline()
            port = int(banner.split("://")[1].split(":")[1].split()[0])

            async def scenario():
                # A cubic pair the worker is still analysing when the
                # signal lands.
                payload = {"kind": "diff", "old_source": CUBIC_OLD,
                           "new_source": CUBIC_NEW, "name": "cubic",
                           "config": {"degree": 2, "max_products": 2}}
                inflight = asyncio.ensure_future(
                    http_post_raw(port, "/analyze", payload))
                for _ in range(2000):
                    _status, health = await http_json(port, "GET",
                                                      "/healthz")
                    if health["inflight"]:
                        break
                    await asyncio.sleep(0.01)
                process.send_signal(signal.SIGINT)
                started = time.monotonic()
                while process.poll() is None:
                    assert time.monotonic() - started < 30, \
                        "server still running 30s after SIGINT"
                    await asyncio.sleep(0.05)
                try:
                    await asyncio.wait_for(inflight, 10)
                except (ConnectionError, ValueError, IndexError):
                    pass  # cut off without a response: also fine here

            run_async(scenario())
            assert process.returncode == 0
            assert "Traceback" not in process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(10)

    def test_retry_after_is_derived_not_hardcoded(self, tmp_path):
        """Satellite of the cluster PR: the Retry-After hint reflects
        queue depth (overload) and the remaining drain budget
        (draining) instead of a constant second."""
        async def scenario():
            server = await started_server(tmp_path, max_concurrent=2)
            try:
                # Overload: a deep queue of slow requests pushes the
                # hint up; an empty queue with fast requests keeps it
                # at the 1s floor.
                server._latency_ewma = 2.0
                server._queued = 30
                deep = server._retry_after_seconds("overloaded")
                server._queued = 0
                shallow = server._retry_after_seconds("overloaded")
                assert shallow == 1
                assert deep >= 10 * shallow
                server._latency_ewma = 1000.0
                server._queued = 1000
                assert server._retry_after_seconds("overloaded") == 60

                # Draining: the hint is the remaining drain budget, so
                # a client retries after this process is gone.
                server._draining = True
                server._drain_deadline = \
                    asyncio.get_running_loop().time() + 7.0
                assert 6 <= server._retry_after_seconds("draining") <= 8
                status, head, _body = await http_post_raw(
                    server.port, "/analyze",
                    {"kind": "diff", "old_source": QUICK_OLD,
                     "new_source": QUICK_NEW, "name": "count"})
                assert status == 503
                retry_after = [
                    line.split(":", 1)[1].strip()
                    for line in head.splitlines()
                    if line.lower().startswith("retry-after:")
                ]
                assert retry_after and 6 <= int(retry_after[0]) <= 8
            finally:
                await server.stop()

        run_async(scenario())

    def test_draining_gauge_flips_in_metrics(self, tmp_path):
        async def scenario():
            server = await started_server(tmp_path)
            try:
                _status, _head, text = await http_text(
                    server.port, "GET", "/metrics")
                assert _metric_value(text, "repro_server_draining") == 0
                server._draining = True
                _status, _head, text = await http_text(
                    server.port, "GET", "/metrics")
                assert _metric_value(text, "repro_server_draining") == 1
            finally:
                server._draining = False
                await server.stop()

        run_async(scenario())


def _synthetic_shard(index, count, names, first_key=0):
    """A minimal, well-formed shard report dict for merge tests."""
    ordered = sorted(names)
    return {
        "directory": "batch",
        "seconds": 0.1,
        "shard": f"{index}/{count}",
        "partial": False,
        "pairs_total": len(ordered),
        "pair_names": ordered,
        "stats": {"submitted": len(ordered), "completed": len(ordered),
                  "errors": 0, "timeouts": 0, "cancelled": 0,
                  "cache_hits": 0, "retries": 0, "seconds": 0.1},
        "results": [
            {"job_key": f"{first_key + position:064x}", "name": name,
             "kind": "diff", "status": "ok", "outcome": "threshold",
             "threshold": 1.0, "threshold_str": "1", "message": "",
             "error_type": None, "config_summary": "d1", "seconds": 0.0,
             "cached": False, "timings": {}, "attempts": 1}
            for position, name in enumerate(ordered)
        ],
    }


class TestMergeAdversarialInputs:
    """merge_reports must fail loudly on inputs that would silently
    double-count: duplicate shard markers, overlapping pair sets, and
    re-merging an already-merged partial report."""

    def test_duplicate_shard_markers_rejected(self):
        from repro.errors import AnalysisError

        shard = _synthetic_shard(0, 2, ["alpha"])
        twin = _synthetic_shard(0, 2, ["beta"], first_key=8)
        with pytest.raises(AnalysisError, match="twice"):
            merge_reports([shard, twin])

    def test_overlapping_pair_sets_rejected(self):
        from repro.errors import AnalysisError

        shard0 = _synthetic_shard(0, 2, ["alpha", "beta"])
        shard1 = _synthetic_shard(1, 2, ["beta", "gamma"], first_key=8)
        with pytest.raises(AnalysisError, match="claimed by two shards"):
            merge_reports([shard0, shard1])

    def test_remerging_a_merged_partial_report_fails_loudly(self):
        from repro.errors import AnalysisError

        merged = merge_reports([_synthetic_shard(0, 2, ["alpha"])])
        assert merged["partial"] is True
        assert merged["missing_shards"] == [1]
        # Alone, or folded in with the shard it is missing: both are
        # stats double-counting and must be refused by name.
        with pytest.raises(AnalysisError, match="merged partial report"):
            merge_reports([merged])
        late = _synthetic_shard(1, 2, ["beta"], first_key=8)
        with pytest.raises(AnalysisError, match="merging a merge"):
            merge_reports([merged, late])

    def test_complete_merge_of_disjoint_shards_still_works(self):
        merged = merge_reports([
            _synthetic_shard(0, 2, ["alpha"]),
            _synthetic_shard(1, 2, ["beta"], first_key=8),
        ])
        assert merged["partial"] is False
        assert merged["pair_names"] == ["alpha", "beta"]
        assert merged["stats"]["submitted"] == 2
