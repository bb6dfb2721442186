"""serve-mixed: a live ``repro-diffcost serve`` driven closed-loop over
two connections.

Inputs are generated from the seed: one counted loop whose ``tick(a)``
becomes ``tick(b)`` over ``1 <= n <= N``, so the tight threshold is
``(b - a) * N`` by construction.  Requests ask for d = K = 1, which is
enough for a linear difference and keeps each analysis small.

Phases, all against one server with a fresh cache directory:

- ``warm-up``: both connections analyse the working set (misses);
- ``replay``: both connections replay the working set.  Each key's first
  replay is a verified disk read, later ones hit the hot LRU;
- ``mixed``: one connection streams fresh pairs back to back (misses:
  pool dispatch, analysis, cache write) while the other replays hits.
  Fixed roles, because a hit that overlaps a running miss waits on the
  engine bridge's poll quantum; random read/write mixes made the hit
  median depend on how many hits happened to overlap a miss.
"""

from __future__ import annotations

import collections
import json
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (PER_LAYER, ROOT, WORK, child_env, emit, environment,
                    median, percentile, run_dir)

#: Keys the replay phases read (well inside the 1,024-entry hot LRU).
WORKING_SET = 8
#: Fresh pairs the writer connection streams in phase ``mixed``.
MISSES = 8
#: Share of ``--seconds`` spent in phase ``replay``.
REPLAY_SHARE = 0.4
SETUP_LAUNCHES = 3
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

#: One request as the client saw it.  ``verdict`` is ``tight``, ``ok``
#: (sound, not tight), ``error: ...`` or ``wrong: ...``.
Record = collections.namedtuple(
    "Record", "phase start seconds verdict job_s job_key")

_PAIR_SOURCE = """proc gen(n) {{
  assume(1 <= n && n <= {bound});
  var i = 0;
  while (i < n) {{
    tick({cost});
    i = i + 1;
  }}
}}
"""


def generate_pairs(rng: random.Random, count: int) -> list[dict]:
    """``count`` pairs with their known tight threshold.  Loop bounds
    are all distinct: pairs sharing one would share invariant queries in
    a worker's memo tables, and a miss's cost would depend on the seed."""
    bounds = rng.sample(range(10, 1001), count)
    pairs = []
    for bound in bounds:
        a = rng.randint(1, 5)
        b = a + rng.randint(1, 5)
        body = json.dumps({
            "kind": "diff",
            "old_source": _PAIR_SOURCE.format(bound=bound, cost=a),
            "new_source": _PAIR_SOURCE.format(bound=bound, cost=b),
            "config": {"degree": 1, "max_products": 1},
            "name": f"gen-{a}-{b}-{bound}",
        }).encode()
        pairs.append({"known": (b - a) * bound,
                      "request": _http("POST", "/analyze", body)})
    return pairs


def _http(method: str, path: str, body: bytes = b"") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def exchange(port: int, data: bytes) -> tuple[int, bytes]:
    """Send one prebuilt request; the server closes after its answer.
    A lean client keeps the load generator's CPU use small."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _sep, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), body


def _descendants(pid: int) -> list[int]:
    """``pid`` and every process below it (workers are forked from the
    engine thread, so every thread's ``children`` list is read)."""
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        for path in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                pending.extend(int(c) for c in path.read_text().split())
            except OSError:
                continue
    return found


def _cpu_s(pid: int) -> float:
    """User plus system seconds ``pid`` has run (0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- the server process -----------------------------------------------------


class Server:
    """One ``repro-diffcost serve`` child with an ephemeral port."""

    def __init__(self, directory, trace_out=None):
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", str(min(2, os.cpu_count() or 1)),
                "--cache-dir", str(directory / "cache")]
        command = ([sys.executable, str(ROOT / "perfbench" /
                                        "serve_launcher.py"),
                    str(trace_out)] if trace_out else
                   [sys.executable, "-m", "repro"]) + args
        self.log_path = directory / "server.log"
        self.log = open(self.log_path, "w")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log,
            env=child_env(), cwd=ROOT)
        self.port = self._wait_ready()
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - start
        self.setup_cpu_s = _cpu_s(self.process.pid)

    def _wait_ready(self) -> int:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        buffer = b""
        stream = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                for line in buffer.decode(errors="replace").splitlines():
                    if line.startswith("serving on http://"):
                        return int(line.split()[2].rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError("server did not report its port:\n"
                           + self.log_path.read_text()[-2000:])

    def workers(self) -> list[int]:
        return _descendants(self.process.pid)[1:]

    def peak_rss_mb(self) -> float:
        """Largest peak resident set of the server and its workers."""
        peak = 0.0
        for pid in _descendants(self.process.pid):
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024.0)
            except OSError:
                continue
        return peak

    def stop(self) -> None:
        """Interrupt (the server's immediate stop) and wait for exit."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()

    def close(self) -> None:
        self.process.stdout.close()
        self.log.close()


class Client:
    """One closed-loop connection; keeps a :data:`Record` per request."""

    def __init__(self, port: int, seed: int):
        self.port = port
        self.rng = random.Random(seed)
        self.records: list[Record] = []

    def analyze(self, phase: str, pair: dict) -> dict:
        start = time.perf_counter()
        body: dict = {}
        try:
            status, data = exchange(self.port, pair["request"])
            body = json.loads(data)
            result = (body.get("result", {}) if status == 200
                      else {"status": f"http {status}"})
        except (OSError, ValueError, IndexError) as error:
            result = {"status": f"{type(error).__name__}: {error}"}
        seconds = time.perf_counter() - start
        self.records.append(Record(phase, start, seconds,
                                   verdict(pair, result),
                                   result.get("seconds", 0.0),
                                   body.get("job_key")))
        return result

    def replay_until(self, phase: str, pairs: list[dict], done) -> None:
        while not done():
            self.analyze(phase, self.rng.choice(pairs))


def verdict(pair: dict, result: dict) -> str:
    """The oracle: the served threshold must be the known one."""
    if result.get("status") != "ok":
        return f"error: status {result.get('status')}"
    known, threshold = pair["known"], result.get("threshold")
    if (result.get("outcome") != "threshold" or threshold is None
            or abs(threshold - known) > 1e-6 * max(1, known)):
        return f"wrong: {result.get('outcome')} {threshold} != {known}"
    return "tight" if threshold < known + 1 else "ok"


def run_phases(server: Server, seed: int, seconds: float) -> dict:
    """Warm-up, replay and mixed phases against one live server."""
    rng = random.Random(seed)
    pairs = generate_pairs(rng, WORKING_SET + MISSES)
    working, fresh = pairs[:WORKING_SET], pairs[WORKING_SET:]
    reader, writer = Client(server.port, seed), Client(server.port, seed + 1)
    windows = {}

    def both(target_reader, target_writer) -> None:
        threads = [threading.Thread(target=target_reader),
                   threading.Thread(target=target_writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    queue = collections.deque(working)

    def warm(client: Client) -> None:
        while True:
            try:
                pair = queue.popleft()
            except IndexError:
                return
            client.analyze("warm-up", pair)

    both(lambda: warm(reader), lambda: warm(writer))
    until = time.perf_counter() + REPLAY_SHARE * seconds

    def replayed() -> bool:
        return time.perf_counter() >= until

    both(lambda: reader.replay_until("replay", working, replayed),
         lambda: writer.replay_until("replay", working, replayed))
    streaming = threading.Event()

    def stream() -> None:
        for pair in fresh:
            writer.analyze("miss", pair)
        streaming.set()

    workers = {pid: _cpu_s(pid) for pid in server.workers()}
    windows["mixed"] = time.perf_counter()
    both(lambda: reader.replay_until("hit", working, streaming.is_set),
         stream)
    windows["end"] = time.perf_counter()
    # Hits never reach a worker: the workers' CPU time over the phase is
    # the misses' analysis work.
    miss_cpu = sum(_cpu_s(pid) - workers.get(pid, 0.0)
                   for pid in server.workers())
    return {"records": reader.records + writer.records, "windows": windows,
            "miss_cpu_s": miss_cpu}


def _healthz(port: int) -> dict:
    status, data = exchange(port, _http("GET", "/healthz"))
    return json.loads(data) if status == 200 else {}


def _measure(seed: int, seconds: float, launches: int,
             trace_out=None) -> dict:
    """``launches`` set-up samples; the last server then serves one full
    pass of the phases."""
    workdir = run_dir("serve-mixed")
    setup = []
    for index in range(launches):
        directory = workdir / f"server-{index}"
        directory.mkdir()
        last = index == launches - 1
        server = Server(directory, trace_out if last else None)
        setup.append((server.setup_cpu_s, server.setup_s))
        if not last:
            server.kill()
            server.close()
    try:
        outcome = run_phases(server, seed, seconds)
        outcome["peak_rss_mb"] = server.peak_rss_mb()
        outcome["health"] = _healthz(server.port)
    finally:
        server.stop()
        server.close()
    shutil.rmtree(workdir, ignore_errors=True)
    outcome["setup"] = setup
    outcome["ready_at"] = server.ready_at
    return outcome


def _end_to_end(outcome: dict) -> tuple[dict, dict]:
    """The gated metrics and the reported-only ones of one pass."""
    records = outcome["records"]
    by_phase = collections.defaultdict(list)
    for record in records:
        by_phase[record.phase].append(record.seconds)
    attempted = len(records)
    failed = sum(r.verdict not in ("tight", "ok") for r in records)
    tight = sum(r.verdict == "tight" for r in records)
    ms = 1000.0
    metrics = {
        "setup_s": (median([cpu for cpu, _wall in outcome["setup"]]), "s"),
        "cpu_s": (outcome["miss_cpu_s"], "s"),
        "hit_p50_ms": (median(by_phase["hit"]) * ms, "ms"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
        "tight_frac": (tight / attempted, "ratio"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    extra = {
        "wall_s": (sum(by_phase["miss"]), "s"),
        "setup_wall_s": (median([wall for _cpu, wall in outcome["setup"]]),
                         "s"),
        "miss_p50_ms": (median(by_phase["miss"]) * ms, "ms"),
        "replay_p50_ms": (median(by_phase["replay"]) * ms, "ms"),
        "replay_p99_ms": (percentile(by_phase["replay"], 99) * ms, "ms"),
    }
    return metrics, extra


def _layers(plain: dict, traced: dict, trace: dict) -> dict:
    """Per-layer metrics from the traced pass's server-side events."""
    ms = 1000.0
    events = trace["events"]
    windows = traced["windows"]

    def durations(name: str) -> list[float]:
        return [e[1] for e in events.get(name, ())]

    waits = {e[2]: e[1] for e in events.get("bridge_wait", ())}
    misses = [r for r in traced["records"] if r.phase == "miss"]
    hit_waits = [e[1] for e in events.get("bridge_wait", ())
                 if windows["mixed"] <= e[0] < windows["end"]
                 and e[2] not in {r.job_key for r in misses}]
    dispatch = [r.seconds - r.job_s - waits.get(r.job_key, 0.0)
                for r in misses]
    health = traced["health"]
    cache = health.get("cache", {})
    lookups = max(cache.get("hits", 0) + cache.get("misses", 0), 1)
    client_total = sum(r.seconds for r in traced["records"])
    http = durations("http")
    keys = durations("key")
    replay = {name: _end_to_end(o)[1]["replay_p50_ms"][0]
              for name, o in (("plain", plain), ("traced", traced))}
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "setup.import_s": trace["imported"] - trace["started"],
        "setup.warmup_s": traced["ready_at"] - trace["imported"],
        "engine.key_ms": ms * sum(keys) / len(keys) if keys else 0.0,
        "engine.bridge_wait_ms": ms * median(hit_waits),
        "engine.job_s": median([r.job_s for r in misses]),
        "engine.dispatch_ms": ms * median(dispatch),
        "cache.get_ms": ms * median(durations("cache_get")),
        "cache.put_ms": ms * median(durations("cache_put")),
        "cache.hot_hit_frac": cache.get("hot_hits", 0) / lookups,
        "cache.disk_read_frac": (cache.get("hits", 0)
                                 - cache.get("hot_hits", 0)) / lookups,
        "serve.server_ms": ms * median(http),
        "serve.coalesced": float(health.get("coalesced", 0)),
        "serve.shed": float(health.get("shed", 0)),
        "trace.overhead_frac": replay["traced"] / replay["plain"] - 1.0,
        "trace.accounted_frac": sum(http) / client_total,
    })
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


def _write_trace(seed: int, trace: dict) -> None:
    path = WORK / f"trace-serve-mixed-s{seed}.jsonl"
    with open(path, "w") as out:
        for name, items in trace["events"].items():
            for item in items:
                out.write(json.dumps({
                    "name": name, "cat": "perfbench", "ph": "X",
                    "ts": round(item[0] * 1e6, 3),
                    "dur": round(item[1] * 1e6, 3), "pid": trace["pid"],
                    "tid": 0, "args": {"unit": item[2] if len(item) > 2
                                       else ""}},
                    separators=(",", ":")) + "\n")
    print(f"perfbench: spans written to {path}", file=sys.stderr)


def run(seed: int, seconds: float, trace: bool) -> int:
    env = environment("serve-mixed", seed)
    plain = _measure(seed, seconds, 1 if trace else SETUP_LAUNCHES)
    outcomes = [plain]
    if trace:
        trace_out = WORK / f"serve-trace-{os.getpid()}.json"
        traced = _measure(seed, seconds, 1, trace_out)
        outcomes.append(traced)
        with open(trace_out) as handle:
            trace_data = json.load(handle)
        trace_out.unlink()
        metrics, extra = _layers(plain, traced, trace_data), {}
        _write_trace(seed, trace_data)
    else:
        metrics, extra = _end_to_end(plain)
    records = [r for o in outcomes for r in o["records"]]
    failures = [f"{r.phase}: {r.verdict}" for r in records
                if r.verdict not in ("tight", "ok")]
    correct = not any(": wrong:" in f for f in failures)
    notes = {"samples": dict(collections.Counter(r.phase for r in records)),
             "setup_samples": len(plain["setup"]), "failures": failures[:10]}
    emit(env, metrics, extra, len(records), len(failures), correct, notes)
    return 0 if correct else 1
