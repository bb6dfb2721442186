"""Analysis workloads: each unit is one cold engine job.

A unit is one pair's :class:`~repro.engine.jobs.AnalysisJob` run through
:func:`~repro.engine.jobs.run_job` in a child forked from this process,
after it has imported everything and analysed a warm-up pair
that no workload contains (the start method the engine's ``WorkerPool``
uses on Linux).  Repeating a pair inside one process would be a warm
measurement instead: ``invariants/polyhedron.py`` keeps process-global
memo tables.  The parent collects each child's CPU time (``wait4``)
and wall time, and reports each pair's median over its repetitions,
interleaved round-robin in a seeded order.

While a child analyses, the parent reads verdicts back from the
engine's result cache (``hit`` requests); between children, with the
engine idle, it reads them back-to-back (``replay``).  Both are verified
disk reads, as in a ``suite``/``batch`` re-run, whose fresh process
starts with an empty hot tier.

Run as a script (``python3 perfbench/analysis.py --setup WORKLOAD``) it
is one set-up sample: import, analyse the warm-up pair, print timings.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from common import (PER_LAYER, ROOT, WORK, child_env, emit, environment,
                    median, percentile, run_dir)

#: Wall-clock limit of one cold unit; a child past it is killed and
#: counted as failed.
UNIT_LIMIT_S = 120.0
#: A child still running this many seconds into the run is killed (and
#: counted as failed), so a run ends within 180 s.
RUN_DEADLINE_S = 165.0
#: Fresh-interpreter launches per run behind ``setup_s``.
SETUP_LAUNCHES = 3
#: Gap between cache reads while a child analyses.
PROBE_INTERVAL_S = 0.01
#: Replay reads per round, in slices spread over the engine's idle gaps
#: (before the first child and after each one): one long burst would
#: sample a single moment of host noise.
REPLAY_S = 1.0

REFUTE_PAIRS = ("join", "dis2", "simple_multiple", "simple_multiple_dep",
                "simple_single2")

#: Loop-free, so set-up stays cheap; it still runs every stage once.
_WARMUP_SOURCE = """proc warm(m) {{
  assume(1 <= m && m <= 10);
  tick({cost} * m);
}}
"""


@dataclass(frozen=True)
class Unit:
    name: str
    job: object  # AnalysisJob
    pair: object  # BenchmarkPair


def units_of(workload: str) -> list[Unit]:
    from repro.bench.suite import SUITE, get_pair, pair_sources
    from repro.engine.jobs import AnalysisJob

    if workload == "table1-d2":
        pairs = [p for p in SUITE
                 if p.name != "nested" and p.group != "Fig. 1 running example"]
        kind, backend = "diff", "scipy"
    elif workload == "cubic-nested":
        pairs, kind, backend = [get_pair("nested")], "diff", "scipy"
    elif workload == "refute-exact":
        pairs = [get_pair(name) for name in REFUTE_PAIRS]
        kind, backend = "refute", "exact-warm"
    else:
        raise ValueError(f"unknown analysis workload {workload!r}")
    units = []
    for pair in pairs:
        old, new = pair_sources(pair.name)
        job = AnalysisJob(
            kind=kind, old_source=old, new_source=new,
            config=pair.config(backend), name=pair.name,
            candidate=float(pair.tight - 1) if kind == "refute" else None)
        units.append(Unit(pair.name, job, pair))
    return units


def warmup_job(workload: str):
    """A small pair in no workload, run with the workload's job kind
    and LP backend so its lazy set-up happens before any fork."""
    from repro.config import AnalysisConfig
    from repro.engine.jobs import AnalysisJob

    refute = workload == "refute-exact"
    return AnalysisJob(
        kind="refute" if refute else "diff",
        old_source=_WARMUP_SOURCE.format(cost=1),
        new_source=_WARMUP_SOURCE.format(cost=2),
        config=AnalysisConfig(degree=1, max_products=1,
                              lp_backend="exact-warm" if refute else "scipy"),
        name="warmup", candidate=9.0 if refute else None)


def check(unit: Unit, result: dict) -> tuple[bool, bool, str]:
    """Verdict oracle: ``(correct, tight, why)`` for one unit's result."""
    from repro.bench.runner import BenchmarkOutcome
    from repro.core.results import AnalysisStatus, DiffCostResult

    pair = unit.pair
    if result.get("status") != "ok":
        return False, False, f"status {result.get('status')}"
    if unit.job.kind == "refute":
        gap = result.get("threshold_str")
        if result.get("outcome") != "refuted" or gap is None:
            return False, False, f"outcome {result.get('outcome')}"
        if Fraction(gap) != pair.tight:
            return False, False, f"gap {gap} != tight {pair.tight}"
        return True, True, ""
    threshold = result.get("threshold")
    outcome = BenchmarkOutcome(
        pair, DiffCostResult(status=AnalysisStatus(result["outcome"]),
                             threshold=threshold), 0.0)
    if threshold is not None and threshold < pair.tight - 1e-4:
        return False, False, f"unsound threshold {threshold} < {pair.tight}"
    if not outcome.matches_paper_shape:
        return False, False, f"threshold {threshold} misses the paper's shape"
    return True, outcome.is_tight, ""


# -- the cold fork ----------------------------------------------------------


def _child(job, traced: bool) -> dict:
    from repro.engine.jobs import run_job

    if not traced:
        return {"result": run_job(job).to_dict()}
    from tracing import Tracer, exact_counts, install_analysis

    tracer = Tracer(job.name)
    install_analysis(tracer)
    index = tracer.begin("engine.job")
    try:
        result = run_job(job)
    finally:
        tracer.end(index)
    counts = dict(tracer.counts)
    counts.update(exact_counts(tracer))
    return {"result": result.to_dict(), "trace": {
        "self": tracer.self_times(), "counts": counts,
        "seconds": dict(tracer.seconds),
        "job_s": tracer.spans[index][2] - tracer.spans[index][1],
        "events": tracer.chrome_events()}}


def run_cold(job, traced: bool, limit: float, probe=None) -> dict:
    """Run ``job`` in a fresh fork; returns the child's payload plus
    ``wall_s`` (fork to result, timed here), ``cpu_s`` (the child's user
    plus system time) and ``maxrss_mb``."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child: analyse, report, leave without cleanup
        os.close(read_fd)
        # Catch everything: the child must never unwind into the
        # parent's code; any failure is reported and the child exits.
        try:
            data = json.dumps(_child(job, traced)).encode()
        except BaseException as error:  # noqa: BLE001
            data = json.dumps(
                {"error": f"{type(error).__name__}: {error}"}).encode()
        with os.fdopen(write_fd, "wb") as out:
            out.write(data)
        os._exit(0)
    os.close(write_fd)
    chunks: list[bytes] = []
    killed = False
    deadline = start + limit
    try:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select(
                [read_fd], [], [], min(PROBE_INTERVAL_S, deadline - now))
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            elif probe is not None:
                probe()
        wall = time.perf_counter() - start
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    payload = ({"error": f"killed after {limit:.0f}s"} if killed
               else json.loads(b"".join(chunks) or b'{"error": "no output"}'))
    payload["wall_s"] = wall
    payload["cpu_s"] = usage.ru_utime + usage.ru_stime
    payload["maxrss_mb"] = usage.ru_maxrss / 1024.0
    return payload


# -- set-up samples -----------------------------------------------------------


def setup_samples(workload: str, launches: int) -> list[dict]:
    """Launch ``launches`` fresh interpreters that import the program and
    analyse the warm-up pair; each sample records the launch's CPU time
    until ready and its wall time from launch to ready."""
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "analysis.py"),
             "--setup", workload],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            line = process.stdout.readline()
            ready = time.perf_counter() - start
            process.stdout.read()
        finally:
            process.wait(timeout=60)
        if process.returncode != 0 or not line:
            raise RuntimeError(f"set-up sample failed ({process.returncode})")
        sample = json.loads(line)
        sample["ready_s"] = ready
        samples.append(sample)
    return samples


def _setup_main(workload: str) -> int:
    start = time.perf_counter()
    import repro  # noqa: F401 — the import being timed
    import repro.bench.suite  # noqa: F401
    from repro.engine.jobs import run_job
    imported = time.perf_counter()
    result = run_job(warmup_job(workload))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "warmup_s": done - imported,
                      "cpu_s": time.process_time(),
                      "status": result.status}), flush=True)
    return 0 if result.status == "ok" else 1


# -- the workload -----------------------------------------------------------


class CacheProbe:
    """Verified disk reads of known verdicts from the engine's result
    cache (no hot tier, so every read is one)."""

    def __init__(self, directory):
        from repro.engine.cache import ResultCache

        self.cache = ResultCache(str(directory), hot_capacity=0)
        self.keys: list[str] = []
        self.hit_s: list[float] = []
        self.put_s: list[float] = []
        self.replay_s: list[float] = []
        self.misses = 0

    def store(self, job, result: dict) -> None:
        from repro.engine.jobs import JobResult

        record = JobResult.from_dict(result)
        start = time.perf_counter()
        self.cache.put(job, record)
        self.put_s.append(time.perf_counter() - start)
        if job.key not in self.keys:
            self.keys.append(job.key)

    def hit(self) -> None:
        key = self.keys[len(self.hit_s) % len(self.keys)]
        start = time.perf_counter()
        found = self.cache.get(key)
        self.hit_s.append(time.perf_counter() - start)
        self.misses += found is None

    def replay(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            key = self.keys[len(self.replay_s) % len(self.keys)]
            start = time.perf_counter()
            found = self.cache.get(key)
            self.replay_s.append(time.perf_counter() - start)
            self.misses += found is None


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.engine.jobs import run_job

    began = time.perf_counter()
    env = environment(workload, seed)
    units = units_of(workload)
    setup = setup_samples(workload, 1 if trace else SETUP_LAUNCHES)
    warm = warmup_job(workload)
    warm_result = run_job(warm)
    if warm_result.status != "ok":
        raise RuntimeError(f"warm-up pair failed: {warm_result.message}")
    workdir = run_dir(workload)
    probe = CacheProbe(workdir / "cache")
    probe.store(warm, warm_result.to_dict())

    rng = random.Random(seed)
    # Untraced runs repeat whole rounds while they fit in ``seconds``;
    # a traced run does one plain and two traced repetitions per pair.
    plan = [False, True, True] if trace else [False]
    replay_slice = REPLAY_S / (len(units) * len(plan) + 1)
    probe.replay(replay_slice)
    samples: dict[str, dict[bool, list[dict]]] = {
        u.name: {False: [], True: []} for u in units}
    attempted = tight = 0
    broken: list[str] = []  # errored or killed: failed, not wrong
    wrong: list[str] = []   # a verdict contradicting the known answer
    rounds = 0
    measuring = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        order = list(units)
        rng.shuffle(order)
        for unit in order:
            for traced in plan:
                left = RUN_DEADLINE_S - (time.perf_counter() - began)
                payload = run_cold(unit.job, traced,
                                   min(UNIT_LIMIT_S, max(left, 1.0)),
                                   probe.hit)
                attempted += 1
                result = payload.get("result")
                if result is None:
                    broken.append(f"{unit.name}: {payload['error']}")
                else:
                    ok, pinned, why = check(unit, result)
                    if ok:
                        tight += pinned
                        probe.store(unit.job, result)
                    else:
                        wrong.append(f"{unit.name}: {why}")
                samples[unit.name][traced].append(payload)
                probe.replay(replay_slice)
        rounds += 1
        now = time.perf_counter()
        round_s = now - round_start
        if (trace or now - measuring + round_s > seconds
                or now - began + round_s > RUN_DEADLINE_S):
            break

    failed = len(broken) + len(wrong)
    peak = max(p["maxrss_mb"] for per in samples.values()
               for reps in per.values() for p in reps)
    cpu = {name: median([p["cpu_s"] for p in per[False]])
           for name, per in samples.items()}
    wall = {name: median([p["wall_s"] for p in per[False]])
            for name, per in samples.items()}
    notes = {"rounds": rounds, "failures": broken + wrong,
             "per_pair_cpu_s": {k: round(v, 4) for k, v in cpu.items()},
             "per_pair_wall_s": {k: round(v, 4) for k, v in wall.items()},
             "samples": {"hit": len(probe.hit_s),
                         "replay": len(probe.replay_s),
                         "setup": len(setup), "per_pair": rounds}}
    if trace:
        metrics, problems = _layer_metrics(samples, setup, probe, notes)
        wrong.extend(problems)
        _write_trace(workload, seed, samples)
    else:
        ms = 1000.0
        metrics = {
            "setup_s": (median([s["cpu_s"] for s in setup]), "s"),
            "cpu_s": (sum(cpu.values()), "s"),
            "hit_p50_ms": (median(probe.hit_s) * ms, "ms"),
            "peak_rss_mb": (peak, "MB"),
            "tight_frac": (tight / attempted, "ratio"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    extra = {
        "wall_s": (sum(wall.values()), "s"),
        "setup_wall_s": (median([s["ready_s"] for s in setup]), "s"),
        "miss_p50_ms": (median(list(wall.values())) * 1000.0, "ms"),
        "replay_p50_ms": (median(probe.replay_s) * 1000.0, "ms"),
        "replay_p99_ms": (percentile(probe.replay_s, 99) * 1000.0, "ms"),
    }
    if probe.misses:
        wrong.append(f"{probe.misses} cache reads missed a stored verdict")
    correct = not wrong
    emit(env, metrics, extra, attempted, failed, correct, notes)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if correct else 1


# -- the traced run ---------------------------------------------------------

#: Per-layer time metric -> the span whose self time it sums.
_SELF_TIMES = {
    "lang.parse_s": "lang.parse", "invariants.self_s": "invariants",
    "constraints.self_s": "constraints", "handelman.self_s": "handelman",
    "lp.solve_s": "lp.solve", "lp.exact_s": "lp.exact",
    "refute.self_s": "refute",
}
_COUNTS = ("invariants.queries", "constraints.implications",
           "handelman.products", "handelman.monomials", "lp.model_vars",
           "lp.model_rows", "lp.exact_pivots", "lp.exact_factorizations",
           "lp.exact_eta_pivots", "refute.witnesses")


def _layer_metrics(samples, setup, probe, notes):
    """Per-layer metrics of a traced run, plus any count that differed
    between two traced repetitions of one pair."""
    from tracing import STAGES

    problems: list[str] = []
    times = dict.fromkeys(_SELF_TIMES, 0.0)
    counts = dict.fromkeys(_COUNTS, 0)
    lp_calls = lp_seconds = key_s = key_calls = job_s = 0.0
    traced_wall = traced_cpu = plain_cpu = accounted = 0.0
    per_pair_counts = {}
    for name, per in samples.items():
        reps = [p["trace"] for p in per[True] if "trace" in p]
        if not reps or not per[False]:
            continue
        first = reps[0]["counts"]
        for other in reps[1:]:
            if other["counts"] != first:
                problems.append(f"{name}: work counts differ between "
                                f"repetitions: {first} vs {other['counts']}")
        per_pair_counts[name] = first
        for metric, span in _SELF_TIMES.items():
            times[metric] += median([r["self"].get(span, 0.0) for r in reps])
        for metric in _COUNTS:
            counts[metric] += first.get(metric, 0)
        lp_calls += first.get("invariants.lp_float", 0) + first.get(
            "invariants.lp_exact", 0)
        lp_seconds += median([r["seconds"].get("invariants.lp", 0.0)
                              for r in reps])
        key_s += sum(r["seconds"].get("engine.key", 0.0) for r in reps)
        key_calls += sum(r["counts"].get("engine.key", 0) for r in reps)
        job_s += median([r["job_s"] for r in reps])
        traced_wall += median([p["wall_s"] for p in per[True]])
        traced_cpu += median([p["cpu_s"] for p in per[True]])
        plain_cpu += median([p["cpu_s"] for p in per[False]])
        accounted += median([sum(r["self"].get(s, 0.0) for s in STAGES)
                             for r in reps])
    notes["work_counts"] = per_pair_counts
    stats = probe.cache.stats()
    lookups = max(stats["hits"] + stats["misses"], 1)
    queries = counts["invariants.queries"]
    metrics = {
        "setup.import_s": median([s["import_s"] for s in setup]),
        "setup.warmup_s": median([s["warmup_s"] for s in setup]),
        **times,
        **{m: float(v) for m, v in counts.items()},
        "invariants.lp_calls": lp_calls,
        "invariants.lp_s": lp_seconds,
        "invariants.lp_per_query": lp_calls / queries if queries else 0.0,
        "engine.key_ms": 1000.0 * key_s / key_calls if key_calls else 0.0,
        "engine.bridge_wait_ms": 0.0,
        "engine.job_s": job_s,
        "engine.dispatch_ms": 0.0,
        "cache.get_ms": 1000.0 * median(probe.hit_s + probe.replay_s),
        "cache.put_ms": 1000.0 * median(probe.put_s),
        "cache.hot_hit_frac": stats["hot_hits"] / lookups,
        "cache.disk_read_frac": (stats["hits"] - stats["hot_hits"]) / lookups,
        "serve.server_ms": 0.0,
        "serve.coalesced": 0.0,
        "serve.shed": 0.0,
        "trace.overhead_frac": (traced_cpu / plain_cpu - 1.0
                                if plain_cpu else 0.0),
        "trace.accounted_frac": (accounted / traced_wall
                                 if traced_wall else 0.0),
    }
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}, \
        problems


def _write_trace(workload: str, seed: int, samples) -> None:
    path = WORK / f"trace-{workload}-s{seed}.jsonl"
    with open(path, "w") as out:
        for per in samples.values():
            for rep, payload in enumerate(per[True]):
                for event in payload.get("trace", {}).get("events", ()):
                    event["args"]["rep"] = rep
                    out.write(json.dumps(event, separators=(",", ":")) + "\n")
    print(f"perfbench: spans written to {path}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--setup":
        sys.exit("usage: analysis.py --setup WORKLOAD")
    sys.exit(_setup_main(sys.argv[2]))
