"""Timing wrappers for the traced run.

The wrappers live here, outside the program: :func:`install_analysis`
patches the public entry points of ``repro.lang``, ``repro.invariants``,
``repro.core``, ``repro.handelman`` and ``repro.lp`` (inside one cold
fork per unit, so a :class:`Tracer` sees one single-threaded analysis),
and :func:`install_serve` times the engine, cache and serve boundaries
of a server process.  Spans stay in memory; ``run.py`` writes them out
at the end as Chrome trace-event JSONL, the format ``repro.obs.trace``
emits, so Perfetto opens both.

Very frequent calls (``Polyhedron.entails``/``is_empty``, the tiny
invariant LPs, ``AnalysisJob.key``) are counted and timed in aggregate
instead of spanned one by one.
"""

from __future__ import annotations

import collections
import functools
import os
import time

#: Spans whose self time counts as "accounted" analysis work.
STAGES = ("lang.parse", "invariants", "constraints", "handelman",
          "lp.solve", "lp.exact", "refute")


class Tracer:
    """Spans ``[name, start, end, parent]`` of one unit plus counters."""

    def __init__(self, unit: str):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.seconds: collections.Counter = collections.Counter()
        #: Every ``IncrementalLP`` built while traced (their pivot stats).
        self.exact_lps: list = []
        self.unit = unit
        self._open: list[int] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[index][0] == name for index in self._open)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    # -- patching ------------------------------------------------------------

    def span_wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``after(result)``
        may add counts from the return value."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    def count_wrap(self, owner, attr: str, counter: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time direct children cover."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: collections.Counter = collections.Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def chrome_events(self) -> list[dict]:
        pid = os.getpid()
        return [
            {"name": name, "cat": "perfbench", "ph": "X",
             "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
             "pid": pid, "tid": pid,
             "args": {"unit": self.unit, "parent": parent}}
            for name, start, end, parent in self.spans
        ]


def _timed_property(tracer: Tracer, prop: property, counter: str) -> property:
    fget = prop.fget

    def timed(self):
        start = time.perf_counter()
        try:
            return fget(self)
        finally:
            tracer.seconds[counter] += time.perf_counter() - start
            tracer.counts[counter] += 1

    return property(timed)


def install_analysis(tracer: Tracer) -> None:
    """Wrap the analysis pipeline's layer boundaries (see module doc)."""
    import repro.core
    import repro.core.diffcost as diffcost
    import repro.core.refutation as refutation
    import repro.lang
    from repro.engine.jobs import AnalysisJob
    from repro.invariants.polyhedron import Polyhedron
    from repro.lp.dual import IncrementalLP
    from repro.lp.revised import RevisedSimplexBackend
    from repro.lp.scipy_backend import ScipyBackend

    counts = tracer.counts

    def encoded(stats) -> None:
        counts["handelman.products"] += stats.products
        counts["handelman.monomials"] += stats.monomials

    def implications(constraints) -> None:
        counts["constraints.implications"] += len(constraints)

    def refuted(result) -> None:
        counts["refute.witnesses"] += int(result.lp_stats.get("solves", 0))

    tracer.span_wrap(repro.lang, "load_program", "lang.parse")
    tracer.span_wrap(diffcost.DiffCostAnalyzer, "invariants", "invariants")
    tracer.span_wrap(diffcost.DiffCostAnalyzer, "build_constraints",
                     "constraints", after=lambda r: implications(r[2]))
    tracer.span_wrap(refutation, "collect_certificate_constraints",
                     "constraints", after=implications)
    for module in (diffcost, refutation):
        tracer.span_wrap(module, "encode_implication", "handelman",
                         after=encoded)
    tracer.span_wrap(repro.core, "refute_threshold", "refute", after=refuted)
    tracer.count_wrap(Polyhedron, "entails", "invariants.queries")
    tracer.count_wrap(Polyhedron, "is_empty", "invariants.queries")
    AnalysisJob.key = _timed_property(tracer, AnalysisJob.__dict__["key"],
                                      "engine.key")

    def lp_wrap(owner, kind: str, outside: str) -> None:
        """LP calls inside invariant generation are counted (by ``kind``)
        and timed in aggregate; the others become ``outside`` spans."""
        original = owner.solve

        @functools.wraps(original)
        def solve(self, model):
            if tracer.inside("invariants"):
                start = time.perf_counter()
                try:
                    return original(self, model)
                finally:
                    tracer.seconds["invariants.lp"] += (
                        time.perf_counter() - start)
                    counts[f"invariants.lp_{kind}"] += 1
            counts["lp.model_vars"] += model.num_variables
            counts["lp.model_rows"] += model.num_constraints
            index = tracer.begin(outside)
            try:
                return original(self, model)
            finally:
                tracer.end(index)

        owner.solve = solve

    lp_wrap(ScipyBackend, "float", "lp.solve")
    lp_wrap(RevisedSimplexBackend, "exact", "lp.exact")

    original_init = IncrementalLP.__init__

    @functools.wraps(original_init)
    def init(self, model, *args, **kwargs):
        tracer.exact_lps.append(self)
        counts["lp.model_vars"] += model.num_variables
        counts["lp.model_rows"] += model.num_constraints
        index = tracer.begin("lp.exact")
        try:
            original_init(self, model, *args, **kwargs)
        finally:
            tracer.end(index)

    IncrementalLP.__init__ = init
    for attr in ("solve", "update_upper"):
        tracer.span_wrap(IncrementalLP, attr, "lp.exact")


def exact_counts(tracer: Tracer) -> dict[str, int]:
    """Pivot/factorization totals of every ``IncrementalLP`` the unit built."""
    totals = collections.Counter()
    for lp in tracer.exact_lps:
        totals["lp.exact_pivots"] += int(lp.stats.get("pivots", 0))
        totals["lp.exact_factorizations"] += int(
            lp.stats.get("factorizations", 0))
        totals["lp.exact_eta_pivots"] += int(lp.stats.get("eta_pivots", 0))
    return dict(totals)


def install_serve(events: dict[str, list]) -> None:
    """Wrap the server's engine, cache and HTTP boundaries.

    ``events`` collects ``(start, seconds[, key])`` tuples under
    ``key``, ``bridge_wait``, ``cache_get``, ``cache_put`` and ``http``.
    """
    import repro.serve.server as server_module
    from repro.engine.cache import ResultCache
    from repro.engine.executor import ParallelExecutor
    from repro.engine.jobs import AnalysisJob

    arrivals: dict[str, collections.deque] = collections.defaultdict(
        collections.deque)

    key_prop = AnalysisJob.__dict__["key"]

    def key(self):
        start = time.perf_counter()
        try:
            return key_prop.fget(self)
        finally:
            events["key"].append((start, time.perf_counter() - start))

    AnalysisJob.key = property(key)

    acquire = server_module.AnalysisServer._acquire

    def _acquire(self, job):
        arrived = time.perf_counter()
        entry, created = acquire(self, job)
        if created:
            arrivals[job.key].append(arrived)
        return entry, created

    server_module.AnalysisServer._acquire = _acquire

    submit_job = ParallelExecutor.submit_job

    def _submit_job(self, job, on_done, priority=()):
        queue = arrivals.get(job.key)
        if queue:
            arrived = queue.popleft()
            events["bridge_wait"].append(
                (arrived, time.perf_counter() - arrived, job.key))
        return submit_job(self, job, on_done, priority)

    ParallelExecutor.submit_job = _submit_job

    for attr, name in (("get", "cache_get"), ("put", "cache_put")):
        original = getattr(ResultCache, attr)

        def timed(self, *args, _original=original, _name=name, **kwargs):
            start = time.perf_counter()
            try:
                return _original(self, *args, **kwargs)
            finally:
                events[_name].append((start, time.perf_counter() - start))

        setattr(ResultCache, attr, timed)

    handle = server_module.handle_http_client

    async def handle_http_client(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await handle(*args, **kwargs)
        finally:
            events["http"].append((start, time.perf_counter() - start))

    server_module.handle_http_client = handle_http_client
