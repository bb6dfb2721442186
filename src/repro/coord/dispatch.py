"""Work-stealing fan-out of one batch across worker nodes.

The dispatcher joins the two halves PR 5 shipped: the deterministic
:func:`~repro.engine.batch.pair_shard_index` partition and the
per-node :class:`~repro.serve.AnalysisServer` request path.  A batch
over ``P`` pairs and ``N`` nodes becomes ``N`` shards (the same
hash partition ``batch --shard k/N`` uses), each *owned* by one node —
but ownership is a scheduling preference, not an assignment:

- every node drains its own shard first (cache locality: a node's
  shard is stable across batches, so re-runs replay its cache);
- an idle node **steals pending pairs** from the shard with the most
  work left (the straggler), and when nothing is pending anywhere it
  steals a *duplicate* execution of the longest-in-flight pair — the
  hedge against a slow node.  Duplicates are bounded (two owners max)
  and coalesce first-result-wins; jobs are content-addressed, so both
  executions produce identical canonical results and the nodes' own
  cache/in-flight dedupe absorbs most of the extra cost;
- a pair lost to a dead node (connection refused/reset, exhausted
  retries, heartbeat death) is **requeued** and reassigned to whichever
  healthy node claims it next.  A node whose request failed claims no
  pending pair until it answers again (a heartbeat or a request) while
  another node of the batch does, so a dead node is not handed its
  shard's other pairs one refused request at a time before the monitor
  rules it dead;
- when eligible capacity drops below
  :attr:`~repro.config.CoordConfig.min_nodes`, the batch degrades
  gracefully: dispatch stops and the completed pairs come back as a
  partial, mergeable report instead of the run spinning forever.

The results are reassembled into per-shard report dicts
(:func:`shard_report`) and folded through the CI-tested
:func:`repro.serve.shard.merge_reports` invariant — the merged
report's canonical bytes are identical to a fault-free local
``batch --jobs 1`` run, which is what the cluster-chaos-smoke CI job
gates under node kills and ``net.*`` fault plans.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.config import AnalysisConfig, CoordConfig
from repro.engine.batch import ProgramPair, discover_pairs, pair_shard_index
from repro.errors import AnalysisError
from repro.obs import get_logger, get_registry
from repro.serve.shard import merge_reports

from repro.coord.client import ClientError, NodeUnreachable, ResilientClient
from repro.coord.registry import NodeRegistry

_LOG = get_logger("coord.dispatch")

#: Claim-loop verdicts (distinct from "no task right now" = ``None``).
_FINISHED = object()

#: Most nodes that may hold one pair in flight at once (the original
#: owner plus one stealing hedge).
MAX_DUPLICATES = 2


@dataclass
class PairTask:
    """One pair's dispatch state."""

    name: str
    shard: int
    payload: dict[str, Any]
    state: str = "pending"  # pending | inflight | done | failed
    owners: set[str] = field(default_factory=set)
    started: float | None = None
    executions: int = 0
    result: dict[str, Any] | None = None
    error: str | None = None


class ClusterDispatch:
    """One batch's fan-out; single-use.  See the module docstring."""

    def __init__(self, pairs: list[ProgramPair], config: AnalysisConfig,
                 registry: NodeRegistry, client: ResilientClient,
                 coord: CoordConfig, shards: int | None = None):
        owners = [node.url for node in registry.eligible()]
        if len(owners) < coord.min_nodes:
            raise AnalysisError(
                f"cluster below capacity floor: {len(owners)} eligible "
                f"node(s), need at least {coord.min_nodes}"
            )
        self.registry = registry
        self.client = client
        self.coord = coord
        self.config = config
        #: The nodes this batch runs on, one claim loop per node and
        #: worker slot (see :meth:`run`); a node registered later joins
        #: the next batch.
        self.nodes = tuple(node.url for node in registry.nodes())
        self.shards = shards or len(owners)
        if self.shards < 1:
            raise AnalysisError("shards must be at least 1")
        #: Shard index -> owning node URL (round-robin over the
        #: URL-sorted eligible nodes, so every coordinator computes the
        #: same ownership from the same registry).
        self.owner = {index: owners[index % len(owners)]
                      for index in range(self.shards)}
        config_overrides = asdict(config)
        self.tasks = [
            PairTask(
                name=pair.name,
                shard=pair_shard_index(pair, config, self.shards),
                payload={
                    "kind": "diff",
                    "old_source": pair.sources()[0],
                    "new_source": pair.sources()[1],
                    "config": config_overrides,
                    "name": pair.name,
                },
            )
            for pair in pairs
        ]
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._aborted = False
        #: Node URL -> when its last analyze request failed.
        self._failed_at: dict[str, float] = {}
        self.stats = {
            "steals": 0,
            "reassigned": 0,
            "duplicates": 0,
            "coalesced": 0,
            "requeues": 0,
            "executions": 0,
        }

    # -- claiming ----------------------------------------------------------

    def _pending(self) -> list[PairTask]:
        return [task for task in self.tasks if task.state == "pending"]

    def _unresolved(self) -> int:
        return sum(1 for task in self.tasks
                   if task.state not in ("done", "failed"))

    def _count(self, counter: str, metric: str, help_text: str) -> None:
        self.stats[counter] += 1
        get_registry().counter(metric, help_text).inc()

    def _answering(self) -> set[str]:
        """This batch's eligible nodes, less those that have not
        answered (a heartbeat or a request) since their last failed
        analyze request."""
        # Lock held by callers.
        return {node.url for node in self.registry.eligible()
                if node.url in self.nodes
                and node.last_ok > self._failed_at.get(node.url, -math.inf)}

    def _claim(self, node_url: str):
        """The next task for ``node_url``: own shard first, then steal
        pending from the biggest straggler shard, then, when nothing is
        pending, a bounded duplicate of the longest-in-flight pair.  A
        node that has not answered since its last failed request leaves
        pending pairs to the nodes that have, if any."""
        with self._lock:
            if self._aborted or not self._unresolved():
                return _FINISHED
            pending = self._pending()
            if pending and node_url in self._failed_at:
                answering = self._answering()
                if answering and node_url not in answering:
                    return None
            choice = None
            own = [task for task in pending
                   if self.owner[task.shard] == node_url]
            if own:
                choice = own[0]
            elif pending:
                # Steal from the shard with the most pending work.
                backlog: dict[int, int] = {}
                for task in pending:
                    backlog[task.shard] = backlog.get(task.shard, 0) + 1
                straggler = max(sorted(backlog), key=backlog.get)
                choice = next(task for task in pending
                              if task.shard == straggler)
                owner_state = {n.url: n.state
                               for n in self.registry.nodes()}.get(
                                   self.owner[choice.shard])
                if owner_state in ("live", "suspect"):
                    self._count("steals", "repro_coord_steals_total",
                                "Pairs stolen from another node's shard.")
                else:
                    self._count("reassigned",
                                "repro_coord_reassigned_total",
                                "Pairs reassigned off dead or "
                                "quarantined nodes.")
            else:
                # Nothing pending: hedge against a straggling execution
                # by duplicating the longest-in-flight pair elsewhere.
                now = time.monotonic()
                inflight = [
                    task for task in self.tasks
                    if task.state == "inflight"
                    and node_url not in task.owners
                    and len(task.owners) < MAX_DUPLICATES
                    and task.started is not None
                    and now - task.started >= self.coord.steal_after
                ]
                if inflight:
                    choice = min(inflight, key=lambda task: task.started)
                    self._count("duplicates",
                                "repro_coord_duplicates_total",
                                "Straggler pairs duplicated onto a "
                                "second node.")
            if choice is None:
                return None
            if choice.state == "pending":
                choice.state = "inflight"
                choice.started = time.monotonic()
            choice.owners.add(node_url)
            choice.executions += 1
            self.stats["executions"] += 1
            return choice

    # -- completion / failure ----------------------------------------------

    def _complete(self, node_url: str, task: PairTask,
                  result: dict[str, Any]) -> None:
        with self._lock:
            task.owners.discard(node_url)
            if task.result is None:
                task.result = result
                task.state = "done"
            else:
                # A stolen duplicate finished second; identical by
                # content addressing, so the first answer stands.
                self.stats["coalesced"] += 1
            self._check_finished()

    def _fail(self, node_url: str, task: PairTask, error: str,
              permanent: bool) -> None:
        with self._lock:
            task.owners.discard(node_url)
            if task.state == "done":
                pass  # a duplicate already answered
            elif permanent:
                task.state = "failed"
                task.error = error
            else:
                self._failed_at[node_url] = time.monotonic()
                if not task.owners:
                    # Last in-flight execution lost its node: requeue
                    # for reassignment onto whichever healthy node
                    # claims next.
                    task.state = "pending"
                    task.started = None
                    self.stats["requeues"] += 1
                    _LOG.warning("requeueing pair %s after %s", task.name,
                                 error)
            self._check_finished()

    def _check_finished(self) -> None:
        # Lock held by callers.
        if self._aborted or not self._unresolved():
            self._finished.set()

    def _abort(self, why: str) -> None:
        with self._lock:
            if not self._aborted:
                self._aborted = True
                _LOG.error("aborting batch dispatch: %s", why)
            self._finished.set()

    # -- node worker threads -----------------------------------------------

    def _node_state(self, node_url: str) -> str | None:
        for node in self.registry.nodes():
            if node.url == node_url:
                return node.state
        return None

    def _node_loop(self, node_url: str) -> None:
        while not self._finished.is_set():
            state = self._node_state(node_url)
            if state not in ("live", "suspect"):
                if state is None:
                    return  # evicted: this thread has no node
                self._finished.wait(0.05)
                continue
            task = self._claim(node_url)
            if task is _FINISHED:
                return
            if task is None:
                time.sleep(0.02)
                continue
            self._execute(node_url, task)

    def _execute(self, node_url: str, task: PairTask) -> None:
        try:
            _status, reply = self.client.post(
                f"{node_url}/analyze", task.payload,
                deadline=self.coord.request_deadline,
                retries=self.coord.client_retries,
            )
            result = reply.get("result") if isinstance(reply, dict) else None
            if not isinstance(result, dict) or "status" not in result:
                raise NodeUnreachable(
                    f"{node_url} returned a malformed analyze reply"
                )
        except NodeUnreachable as error:
            state = self.registry.mark_request_failed(node_url)
            self._fail(node_url, task, str(error), permanent=False)
            if state == "quarantined":
                _LOG.warning("node %s quarantined after repeated request "
                             "failures", node_url)
            return
        except ClientError as error:
            # Deterministic rejection (HTTP 4xx): retrying elsewhere
            # would fail identically — fail the pair loudly instead of
            # melting every node's retry budget.
            self.registry.mark_request_ok(node_url)
            self._fail(node_url, task, str(error), permanent=True)
            return
        self.registry.mark_request_ok(node_url)
        self._complete(node_url, task, result)

    # -- the run -----------------------------------------------------------

    def run(self) -> None:
        """Dispatch until every pair resolves, or the cluster drops
        below the capacity floor (graceful degradation to partial)."""
        get_registry().counter(
            "repro_coord_pairs_dispatched_total",
            "Pairs handed to the cluster dispatcher.",
        ).inc(len(self.tasks))
        if not self.tasks:
            return
        threads = [
            threading.Thread(
                target=self._node_loop, args=(url,), daemon=True,
                name=f"coord-node-{url.split('://', 1)[-1]}-{worker}",
            )
            for url in self.nodes
            for worker in range(self.coord.node_concurrency)
        ]
        for thread in threads:
            thread.start()
        try:
            while not self._finished.is_set():
                if len(self.registry.eligible()) < self.coord.min_nodes:
                    self._abort(
                        f"eligible nodes below the capacity floor "
                        f"({self.coord.min_nodes})"
                    )
                    break
                self._finished.wait(0.05)
        finally:
            self._finished.set()
            for thread in threads:
                thread.join(timeout=self.coord.request_deadline + 10)

    # -- report assembly ---------------------------------------------------

    def reports(self, directory: str, pairs_total: int,
                seconds: float) -> list[dict[str, Any]]:
        by_shard: dict[int, list[PairTask]] = {
            index: [] for index in range(self.shards)
        }
        for task in self.tasks:
            by_shard[task.shard].append(task)
        return [
            shard_report(directory, index, self.shards, by_shard[index],
                         pairs_total, seconds / self.shards)
            for index in range(self.shards)
        ]


def shard_report(directory: str, index: int, count: int,
                 tasks: list[PairTask], pairs_total: int,
                 seconds: float) -> dict[str, Any]:
    """One shard's batch-report dict, shaped exactly like
    ``batch --shard index/count --format json`` over the same pairs.

    The stats block counts the *logical* batch — one execution per
    pair, statuses read off the final results — so stolen duplicates
    and client retries never leak into canonical bytes (they live in
    the cluster stats instead).  Unresolved pairs (node death below the
    floor) are simply absent from ``results`` with the shard marked
    ``partial``, the same shape an interrupted ``batch --shard`` run
    flushes.
    """
    ordered = sorted(tasks, key=lambda task: task.name)
    results = [task.result for task in ordered if task.result is not None]
    stats = {"submitted": len(results), "completed": 0, "errors": 0,
             "timeouts": 0, "cancelled": 0, "cache_hits": 0, "retries": 0,
             "seconds": round(seconds, 3)}
    for result in results:
        status = result.get("status")
        if status == "error":
            stats["errors"] += 1
        elif status == "timeout":
            stats["timeouts"] += 1
        elif status == "cancelled":
            stats["cancelled"] += 1
        else:
            stats["completed"] += 1
    return {
        "directory": directory,
        "seconds": round(seconds, 3),
        "shard": f"{index}/{count}",
        "partial": len(results) < len(ordered),
        "pairs_total": pairs_total,
        "pair_names": [task.name for task in ordered],
        "stats": stats,
        "results": results,
    }


def run_cluster_batch(directory: str, config: AnalysisConfig,
                      registry: NodeRegistry, client: ResilientClient,
                      coord: CoordConfig, shards: int | None = None,
                      ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Fan one whole-directory batch across the registered nodes.

    Returns ``(merged_report, cluster_stats)``: the merged report is
    byte-identical (canonically) to a fault-free local ``--jobs 1`` run
    when every pair resolved, and a partial mergeable report when the
    cluster degraded below the capacity floor mid-run.
    """
    pairs = discover_pairs(directory)
    dispatch = ClusterDispatch(pairs, config, registry, client, coord,
                               shards=shards)
    started = time.perf_counter()
    _LOG.info("cluster batch over %s: %d pair(s), %d shard(s), %d node(s)",
              directory, len(pairs), dispatch.shards,
              len(registry.eligible()))
    dispatch.run()
    seconds = time.perf_counter() - started
    get_registry().counter(
        "repro_coord_batches_total", "Cluster batches run to completion.",
    ).inc()
    merged = merge_reports(
        dispatch.reports(str(directory), len(pairs), seconds)
    )
    failed = sorted(task.name for task in dispatch.tasks
                    if task.state == "failed")
    unresolved = sorted(task.name for task in dispatch.tasks
                        if task.state in ("pending", "inflight"))
    cluster = {
        "pairs": len(pairs),
        "shards": dispatch.shards,
        "owners": dict(sorted(dispatch.owner.items())),
        "aborted": dispatch._aborted,
        "failed_pairs": failed,
        "unresolved_pairs": unresolved,
        "seconds": round(seconds, 3),
        **dispatch.stats,
    }
    _LOG.info("cluster batch done in %.2fs: %d/%d pair(s), %d steal(s), "
              "%d reassignment(s), %d requeue(s), %d duplicate(s)", seconds,
              len(pairs) - len(failed) - len(unresolved), len(pairs),
              dispatch.stats["steals"], dispatch.stats["reassigned"],
              dispatch.stats["requeues"], dispatch.stats["duplicates"])
    return merged, cluster
