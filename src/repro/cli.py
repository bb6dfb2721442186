"""Command-line interface.

Subcommands::

    repro-diffcost diff OLD.imp NEW.imp [-d 2] [-K 2]
                        [--backend scipy|exact|exact-warm]
    repro-diffcost bound OLD.imp NEW.imp --bound "lenA * lenB"
    repro-diffcost refute OLD.imp NEW.imp --candidate 9999
    repro-diffcost single PROGRAM.imp
    repro-diffcost suite [--names a,b,c] [--jobs N]
    repro-diffcost batch DIR [--jobs N] [--portfolio] [--refute]
                             [--cache-dir D] [--shard K/N]
                             [--trace T.jsonl] [--log-level L]
                             [--max-retries N] [--hang-timeout S]
                             [--faults PLAN.json]
    repro-diffcost merge-shards SHARD.json... [-o merged.json]
                                [--cache-dir D --source-caches A,B]
    repro-diffcost serve [--port P] [--workers N] [--deadline S]
    repro-diffcost coord [--node URL ...] [--min-nodes N] [--batch DIR]
                         [--heartbeat-interval S] [--steal-after S]
    repro-diffcost cache {stats|compact|evict} [--cache-dir D]
    repro-diffcost perf [--names a,b,c] [--backends exact,exact-warm]
                        [--output BENCH_lp.json] [--baseline SNAPSHOT]
    repro-diffcost show PROGRAM.imp [--dot]
    repro-diffcost lint [PATH...] [--format text|json] [--baseline B.json]
                        [--write-baseline B.json] [--show-suppressed]

``batch`` and ``suite`` flush partial, clearly-marked reports on
SIGTERM/Ctrl-C (exit code 130) instead of dying with nothing — a killed
shard still leaves a mergeable slice.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys

from repro.config import AnalysisConfig, EngineConfig, ObsConfig, ServeConfig
from repro.core import (
    analyze_diffcost,
    analyze_single_program,
    prove_symbolic_bound,
    refute_threshold,
)
from repro.errors import AnalysisError, ReproError
from repro.lang import load_program
from repro.lp.backend import available_backends
from repro.poly import parse_polynomial
from repro.ts.pretty import render_dot, render_text


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-d", "--degree", type=int, default=2,
                        help="maximal template degree (default 2)")
    parser.add_argument("-K", "--max-products", type=int, default=2,
                        help="Handelman product bound (default 2)")
    parser.add_argument("--backend", choices=list(available_backends()),
                        default="scipy", help="LP backend")


def _config(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        degree=args.degree,
        max_products=args.max_products,
        lp_backend=args.backend,
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="append Chrome trace_event JSONL spans here "
                             "(load in Perfetto); workers inherit via "
                             "the REPRO_TRACE environment variable")
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="log level of the repro logger tree (debug, "
                             "info, warning, ...); default: the "
                             "REPRO_LOG environment variable, else silent")


def _activate_obs(args: argparse.Namespace) -> None:
    ObsConfig(trace_file=args.trace, log_level=args.log_level).activate()


def _load(path: str, name: str | None = None):
    with open(path) as handle:
        return load_program(handle.read(), name=name)


#: Exit code of an interrupted-but-flushed run (SIGTERM / Ctrl-C), the
#: conventional 128 + SIGINT.
EXIT_INTERRUPTED = 130


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Turn SIGTERM into ``KeyboardInterrupt`` for the enclosed run.

    ``batch`` and ``suite`` flush partial reports on interrupt; without
    this, a supervisor's polite SIGTERM (the normal way a sharded
    worker gets evicted) would kill the process with nothing flushed
    while Ctrl-C flushed everything.
    """
    def _raise(signum, frame):
        raise KeyboardInterrupt()

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover — non-main thread host app
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _command_diff(args: argparse.Namespace) -> int:
    old = _load(args.old, "old")
    new = _load(args.new, "new")
    result = analyze_diffcost(old, new, _config(args))
    print(result)
    if result.is_threshold and args.certificates:
        print(result.potential_new)
        print(result.anti_potential_old)
    return 0 if result.is_threshold else 1


def _command_bound(args: argparse.Namespace) -> int:
    old = _load(args.old, "old")
    new = _load(args.new, "new")
    bound = parse_polynomial(args.bound)
    result = prove_symbolic_bound(old, new, bound, _config(args))
    if result.is_proved:
        print(f"proved: cost_new - cost_old <= {bound}")
        return 0
    print(f"could not prove the bound {bound}: {result.message}")
    return 1


def _command_refute(args: argparse.Namespace) -> int:
    old = _load(args.old, "old")
    new = _load(args.new, "new")
    result = refute_threshold(old, new, args.candidate, _config(args))
    print(result)
    return 0 if result.is_refuted else 1


def _command_single(args: argparse.Namespace) -> int:
    program = _load(args.program)
    result = analyze_single_program(program, _config(args))
    print(result)
    if result.is_bounded and args.certificates:
        print(result.upper)
        print(result.lower)
    return 0 if result.is_bounded else 1


def _command_suite(args: argparse.Namespace) -> int:
    from repro.bench import (
        SuiteInterrupted,
        format_csv,
        format_markdown,
        format_table,
        run_suite,
    )

    _activate_obs(args)
    _activate_faults(args)
    names = args.names.split(",") if args.names else None
    formatters = {
        "text": format_table,
        "markdown": format_markdown,
        "csv": format_csv,
    }
    try:
        with _sigterm_as_interrupt():
            outcomes = run_suite(
                names=names,
                lp_backend=args.backend,
                jobs=args.jobs,
                timeout=args.timeout,
                cache_dir=None if args.no_cache else args.cache_dir,
                max_retries=args.max_retries,
                hang_timeout=args.hang_timeout,
            )
    except SuiteInterrupted as interrupt:
        # Flush what finished instead of dying with nothing: the rows
        # are real, completed answers — only the run is incomplete.
        print(formatters[args.format](interrupt.outcomes))
        print(
            f"PARTIAL: suite interrupted after "
            f"{len(interrupt.outcomes)}/{interrupt.total} rows",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    print(formatters[args.format](outcomes))
    # Mirror batch's `report.ok` gate: a row whose job never executed
    # (worker error/timeout) is an infrastructure failure and must fail
    # the process — a suite that always exits 0 is a CI gate that
    # cannot fail.  A sound ✗ row still exits 0: it is a completed
    # answer, like the paper's own failed rows.
    return 0 if all(o.job_status == "ok" for o in outcomes) else 1


def _command_perf(args: argparse.Namespace) -> int:
    import json

    from repro.bench.perf import (
        DEFAULT_PERF_BACKENDS,
        compare_reports,
        format_perf_table,
        run_lp_perf,
        write_bench_json,
    )
    from repro.bench.suite import SUITE

    if args.names == "all":
        names = [pair.name for pair in SUITE]
    elif args.names:
        names = args.names.split(",")
    else:
        names = None
    backends = (args.backends.split(",") if args.backends
                else list(DEFAULT_PERF_BACKENDS))
    report = run_lp_perf(
        names=names,
        backends=backends,
        repeats=args.repeats,
        float_tolerance=args.float_tolerance,
        refutation=not args.no_refutation,
    )
    write_bench_json(report, args.output)
    print(format_perf_table(report))
    print(f"wrote {args.output}")
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = compare_reports(baseline, report,
                                   max_ratio=args.max_regression)
        for failure in failures:
            print(f"baseline: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"baseline ok (vs {args.baseline})")
    # Any disagreement between backends on the same LP is a solver bug
    # and must fail the process (this is CI's perf-smoke gate).
    return 0 if report["summary"]["disagreements"] == 0 else 1


def _command_batch(args: argparse.Namespace) -> int:
    from repro.engine import batch_to_json, format_batch_table, run_batch
    from repro.serve.shard import parse_shard_spec

    _activate_obs(args)
    _activate_faults(args)
    engine = EngineConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
        max_retries=args.max_retries,
        hang_timeout=args.hang_timeout,
        # An explicit --portfolio-mode or --refute implies --portfolio:
        # silently running the single-config path would misread the
        # user's intent (the tightness stage is a portfolio feature).
        portfolio=(args.portfolio or args.portfolio_mode is not None
                   or args.refute),
        portfolio_mode=args.portfolio_mode or "first",
        refute=args.refute,
        shard=parse_shard_spec(args.shard) if args.shard else None,
    )
    with _sigterm_as_interrupt():
        # run_batch absorbs the interrupt itself and returns a report
        # marked partial, so even a mid-batch SIGTERM flushes every
        # completed pair as a mergeable slice.
        report = run_batch(args.directory, config=_config(args),
                           engine=engine)
    if args.format == "json":
        print(batch_to_json(report))
    else:
        print(format_batch_table(report))
    if report.partial:
        return EXIT_INTERRUPTED
    return 0 if report.ok else 1


def _command_merge_shards(args: argparse.Namespace) -> int:
    import json

    from repro.serve.shard import (
        canonical_json,
        merge_caches,
        merge_reports,
        report_ok,
    )

    reports = []
    for path in args.reports:
        with open(path) as handle:
            reports.append(json.load(handle))
    merged = merge_reports(reports)
    if args.cache_dir and args.source_caches:
        try:
            copied = merge_caches(args.cache_dir,
                                  args.source_caches.split(","))
        except AnalysisError as error:  # e.g. a mistyped source cache
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"merged {copied} cache entries into {args.cache_dir}",
              file=sys.stderr)
    rendered = (canonical_json(merged) if args.canonical
                else json.dumps(merged, indent=2, sort_keys=True))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(rendered)
    if not report_ok(merged):
        return 1
    return 2 if merged["partial"] else 0


def _command_coord(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.config import CoordConfig
    from repro.coord import (
        HeartbeatMonitor,
        NodeRegistry,
        ResilientClient,
        coordinate_forever,
        run_cluster_batch,
    )
    from repro.serve.shard import canonical_json, report_ok

    _activate_obs(args)
    _activate_faults(args)
    coord = CoordConfig(
        host=args.host,
        port=args.port,
        nodes=tuple(args.node or ()),
        node_concurrency=args.node_concurrency,
        min_nodes=args.min_nodes,
        heartbeat_interval=args.heartbeat_interval,
        dead_after=args.dead_after,
        request_deadline=args.deadline,
        client_retries=args.client_retries,
        client_seed=args.client_seed,
        steal_after=args.steal_after,
        drain_timeout=args.drain_timeout,
    )
    if args.batch:
        # One-shot mode: fan this directory across the nodes, print the
        # merged report, exit — no listener, but the heartbeat monitor
        # runs so mid-batch node deaths still trigger reassignment.
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
        monitor = HeartbeatMonitor(
            registry,
            ResilientClient(
                deadline=max(1.0, coord.heartbeat_interval * 2),
                retries=0, seed=coord.client_seed,
            ),
            coord.heartbeat_interval,
        )
        monitor.start()
        try:
            merged, cluster = run_cluster_batch(
                args.batch, _config(args), registry, client, coord,
                shards=args.shards,
            )
        finally:
            monitor.stop()
        rendered = (canonical_json(merged) if args.canonical
                    else json.dumps(merged, indent=2, sort_keys=True))
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(rendered + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(rendered)
        print(f"cluster: {json.dumps(cluster, sort_keys=True)}",
              file=sys.stderr)
        if not report_ok(merged):
            return 1
        return 2 if merged["partial"] else 0

    def _ready(server):
        print(f"coordinating on http://{server.coord.host}:{server.port} "
              f"({len(server.coord.nodes)} node(s) preregistered)",
              flush=True)

    return asyncio.run(coordinate_forever(coord, _config(args),
                                          ready=_ready))


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import serve_forever

    _activate_obs(args)
    _activate_faults(args)
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_concurrent=args.max_concurrent,
        deadline=args.deadline,
        job_timeout=args.timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
        max_retries=args.max_retries,
    )

    def _ready(server):
        print(f"serving on http://{server.config.host}:{server.port} "
              f"({server.config.workers} worker(s))", flush=True)

    return asyncio.run(serve_forever(serve_config, _config(args),
                                     ready=_ready))


def _add_engine_arguments(parser: argparse.ArgumentParser,
                          default_cache: str | None) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = run inline)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock budget in seconds")
    parser.add_argument("--cache-dir", default=default_cache,
                        help="persistent result cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    _add_fault_tolerance_arguments(parser)


def _add_fault_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="re-executions granted to transiently failed "
                             "jobs (worker crash/hang, OS error, timeout; "
                             "deterministic analysis errors never retry; "
                             "0 disables; default 2)")
    parser.add_argument("--hang-timeout", type=float, default=None,
                        metavar="S",
                        help="kill a worker silent for S seconds and retry "
                             "its job (default: hang detection off)")
    parser.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="activate a seeded fault-injection plan "
                             "(chaos testing; exported to workers via "
                             "REPRO_FAULTS)")


def _activate_faults(args: argparse.Namespace) -> None:
    if getattr(args, "faults", None):
        from repro.faults import activate

        activate(args.faults)


def _command_cache(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.engine.cache import ResultCache

    if not os.path.isdir(args.cache_dir):
        # Maintenance never creates a cache: a mistyped path must fail.
        print(f"error: cache directory {args.cache_dir!r} does not exist",
              file=sys.stderr)
        return 1
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    elif args.cache_command == "compact":
        print(json.dumps(cache.compact(), indent=2, sort_keys=True))
    else:
        evicted = cache.evict(max_age_s=args.max_age_s)
        print(f"evicted {evicted} entries from {args.cache_dir}")
    return 0


def _age_seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _command_witness(args: argparse.Namespace) -> int:
    from repro.core.witness import find_difference_witness

    old = _load(args.old, "old")
    new = _load(args.new, "new")
    witness = find_difference_witness(
        old, new, exceed=args.exceed, extra_samples=args.samples
    )
    if witness is None:
        print("no witness found (state spaces too large on all candidates)")
        return 1
    print(witness)
    if args.exceed is not None and witness.difference <= args.exceed:
        print(f"best found difference does not exceed {args.exceed}")
        return 1
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.config import LintConfig
    from repro.lint import (
        lint_paths,
        load_baseline,
        render_json,
        render_text,
        unsuppressed,
        write_baseline,
    )

    config = LintConfig(format=args.format, baseline=args.baseline,
                        show_suppressed=args.show_suppressed)
    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [p for p in (Path("src"), Path("tests")) if p.is_dir()]
        if not paths:  # installed package, no source tree around
            paths = [Path(__file__).resolve().parent]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise ReproError(f"no such path: {', '.join(map(str, missing))}")

    findings = lint_paths(paths)
    if args.write_baseline:
        write_baseline(findings, args.write_baseline)
        print(f"baseline written: {args.write_baseline}")
        return 0
    baseline = (load_baseline(config.baseline)
                if config.baseline else frozenset())
    if config.format == "json":
        print(render_json(findings, baseline=baseline))
    else:
        print(render_text(findings, baseline=baseline,
                          show_suppressed=config.show_suppressed))
    return 1 if unsuppressed(findings, baseline) else 0


def _command_show(args: argparse.Namespace) -> int:
    program = _load(args.program)
    if args.dot:
        print(render_dot(program.system))
    else:
        print(render_text(program.system))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-diffcost",
        description="Differential cost analysis with simultaneous "
                    "potentials and anti-potentials (PLDI 2022)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    diff = subparsers.add_parser("diff", help="compute a minimized threshold")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument("--certificates", action="store_true",
                      help="print the synthesized PF and anti-PF")
    _add_config_arguments(diff)
    diff.set_defaults(handler=_command_diff)

    bound = subparsers.add_parser("bound", help="prove a symbolic bound")
    bound.add_argument("old")
    bound.add_argument("new")
    bound.add_argument("--bound", required=True,
                       help='polynomial over inputs, e.g. "lenA * lenB"')
    _add_config_arguments(bound)
    bound.set_defaults(handler=_command_bound)

    refute = subparsers.add_parser("refute", help="refute a candidate threshold")
    refute.add_argument("old")
    refute.add_argument("new")
    refute.add_argument("--candidate", type=float, required=True)
    _add_config_arguments(refute)
    refute.set_defaults(handler=_command_refute)

    single = subparsers.add_parser(
        "single", help="single-program bounds with a precision guarantee"
    )
    single.add_argument("program")
    single.add_argument("--certificates", action="store_true")
    _add_config_arguments(single)
    single.set_defaults(handler=_command_single)

    suite = subparsers.add_parser("suite", help="run the Table 1 suite")
    suite.add_argument("--names", default=None,
                       help="comma-separated benchmark subset")
    suite.add_argument("--backend", choices=list(available_backends()),
                       default="scipy")
    suite.add_argument("--format", choices=["text", "markdown", "csv"],
                       default="text", help="output format")
    _add_engine_arguments(suite, default_cache=None)
    _add_obs_arguments(suite)
    suite.set_defaults(handler=_command_suite)

    batch = subparsers.add_parser(
        "batch",
        help="analyze every NAME_old.imp/NAME_new.imp pair in a directory",
    )
    batch.add_argument("directory")
    batch.add_argument("--portfolio", action="store_true",
                       help="race the escalating config ladder per pair "
                            "(the ladder overrides -d/-K/--backend rung "
                            "by rung; other config knobs are inherited)")
    batch.add_argument("--portfolio-mode", choices=["first", "best"],
                       default=None,
                       help="first succeeding rung wins, or minimal "
                            "threshold among succeeding rungs "
                            "(implies --portfolio; default: first)")
    batch.add_argument("--refute", action="store_true",
                       help="portfolio mode: probe each chosen "
                            "threshold T with an exact refutation of "
                            "T - 1; [tight] rows are certified minimal "
                            "(exactly, for integer-cost programs)")
    batch.add_argument("--shard", default=None, metavar="K/N",
                       help="run only the pairs the deterministic "
                            "job-hash partition assigns to shard K of N "
                            "(disjoint across K; merge the shards' "
                            "reports/caches with merge-shards)")
    batch.add_argument("--format", choices=["text", "json"], default="text",
                       help="output format")
    _add_config_arguments(batch)
    _add_engine_arguments(batch, default_cache=".repro-cache")
    _add_obs_arguments(batch)
    batch.set_defaults(handler=_command_batch)

    merge = subparsers.add_parser(
        "merge-shards",
        help="fold batch --shard K/N JSON reports (and optionally their "
             "caches) into one batch report",
    )
    merge.add_argument("reports", nargs="+",
                       help="shard report files (batch --format json)")
    merge.add_argument("-o", "--output", default=None,
                       help="write the merged report here (default: stdout)")
    merge.add_argument("--canonical", action="store_true",
                       help="emit the canonical rendering (volatile "
                            "timing/caching fields stripped) — two runs "
                            "over the same pairs compare byte-for-byte")
    merge.add_argument("--cache-dir", default=None,
                       help="merge shard caches into this directory")
    merge.add_argument("--source-caches", default=None, metavar="A,B",
                       help="comma-separated shard cache directories "
                            "(with --cache-dir)")
    merge.set_defaults(handler=_command_merge_shards)

    serve = subparsers.add_parser(
        "serve",
        help="run the async JSON-over-HTTP analysis server "
             "(POST /analyze, GET /healthz, GET /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = ephemeral; the bound port "
                            "is printed on startup)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="analysis worker processes (default 2)")
    serve.add_argument("--max-concurrent", type=int, default=16, metavar="N",
                       help="max requests analyzed at once (default 16)")
    serve.add_argument("--deadline", type=float, default=None, metavar="S",
                       help="default per-request deadline in seconds; an "
                            "expired request gets a structured timeout "
                            "and its job is cancelled")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job budget enforced inside workers")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="persistent result cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="requests allowed to queue for an analysis "
                            "slot before new ones are shed with 429 + "
                            "Retry-After (default 64)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="S",
                       help="SIGTERM grace: finish in-flight requests for "
                            "up to S seconds before closing the listener "
                            "(default 10)")
    serve.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="transient-failure retry budget of the "
                            "server's executor (default 2)")
    serve.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="activate a seeded fault-injection plan "
                            "(chaos testing)")
    _add_config_arguments(serve)
    _add_obs_arguments(serve)
    serve.set_defaults(handler=_command_serve)

    coord = subparsers.add_parser(
        "coord",
        help="run the fault-tolerant cluster coordinator "
             "(POST /batch fans a directory across worker nodes)",
        description="Coordinate N `repro-diffcost serve` nodes: "
                    "work-stealing batch fan-out with heartbeat health "
                    "tracking, dead-node reassignment and graceful "
                    "degradation.  With --batch DIR, run one cluster "
                    "batch and exit instead of serving.",
    )
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument("--port", type=int, default=8790,
                       help="listen port (0 = ephemeral; serving mode)")
    coord.add_argument("--node", action="append", metavar="URL",
                       help="worker node address (host:port; repeatable); "
                            "more can register later via POST /nodes")
    coord.add_argument("--min-nodes", type=int, default=1, metavar="N",
                       help="capacity floor: below N eligible nodes a "
                            "batch degrades to a partial report "
                            "(default 1)")
    coord.add_argument("--node-concurrency", type=int, default=2,
                       metavar="N",
                       help="concurrent pair requests per node "
                            "(default 2)")
    coord.add_argument("--heartbeat-interval", type=float, default=0.5,
                       metavar="S",
                       help="seconds between /healthz probe rounds "
                            "(default 0.5)")
    coord.add_argument("--dead-after", type=int, default=3, metavar="N",
                       help="consecutive missed heartbeats before a node "
                            "is declared dead and its pairs reassigned "
                            "(default 3)")
    coord.add_argument("--steal-after", type=float, default=0.25,
                       metavar="S",
                       help="an in-flight pair may be duplicated onto an "
                            "idle node after S seconds (default 0.25)")
    coord.add_argument("--deadline", type=float, default=120.0, metavar="S",
                       help="per-request deadline for node analyze calls "
                            "(default 120)")
    coord.add_argument("--client-retries", type=int, default=3, metavar="N",
                       help="transient-failure retries per node request, "
                            "with bounded exponential backoff and seeded "
                            "jitter (default 3)")
    coord.add_argument("--client-seed", type=int, default=2022,
                       metavar="SEED",
                       help="jitter seed: two runs with one seed sleep "
                            "the same backoff schedule (default 2022)")
    coord.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="S",
                       help="SIGTERM grace for running batches "
                            "(default 10)")
    coord.add_argument("--batch", default=None, metavar="DIR",
                       help="one-shot mode: fan this directory across "
                            "the nodes, print the merged report, exit "
                            "(0 ok, 1 failed pairs, 2 partial)")
    coord.add_argument("--shards", type=int, default=None, metavar="N",
                       help="shard count for --batch (default: one per "
                            "eligible node)")
    coord.add_argument("--canonical", action="store_true",
                       help="with --batch: emit the canonical rendering "
                            "(byte-identical to a fault-free local "
                            "`batch --jobs 1 --format json` canonical)")
    coord.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="with --batch: write the report here")
    coord.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="activate a seeded fault-injection plan "
                            "(net.*/node.partition chaos testing)")
    _add_config_arguments(coord)
    _add_obs_arguments(coord)
    coord.set_defaults(handler=_command_coord)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain a result cache "
             "(stats / compact / evict)",
        description="Operate on an existing result cache directory "
                    "(its store is cache.sqlite3; a directory of legacy "
                    "<key>.json entry files is imported on first open).",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, blurb in (
        ("stats", "print cache statistics as JSON"),
        ("compact", "VACUUM the store, reclaiming the space of evicted "
                    "and replaced entries"),
        ("evict", "remove entries older than the eviction age"),
    ):
        sub = cache_sub.add_parser(name, help=blurb)
        sub.add_argument("--cache-dir", default=".repro-cache",
                         help="result cache directory "
                              "(default .repro-cache)")
        if name == "evict":
            sub.add_argument("--max-age-s", type=_age_seconds, default=None,
                             metavar="S",
                             help="age bound in seconds (default: the "
                                  "cache's eviction_age_s, 7 days)")
        sub.set_defaults(handler=_command_cache)

    perf = subparsers.add_parser(
        "perf",
        help="time the LP backends on Table 1 LPs, emit BENCH_lp.json",
    )
    perf.add_argument("--names", default=None,
                      help="comma-separated pair subset, or 'all' "
                           "(default: the curated perf subset)")
    perf.add_argument("--backends", default=None,
                      help="comma-separated backend names "
                           "(default: exact,exact-warm,scipy)")
    perf.add_argument("--output", default="BENCH_lp.json",
                      help="report path (default: BENCH_lp.json)")
    perf.add_argument("--repeats", type=int, default=1,
                      help="timing repeats per backend; best-of is kept")
    perf.add_argument("--float-tolerance", type=float, default=1e-4,
                      help="allowed |float - exact| objective gap "
                           "(absolute + relative)")
    perf.add_argument("--no-refutation", action="store_true",
                      help="skip the refutation-batch section "
                           "(witness loop vs per-witness cold reference)")
    perf.add_argument("--baseline", default=None, metavar="JSON",
                      help="diff against a committed BENCH_lp.json "
                           "snapshot; exit 1 on disagreement or timing "
                           "regression")
    perf.add_argument("--max-regression", type=float, default=2.0,
                      metavar="X",
                      help="tracked timings may be at most X times the "
                           "baseline (default 2.0)")
    perf.set_defaults(handler=_command_perf)

    witness = subparsers.add_parser(
        "witness", help="find a concrete input exhibiting a cost difference"
    )
    witness.add_argument("old")
    witness.add_argument("new")
    witness.add_argument("--exceed", type=float, default=None,
                         help="stop at the first difference above this")
    witness.add_argument("--samples", type=int, default=16,
                         help="random interior inputs to try (plus corners)")
    witness.set_defaults(handler=_command_witness)

    show = subparsers.add_parser("show", help="print a lowered program")
    show.add_argument("program")
    show.add_argument("--dot", action="store_true",
                      help="emit Graphviz instead of text")
    show.set_defaults(handler=_command_show)

    lint = subparsers.add_parser(
        "lint",
        help="exactness/determinism/fork-safety static analysis",
        description="AST-based checks over the source tree: float "
                    "taint in declared-exact LP modules, nondeterminism "
                    "in canonical-output producers, worker-unsafe "
                    "global state.  Exits 1 on unsuppressed findings.",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src tests)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--baseline",
                      help="tolerate findings fingerprinted in this file")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="record current findings as the ratchet and exit")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print pragma-suppressed findings")
    lint.set_defaults(handler=_command_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
