"""Module-contract registry: which invariants each module promises.

The checkers are scoped by *contract*, not heuristics: a module is
checked for float taint only when it is declared exact here, for
determinism only in its registered canonical-output functions, and for
fork safety only when pool workers can reach it.  Keeping the registry
in one literal makes a contract change reviewable as a one-line diff.

Module keys are source-tree-relative posix paths starting at the
package root — ``repro/lp/basis.py``, ``tests/test_lint.py`` — and
registry entries may use :mod:`fnmatch` globs (``repro/handelman/*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch


def _matches(module: str, pattern: str) -> bool:
    return module == pattern or fnmatch(module, pattern)


@dataclass(frozen=True)
class Contracts:
    """One repo's (or one test fixture set's) module contracts.

    Attributes
    ----------
    exact_modules:
        Glob patterns of modules whose arithmetic must stay on
        ``Fraction``/``int``; the float-taint checker runs here.
    determinism:
        ``(pattern, function_names)`` pairs registering canonical-output
        / cache-key producing functions.  ``("*",)`` registers every
        function of the module.  Unsorted ``set`` iteration is flagged
        module-wide in these modules (hash randomization makes it
        nondeterministic wherever it feeds anything); the remaining
        determinism rules apply inside the registered functions only.
    worker_modules:
        Glob patterns of modules importable by pool worker processes;
        the fork-safety mutable-global rule runs here.
    approved_signal_sites:
        ``(pattern, function_name)`` pairs where ``signal.signal``
        registration is part of the design (``"*"`` approves the whole
        module).  The rule itself applies to *every* linted module.
    approved_global_writers:
        ``(pattern, function_name)`` pairs allowed to write
        module-level mutable globals (deliberate registries).
    """

    exact_modules: tuple[str, ...] = ()
    determinism: tuple[tuple[str, tuple[str, ...]], ...] = ()
    worker_modules: tuple[str, ...] = ()
    approved_signal_sites: tuple[tuple[str, str], ...] = ()
    approved_global_writers: tuple[tuple[str, str], ...] = ()

    def is_exact(self, module: str) -> bool:
        return any(_matches(module, p) for p in self.exact_modules)

    def canonical_functions(self, module: str) -> tuple[str, ...] | None:
        """Registered function names for a determinism module, or
        ``None`` when the module carries no determinism contract."""
        names: list[str] = []
        found = False
        for pattern, functions in self.determinism:
            if _matches(module, pattern):
                found = True
                names.extend(functions)
        if not found:
            return None
        return tuple(names)

    def is_worker(self, module: str) -> bool:
        return any(_matches(module, p) for p in self.worker_modules)

    def _approved(self, table: tuple[tuple[str, str], ...],
                  module: str, function: str) -> bool:
        return any(
            _matches(module, pattern) and (name == "*" or name == function)
            for pattern, name in table
        )

    def signal_approved(self, module: str, function: str) -> bool:
        return self._approved(self.approved_signal_sites, module, function)

    def global_writer_approved(self, module: str, function: str) -> bool:
        return self._approved(self.approved_global_writers, module, function)


#: The repository's own contracts.  Scope notes:
#:
#: - ``lp/revised.py`` and ``lp/certify.py`` are declared exact even
#:   though both host the float warm-start stage: that stage *is* the
#:   declared boundary, carried by ``# lint: allow[float-stage]``
#:   pragmas at the stage functions (and by
#:   :func:`repro.lint.sanitizer.float_stage` at run time).
#: - Determinism functions are exactly the producers of canonical
#:   reports, cache entries and content-addressed keys; volatile stats
#:   paths (timers, cache hit counters) deliberately stay unregistered.
#: - ``repro/serve/*`` runs only in the parent/server process and is
#:   not worker-reachable; ``repro/lp/backend.py`` keeps its lazily
#:   populated backend registry (per-process, deterministic content),
#:   approved below.
DEFAULT_CONTRACTS = Contracts(
    exact_modules=(
        "repro/lp/basis.py",
        "repro/lp/revised.py",
        "repro/lp/dual.py",
        "repro/lp/certify.py",
        "repro/handelman/*",
        "repro/poly/*",
        "repro/core/refutation.py",
        "repro/utils/rationals.py",
    ),
    determinism=(
        ("repro/engine/jobs.py", ("canonical_payload", "key", "to_dict")),
        ("repro/serve/shard.py", (
            "_canonical_result", "_canonical_portfolio", "canonical_report",
            "canonical_json", "merge_reports", "report_ok",
        )),
        # The cache package: entry serialization feeds content-addressed
        # bytes (checksums, stored rows, merged and federated entries),
        # so every producer of stored entry bytes must be canonical-byte
        # deterministic.
        ("repro/engine/cache/__init__.py", (
            "put", "merge_from", "_fold", "_source_rows", "apply_delta",
            "delta_since",
        )),
        ("repro/engine/cache/entry.py", (
            "result_checksum", "build_entry", "entry_json",
        )),
        ("repro/engine/cache/federation.py", ("merge_deltas",)),
        ("repro/engine/batch.py", (
            "discover_pairs", "pair_shard_index", "shard_pairs", "to_dict",
            "batch_to_json",
        )),
        ("repro/bench/reporting.py", (
            "format_table", "format_markdown", "format_csv",
        )),
        # The coordinator's report-synthesis path: per-shard report
        # dicts and ownership assignment feed merge_reports, so their
        # output must be canonical-byte deterministic.
        ("repro/coord/dispatch.py", ("shard_report", "reports")),
    ),
    worker_modules=(
        "repro/core/*",
        "repro/lp/*",
        "repro/handelman/*",
        "repro/poly/*",
        "repro/invariants/*",
        "repro/lang/*",
        "repro/ts/*",
        "repro/utils/*",
        "repro/engine/*",
        "repro/obs/*",
        # Fault injection is consulted inside workers (crash/hang/delay
        # sites), so its globals must obey the fork-safety contract.
        "repro/faults/*",
    ),
    approved_signal_sites=(
        # The executor's SIGALRM job-timeout path (worker side) and the
        # CLI's SIGTERM-as-interrupt context manager (parent side).
        ("repro/engine/executor.py", "*"),
        ("repro/cli.py", "_sigterm_as_interrupt"),
    ),
    approved_global_writers=(
        # The LP backend registry: populated lazily per process before
        # any answer-producing work, deterministic content.
        ("repro/lp/backend.py", "register_backend"),
        ("repro/lp/backend.py", "_ensure_builtins"),
        # The result cache's registry of live handles: its fork hooks
        # close every SQLite connection before a fork, so no child
        # inherits one.
        ("repro/engine/cache/__init__.py", "__init__"),
    ),
)
