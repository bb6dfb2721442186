"""Worker/fork-safety checker.

Two rules:

- ``mutable-global-write`` — in worker-reachable modules, a function
  that mutates (or rebinds via ``global``) a module-level mutable
  literal (``dict``/``list``/``set`` displays, comprehensions, or
  ``dict()``-style constructor calls).  Worker processes each carry
  their own copy of such state; writes silently diverge between parent
  and workers and between fork and spawn start methods.  Deliberate
  registries are approved in the contract registry or carry a
  ``# lint: allow[fork-safety]`` pragma.
- ``signal-registration`` — ``signal.signal(...)`` outside the
  approved executor/CLI sites, checked in *every* linted module:
  handler registration composes globally, so a stray registration in
  library code can clobber the executor's SIGALRM timeout path or the
  CLI's SIGTERM flush.
"""

from __future__ import annotations

import ast

from repro.lint.contracts import Contracts
from repro.lint.model import RawFinding

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                     ast.ListComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "WeakSet", "WeakKeyDictionary", "WeakValueDictionary",
})
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "popitem", "remove", "discard", "clear",
})


def _mutable_global_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        func = value.func if isinstance(value, ast.Call) else None
        mutable = isinstance(value, _MUTABLE_LITERALS) or (
            isinstance(func, ast.Name) and func.id in _MUTABLE_CONSTRUCTORS
        ) or (  # qualified: collections.deque(), weakref.WeakSet(), ...
            isinstance(func, ast.Attribute)
            and func.attr in _MUTABLE_CONSTRUCTORS
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _signal_aliases(tree: ast.Module) -> frozenset[str]:
    """Names under which ``signal.signal`` is callable bare."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "signal":
            for alias in node.names:
                if alias.name == "signal":
                    names.add(alias.asname or "signal")
    return frozenset(names)


def check(tree: ast.Module, module: str,
          contracts: Contracts) -> list[RawFinding]:
    findings: list[RawFinding] = []
    worker = contracts.is_worker(module)
    globals_ = _mutable_global_names(tree) if worker else frozenset()
    bare_signal = _signal_aliases(tree)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_function(node, module, contracts, globals_,
                            bare_signal, findings)

    # Module/class-level statements outside any function: still police
    # signal registration (import-time handler installation).
    if not contracts.signal_approved(module, "<module>"):
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _is_signal_call(node, bare_signal):
                findings.append(RawFinding(
                    "signal-registration", node.lineno, node.col_offset,
                    "signal.signal(...) at import time, outside the "
                    "approved executor/CLI sites",
                ))
            stack.extend(ast.iter_child_nodes(node))
    return findings


def _is_signal_call(node: ast.AST, bare_signal: frozenset[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if (isinstance(fn, ast.Attribute) and fn.attr == "signal"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "signal"):
        return True
    return isinstance(fn, ast.Name) and fn.id in bare_signal


def _check_function(func, module, contracts, globals_, bare_signal,
                    findings) -> None:
    # signal.signal registrations (rule applies in every module).
    if not contracts.signal_approved(module, func.name):
        for node in _direct_body_walk(func):
            if _is_signal_call(node, bare_signal):
                findings.append(RawFinding(
                    "signal-registration", node.lineno, node.col_offset,
                    f"signal.signal(...) registered in {func.name!r}, "
                    "outside the approved executor/CLI sites",
                ))

    if not globals_ or contracts.global_writer_approved(module, func.name):
        return

    declared_global: set[str] = set()
    local_stores: set[str] = set()
    for node in _direct_body_walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local_stores.add(node.id)

    def is_module_global(name: str) -> bool:
        if name not in globals_:
            return False
        if name in declared_global:
            return True
        return name not in local_stores  # locally rebound names shadow

    def emit(name: str, node: ast.AST, how: str) -> None:
        findings.append(RawFinding(
            "mutable-global-write", node.lineno, node.col_offset,
            f"{how} module-level mutable global {name!r} from "
            f"worker-reachable function {func.name!r}",
        ))

    for node in _direct_body_walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id in declared_global
                        and target.id in globals_):
                    emit(target.id, node, "rebinds")
                elif (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_module_global(target.value.id)):
                    emit(target.value.id, node, "writes an item of")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_module_global(target.value.id)):
                    emit(target.value.id, node, "deletes an item of")
        elif isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute) and fn.attr in _MUTATORS
                    and isinstance(fn.value, ast.Name)
                    and is_module_global(fn.value.id)):
                emit(fn.value.id, node, f"calls .{fn.attr}() on")


def _direct_body_walk(func):
    """Walk a function body without descending into nested function
    definitions (they get their own scope analysis)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)
