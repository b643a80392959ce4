"""Fork safety (SC005).

SC005 models the fork-context process-pool rules: pools are created
only on the main thread (forking a multi-threaded parent from a helper
thread deadlocks), and only module-level callables are submitted —
closures and bound methods may pickle, but drag captured state across
the fork boundary where it silently diverges.

(SC003, the shared-memory lifecycle check, is retired: nothing creates
a named shared-memory segment any more.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .base import CheckPass, call_target, walk_scope
from .findings import FORK_SAFETY, Finding, make_finding
from .model import SourceModule

__all__ = ["ForkSafetyPass"]

_Func = ast.FunctionDef | ast.AsyncFunctionDef


class ForkSafetyPass(CheckPass):
    """SC005: fork-context pools — main-thread creation, picklable work."""

    code = "SC005"
    name = "fork-safety"

    def run(self, module: SourceModule) -> Iterable[Finding]:
        creations = [
            node for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and call_target(node).rsplit(".", 1)[-1] == "ProcessPoolExecutor"
        ]
        if not creations:
            return
        for call in creations:
            func = self._enclosing_function(module, call)
            if func is None or not self._has_main_thread_guard(func):
                yield make_finding(
                    FORK_SAFETY, module.path, call.lineno,
                    "ProcessPoolExecutor created without a "
                    "current_thread() is main_thread() guard; forking a "
                    "multi-threaded parent off the main thread deadlocks",
                    context=module.context_of(call),
                )
        module_level = self._module_level_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_target(node).rsplit(".", 1)[-1] != "submit":
                continue
            if not node.args:
                continue
            yield from self._check_submit_target(
                module, node, node.args[0], module_level
            )

    @staticmethod
    def _enclosing_function(
        module: SourceModule, node: ast.AST
    ) -> _Func | None:
        for anc in module.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    @staticmethod
    def _has_main_thread_guard(func: _Func) -> bool:
        saw_current = saw_main = False
        for node in walk_scope(func):
            if isinstance(node, ast.Call):
                tail = call_target(node).rsplit(".", 1)[-1]
                saw_current = saw_current or tail == "current_thread"
                saw_main = saw_main or tail == "main_thread"
        return saw_current and saw_main

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    names.add(alias.asname or alias.name.split(".")[0])
        return names

    def _check_submit_target(
        self,
        module: SourceModule,
        call: ast.Call,
        target: ast.expr,
        module_level: set[str],
    ) -> Iterable[Finding]:
        if isinstance(target, ast.Lambda):
            yield make_finding(
                FORK_SAFETY, module.path, call.lineno,
                "lambda submitted to the process pool; lambdas do not "
                "pickle across the fork boundary",
                context=module.context_of(call),
            )
        elif isinstance(target, ast.Attribute):
            yield make_finding(
                FORK_SAFETY, module.path, call.lineno,
                f"bound method {ast.unparse(target)!r} submitted to the "
                "process pool; submit a module-level function so workers "
                "never unpickle captured instance state",
                context=module.context_of(call),
            )
        elif (
            isinstance(target, ast.Name)
            and target.id not in module_level
        ):
            yield make_finding(
                FORK_SAFETY, module.path, call.lineno,
                f"{target.id!r} is not a module-level callable; nested "
                "functions and closures do not pickle for process-pool "
                "workers",
                context=module.context_of(call),
            )
