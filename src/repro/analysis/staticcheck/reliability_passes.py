"""Durability ordering (SC006) and exception discipline (SC008).

SC006 — the WAL contract of :mod:`repro.server.durability`: a batch
must be on disk *before* the state it acknowledges exists.  In any
server function that both persists (``log_batch``/``log_rules``/
``log_register``) and commits (applies a delta to the detector, or
installs a new detector or rule set), the persist call must lexically
dominate the commit; the reversed order acks state a crash would
forget.

SC008 — the exception taxonomy of :mod:`repro.runtime.errors`:
``BudgetExhausted`` is control flow (honest partials) and
``EngineFault`` is a typed quarantine — a broad ``except Exception``
that neither re-raises nor sits behind a narrower
``BudgetExhausted``/``ReproError`` clause can silently convert either
into a wrong answer.  Handlers that are legitimately broad (server
boundaries, best-effort cleanup) carry an inline suppression with a
written reason.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .base import CheckPass, call_target, dotted_name, walk_scope
from .findings import (
    ACK_BEFORE_WAL,
    SWALLOWED_EXCEPTION,
    Finding,
    make_finding,
)
from .model import SourceModule

__all__ = ["ExceptionDisciplinePass", "WalBeforeAckPass"]

#: Calls that make state durable (the WAL append family).
PERSIST_TAILS = frozenset({"log_batch", "log_rules", "log_register"})
#: Exception names that make a broad handler acceptable when caught
#: by an *earlier* clause of the same try.
_GUARD_NAMES = frozenset({"BudgetExhausted", "ReproError"})
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _is_server_module(module: SourceModule) -> bool:
    path = module.path.replace("\\", "/")
    return "/server/" in path or path.endswith("/server.py")


def _commit_line(node: ast.AST) -> int | None:
    """Line of a state-commit: ``detector.apply(...)``,
    ``<x>.install_rules(...)`` or ``<x>.detector = ...``."""
    if isinstance(node, ast.Call):
        target = call_target(node)
        parts = target.split(".")
        if parts[-1] == "apply" and len(parts) > 1 and (
            "detector" in parts[-2]
        ):
            return node.lineno
        if parts[-1] == "install_rules" and len(parts) > 1:
            return node.lineno
    if isinstance(node, ast.Assign):
        for tgt in node.targets:
            if isinstance(tgt, ast.Attribute) and tgt.attr == "detector":
                return node.lineno
    return None


class WalBeforeAckPass(CheckPass):
    """SC006: WAL append dominates the commit it makes durable."""

    code = "SC006"
    name = "ack-before-wal"

    def run(self, module: SourceModule) -> Iterable[Finding]:
        if not _is_server_module(module):
            return
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            persists: list[int] = []
            commits: list[tuple[int, ast.AST]] = []
            for node in walk_scope(func, include_root=False):
                if isinstance(node, ast.Call) and (
                    call_target(node).rsplit(".", 1)[-1] in PERSIST_TAILS
                ):
                    persists.append(node.lineno)
                line = _commit_line(node)
                if line is not None:
                    commits.append((line, node))
            if not persists or not commits:
                continue
            first_persist = min(persists)
            for line, node in commits:
                if line < first_persist:
                    yield make_finding(
                        ACK_BEFORE_WAL, module.path, line,
                        "state commit precedes the WAL append at line "
                        f"{first_persist}; a crash between them acks a "
                        "batch recovery cannot replay",
                        context=module.context_of(node),
                    )


def _handler_names(expr: ast.expr | None) -> set[str]:
    if expr is None:
        return {"BaseException"}  # bare except
    exprs = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    names: set[str] = set()
    for e in exprs:
        name = dotted_name(e)
        if name is not None:
            names.add(name.rsplit(".", 1)[-1])
    return names


class ExceptionDisciplinePass(CheckPass):
    """SC008: broad handlers must re-raise, narrow, or justify."""

    code = "SC008"
    name = "swallowed-exception"

    def run(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            guarded = False
            for handler in node.handlers:
                names = _handler_names(handler.type)
                if not names & _BROAD_NAMES:
                    if names & _GUARD_NAMES:
                        guarded = True
                    continue
                if guarded:
                    continue  # BudgetExhausted peeled off earlier
                if self._reraises(handler):
                    continue
                caught = (
                    "bare except" if handler.type is None
                    else f"except {ast.unparse(handler.type)}"
                )
                yield make_finding(
                    SWALLOWED_EXCEPTION, module.path, handler.lineno,
                    f"{caught} can swallow BudgetExhausted/EngineFault: "
                    "narrow it, peel those off in an earlier clause, "
                    "re-raise, or suppress with a written reason",
                    context=module.context_of(handler),
                )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for node in walk_scope(stmt):
                if isinstance(node, ast.Raise):
                    return True
        return False
