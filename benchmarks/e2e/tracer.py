"""Spans around calls into the program's layers, and their self times.

The traced launchers (``traced_cli.py``, ``traced_serve.py``) call
:func:`install` before handing control to ``repro.cli.main``: it wraps
the public functions named in :data:`TARGETS` so that every call
records a span (name, start, end, parent, thread) in memory.  The
launcher writes the spans as JSON when the program exits.  Timestamps
are ``time.monotonic()``, one clock for every process on the machine,
so the benchmark can line spans up with the operations it timed.

Parents come from a per-thread stack.  Engine work that the server
hands to its thread pool is linked back to the request that submitted
it, and the gap between submission and start is its own span
(``server.pool_wait``).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any

#: Functions replaced in every ``repro`` module that holds them:
#: (defining module, attribute or ``Class.method``, span name).
TARGETS = [
    ("repro.cli", "main", "cli.main"),
    ("repro.cli", "load_relation", "relation.load"),
    ("repro.rules_io", "load_rules", "cli.rules"),
    ("repro.relation.encoding", "RelationEncoding.column_codes", "relation.encode"),
    ("repro.relation.encoding", "RelationEncoding.gather", "relation.encode"),
    ("repro.relation.encoding", "RelationEncoding.sorted_projection", "relation.encode"),
    ("repro.relation.encoding", "RelationEncoding.combined_codes", "relation.encode"),
    ("repro.relation.encoding", "RelationEncoding.group_table", "relation.encode"),
    ("repro.relation.encoding", "RelationEncoding.stripped_classes", "relation.encode"),
    ("repro.relation.partition_cache", "PartitionCache.partition", "relation.partition"),
    ("repro.relation.partition_cache", "PartitionCache.groups", "relation.partition"),
    ("repro.incremental.delta", "apply_delta", "relation.apply_delta"),
    ("repro.analysis", "screen_rules", "analysis.screen"),
    ("repro.plan.entry", "plan_for", "plan.compile"),
    ("repro.plan.kernels", "execute_pairs", "plan.kernel"),
    ("repro.plan.kernels", "execute_rows", "plan.kernel"),
    ("repro.plan.parallel", "execute_parallel", "plan.fanout"),
    ("repro.incremental.delta", "Delta.from_json", "incremental.parse"),
    ("repro.incremental.delta", "Delta.validate", "incremental.validate"),
    ("repro.incremental.detector", "IncrementalDetector.apply", "incremental.apply"),
    ("repro.server.durability.manager", "DurabilityManager.log_batch", "durability.wal"),
    ("repro.server.durability.manager", "DurabilityManager.snapshot", "durability.snapshot"),
    ("repro.server.durability.manager", "DurabilityManager.recover", "durability.recover"),
    ("repro.server.app", "ReproApp.apply_batch", "server.apply_batch"),
    ("repro.server.jobs.manager", "JobManager._run", "jobs.run"),
    ("repro.profiler", "profile_relation", "profiler.count"),
]

#: Names replaced only in one module's namespace: (module, name, span).
LOCAL_TARGETS = [
    ("repro.server.jobs.manager", "lint_rules", "analysis.minimize"),
    ("repro.profiler", "tane", "discovery.tane"),
    ("repro.profiler", "cords", "discovery.cords"),
    ("repro.profiler", "discover_constant_cfds", "discovery.cfd"),
    ("repro.profiler", "discover_pairwise_ods", "discovery.od"),
    ("repro.profiler", "discover_sds", "discovery.sd"),
]

#: Spans whose own time is glue around the named layers.
GLUE = ("cli.main", "server.engine", "jobs.run")

#: Spans that snapshot the kernel counters at entry and record the delta.
COUNTED = ("cli.main", "server.dispatch", "jobs.run")


class Recorder:
    """In-memory span log; thread-safe appends, per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: int | None = None, **attrs: Any) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent if parent is not None else (
                stack[-1] if stack else None
            ),
            "thread": threading.get_ident(),
            "start": time.monotonic(),
            "end": None,
        }
        span.update(attrs)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        span = {
            "id": next(self._ids), "name": name, "parent": parent,
            "thread": threading.get_ident(), "start": start, "end": end,
        }
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def _traced(rec: Recorder, fn: Any, name: str) -> Any:
    counters = _counters() if name in COUNTED else None

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = rec.open(name)
        before = counters.snapshot() if counters is not None else None
        try:
            return fn(*args, **kwargs)
        finally:
            if before is not None:
                span["counts"] = _counts(counters.snapshot().diff(before))
            rec.close(span)

    return traced


def _counters() -> Any:
    from repro.plan.kernels import COUNTERS

    return COUNTERS


def _counts(delta: Any) -> dict[str, Any]:
    return {
        "pairs_examined": delta.pairs_examined,
        "pairs_total": delta.pairs_total,
        "candidates": sum(delta.candidates_by_strategy.values()),
        "verified": sum(delta.verified_by_strategy.values()),
        "executions": delta.executions,
        "vector_executions": delta.backends().get("vectorized", 0),
    }


def _replace_everywhere(old: Any, new: Any, attr: str) -> None:
    import sys

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, attr, None
        ) is old:
            setattr(module, attr, new)


def install(rec: Recorder, *, server: bool) -> None:
    """Wrap every target; call before ``repro.cli.main`` runs.

    With ``server=False`` the server modules are neither imported nor
    wrapped, so a traced CLI start pays only for what the CLI loads.
    """
    import os

    # Import every module a target lives in or is imported into.
    for module in ("repro.cli", "repro.plan", "repro.incremental",
                   "repro.profiler", "repro.analysis"):
        importlib.import_module(module)
    if server:
        importlib.import_module("repro.server.app")
    for module_name, path, span in TARGETS:
        if module_name.startswith("repro.server") and not server:
            continue
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_traced(rec, raw.__func__, span)))
            else:
                setattr(cls, attr, _traced(rec, raw, span))
        else:
            old = getattr(module, path)
            _replace_everywhere(old, _traced(rec, old, span), path)
    for module_name, attr, span in LOCAL_TARGETS:
        if module_name.startswith("repro.server") and not server:
            continue
        module = importlib.import_module(module_name)
        setattr(module, attr, _traced(rec, getattr(module, attr), span))
    if server:
        os.fsync = _traced(rec, os.fsync, "durability.fsync")
        _install_server(rec)
    _install_gc(rec)


def _install_gc(rec: Recorder) -> None:
    """Cyclic-GC pauses as ``python.gc`` spans, in the thread they stop."""
    import gc

    def callback(phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            rec._local.gc_span = rec.open("python.gc")
        else:
            span = getattr(rec._local, "gc_span", None)
            if span is not None:
                rec._local.gc_span = None
                rec.close(span)

    gc.callbacks.append(callback)


def _install_server(rec: Recorder) -> None:
    from repro.server.app import ReproApp

    dispatch = ReproApp.dispatch
    run_sync = ReproApp.run_sync
    counters = _counters()

    @functools.wraps(dispatch)
    async def traced_dispatch(self: Any, request: Any) -> Any:
        span = rec.open(
            "server.dispatch", method=request.method, path=request.path
        )
        before = counters.snapshot()
        try:
            return await dispatch(self, request)
        finally:
            span["counts"] = _counts(counters.snapshot().diff(before))
            rec.close(span)

    @functools.wraps(run_sync)
    async def traced_run_sync(self: Any, fn: Any) -> Any:
        parent = rec.current()
        submitted = time.monotonic()

        def engine() -> Any:
            rec.add("server.pool_wait", submitted, time.monotonic(), parent)
            span = rec.open("server.engine", parent=parent)
            try:
                return fn()
            finally:
                rec.close(span)

        return await run_sync(self, engine)

    ReproApp.dispatch = traced_dispatch
    ReproApp.run_sync = traced_run_sync


# -- analysis (runs in the benchmark process) ------------------------------


class SpanTree:
    """Spans of one process, indexed by parent, with their self times.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """

    def __init__(self, spans: list[dict[str, Any]]) -> None:
        self.spans = sorted(spans, key=lambda s: s["start"])
        self.children: dict[int, list[dict[str, Any]]] = {}
        self.by_name: dict[str, list[dict[str, Any]]] = {}
        for s in self.spans:
            self.by_name.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)
        self.self_s: dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for c in self.children.get(s["id"], ()):
                start, end = max(c["start"], cursor), min(c["end"], s["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            self.self_s[s["id"]] = s["end"] - s["start"] - covered

    def named(self, name: str, start: float, end: float) -> list[dict]:
        """Spans called ``name`` that start inside ``[start, end]``."""
        spans = self.by_name.get(name, [])
        lo = bisect.bisect_left(spans, start, key=lambda s: s["start"])
        hi = bisect.bisect_right(spans, end, key=lambda s: s["start"])
        return spans[lo:hi]

    def layers(self, roots: list[dict[str, Any]]) -> tuple[dict, dict]:
        """Self seconds and call counts per span name, over ``roots``
        and everything below them; glue spans add to ``unattributed``."""
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        todo = list(roots)
        while todo:
            s = todo.pop()
            todo.extend(self.children.get(s["id"], ()))
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            name = "unattributed" if s["name"] in GLUE else s["name"]
            seconds[name] = seconds.get(name, 0.0) + self.self_s[s["id"]]
        return seconds, calls
