"""Scoped execution state: kernel backend, worker count, kernel counters.

One frozen :class:`ExecutionScope` lives in a context variable next to
the ambient :class:`~repro.runtime.budget.Budget`: the kernel
``backend`` (``auto``, ``vector`` or ``scalar``), the ambient fan-out
``workers`` count, and the scope's own :class:`KernelCounters`.
:func:`execution` enters a child scope that inherits what it does not
set and, on exit (exceptions included), folds its counters into the
scope it was entered from, so a caller reads exactly its own kernel
work whatever other threads run.

Outside any :func:`execution` block, a new thread included, the root
scope applies: its counters are the process totals :data:`COUNTERS`,
and its backend is read once per process from ``REPRO_KERNEL_BACKEND``.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any

from .errors import InputError

_BACKENDS = ("auto", "vector", "scalar")


@dataclass
class KernelCounters:
    """What the plan kernels did: executions, pairs, strategies.

    Vectorized executions record strategies prefixed ``vec-`` plus the
    streamed index chunks; scalar ones keep the bare names, and
    :meth:`backends` aggregates either way.  Every
    :class:`ExecutionScope` owns one and folds it into its parent's
    with :meth:`merge` on exit; a forked shard ships its scope's
    :meth:`snapshot` home the same way.  :meth:`diff` gives the work
    between two snapshots.  Pickling drops the lock.

    Thread-safety: the scalar fields are plain increments (atomic
    enough under the GIL for monitoring); the per-strategy dicts change
    only under the lock :meth:`snapshot` takes, so a metrics scraper
    never sees a dict resized mid-iteration or a half-applied note.
    """

    executions: int = 0
    pairs_examined: int = 0
    pairs_total: int = 0
    #: Streamed index blocks evaluated by the vectorized backend (each
    #: one is also a budget checkpoint).
    chunks: int = 0
    by_strategy: dict[str, int] = field(default_factory=dict)
    #: Candidate pairs examined / verified hits, per strategy name.
    candidates_by_strategy: dict[str, int] = field(default_factory=dict)
    verified_by_strategy: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def note(self, strategy: str) -> None:
        with self._lock:
            self.by_strategy[strategy] = (
                self.by_strategy.get(strategy, 0) + 1
            )

    def note_work(
        self, strategy: str, *, candidates: int = 0, verified: int = 0
    ) -> None:
        """Record a finished execution's candidate/verified volume."""
        with self._lock:
            self.candidates_by_strategy[strategy] = (
                self.candidates_by_strategy.get(strategy, 0) + candidates
            )
            self.verified_by_strategy[strategy] = (
                self.verified_by_strategy.get(strategy, 0) + verified
            )

    def snapshot(self) -> "KernelCounters":
        """A detached, consistent copy, safe to take while kernels run
        on other threads; mutating either side leaves the other alone."""
        with self._lock:
            out = KernelCounters(
                executions=self.executions,
                pairs_examined=self.pairs_examined,
                pairs_total=self.pairs_total,
                chunks=self.chunks,
                by_strategy=dict(self.by_strategy),
                candidates_by_strategy=dict(self.candidates_by_strategy),
                verified_by_strategy=dict(self.verified_by_strategy),
            )
        return out

    def diff(self, earlier: "KernelCounters") -> "KernelCounters":
        """The work recorded since an ``earlier`` snapshot.

        Composable with :meth:`merge`: ``earlier.merge(self.diff(earlier))``
        reproduces ``self`` field for field.  Call on detached
        snapshots (both operands are read without locking).
        """

        def delta(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
            return {
                k: a.get(k, 0) - b.get(k, 0)
                for k in a.keys() | b.keys()
                if a.get(k, 0) != b.get(k, 0)
            }

        return KernelCounters(
            executions=self.executions - earlier.executions,
            pairs_examined=self.pairs_examined - earlier.pairs_examined,
            pairs_total=self.pairs_total - earlier.pairs_total,
            chunks=self.chunks - earlier.chunks,
            by_strategy=delta(self.by_strategy, earlier.by_strategy),
            candidates_by_strategy=delta(
                self.candidates_by_strategy, earlier.candidates_by_strategy
            ),
            verified_by_strategy=delta(
                self.verified_by_strategy, earlier.verified_by_strategy
            ),
        )

    def merge(self, other: "KernelCounters") -> None:
        """Fold detached counters (a child scope's, a shard's) into these."""
        with self._lock:
            self.executions += other.executions
            self.pairs_examined += other.pairs_examined
            self.pairs_total += other.pairs_total
            self.chunks += other.chunks
            for src, dst in (
                (other.by_strategy, self.by_strategy),
                (other.candidates_by_strategy, self.candidates_by_strategy),
                (other.verified_by_strategy, self.verified_by_strategy),
            ):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v

    def backends(self) -> dict[str, int]:
        """Execution counts aggregated to ``scalar`` / ``vectorized``."""
        out: dict[str, int] = {}
        for strategy, count in self.by_strategy.items():
            key = "vectorized" if strategy.startswith("vec-") else "scalar"
            out[key] = out.get(key, 0) + count
        return out

    def pruned_fraction(self) -> float:
        """Fraction of the blind O(n²) pair space the kernels skipped
        (0.0 when no pair space was recorded)."""
        if self.pairs_total <= 0:
            return 0.0
        return 1.0 - min(1.0, max(0, self.pairs_examined) / self.pairs_total)

    def __getstate__(self) -> dict[str, Any]:
        state = vars(self.snapshot())
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


#: The root scope's counters: process-wide totals of every scope.
COUNTERS = KernelCounters()


@dataclass(frozen=True)
class ExecutionScope:
    """The execution state one kernel call runs under."""

    backend: str
    workers: int | None
    counters: KernelCounters


_current: ContextVar["ExecutionScope | None"] = ContextVar(
    "repro_execution_scope", default=None
)


@functools.cache
def _root() -> ExecutionScope:
    """The root scope; reads ``REPRO_KERNEL_BACKEND`` on first use."""
    backend = os.environ.get("REPRO_KERNEL_BACKEND") or "auto"
    if backend not in _BACKENDS:
        raise InputError(
            f"REPRO_KERNEL_BACKEND={backend!r} is not a kernel backend; "
            f"expected one of {', '.join(_BACKENDS)}"
        )
    return ExecutionScope(backend, None, COUNTERS)


def current_scope() -> ExecutionScope:
    """The innermost :func:`execution` scope here, else the root."""
    scope = _current.get()
    return scope if scope is not None else _root()


@contextmanager
def execution(
    backend: str | None = None, workers: int | None = None
) -> Iterator[ExecutionScope]:
    """Run the body in a child scope; fold its counters home on exit.

    ``backend`` and ``workers`` override the enclosing scope's values
    for the dynamic extent of the block; ``None`` inherits them.  The
    yielded scope's counters hold exactly the kernel work done inside
    the block, nested blocks included.
    """
    if backend is not None and backend not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {backend!r}")
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers!r}")
    outer = current_scope()
    scope = ExecutionScope(
        outer.backend if backend is None else backend,
        outer.workers if workers is None else workers,
        KernelCounters(),
    )
    token = _current.set(scope)
    try:
        yield scope
    finally:
        _current.reset(token)
        outer.counters.merge(scope.counters.snapshot())
