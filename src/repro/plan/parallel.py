"""Sharded parallel execution of pair plans across worker processes.

The engine-neutral refactor (kernels consume an immutable
:class:`~repro.plan.slabs.ExecutionContext`, never a live substrate
handle) makes checking embarrassingly parallel: the candidate
generators in :mod:`repro.plan.kernels` / :mod:`repro.plan.kernels_vec`
accept a ``shard=(k, m)`` selector that partitions the candidate space
exactly — by partition group, metric bucket, sorted-sweep position, or
streamed ≤65536-pair vector block — so ``m`` workers each walk a
disjoint slice and the union is pair-for-pair the single-core run.

This module owns the fan-out:

* **selection** — an explicit ``workers=`` argument wins outright;
  the ambient count (:func:`set_workers` / :func:`workers`, set by the
  CLI's ``--workers``) applies only to snapshots of at least
  :data:`MIN_ROWS` rows, so small checks stay serial;
* **transport** — column slabs ship once per snapshot through
  ``multiprocessing.shared_memory`` (:meth:`ExecutionContext.share`)
  and are cached per token in each worker; unshareable snapshots fall
  back to inline pickling, unpicklable ones to serial execution;
* **determinism** — every shard returns *keyed* hits; the parent
  concatenates and sorts once, which is byte-identical to the serial
  executor's sort because shard keys are disjoint;
* **governance** — the parent's ambient :class:`Budget` is projected
  into each worker (remaining deadline, memory cap) and stitched back
  through a :class:`~repro.runtime.budget.ShardToken`: workers publish
  their work into per-slot accounting (so *global* pair/candidate caps
  bite), and cancellation — from the parent's poll loop or any
  exhausted sibling — is observed at the next cooperative checkpoint;
* **accounting** — per-worker :class:`KernelCounters` snapshot deltas
  come home with the results and merge into the parent's counters, so
  parent totals equal the sum of worker totals.

Pools are forked, and used, only from the main thread: a call from any
other thread (a server's engine and job threads included) runs
serially.  Any infrastructure failure (broken pool, unpicklable
payloads) likewise degrades to ``None`` and the entry layer runs the
identical serial path.
"""

from __future__ import annotations

import atexit
import pickle
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..runtime.budget import ShardToken

from .ir import kernel_backend_mode
from .slabs import (
    ColumnSlabs,
    ExecutionContext,
    context_for,
    load_shared,
    release_shared,
)

#: Ambient fan-out floor: smaller snapshots check serially.
MIN_ROWS = 2048
_POLL_S = 0.05

#: Ambient worker count (``None``: serial unless a call asks).
_workers_override: int | None = None
#: Set in worker processes: nested entry points stay serial.
_in_worker = False


def set_workers(n: int | None) -> None:
    """Set the ambient worker count (``None`` restores serial)."""
    global _workers_override
    if n is not None and int(n) < 1:
        raise ValueError(f"worker count must be >= 1, got {n!r}")
    _workers_override = None if n is None else int(n)


@contextmanager
def workers(n: int | None) -> Iterator[None]:
    """Temporarily set the ambient worker count (tests and benchmarks)."""
    global _workers_override
    previous = _workers_override
    set_workers(n)
    try:
        yield
    finally:
        _workers_override = previous


def workers_mode() -> int | None:
    """The ambient worker count, or ``None``."""
    return _workers_override


def resolve_workers(explicit: int | None, n_rows: int) -> int:
    """The worker count one execution should use.

    An explicit ``workers=`` argument wins outright (the caller asked);
    the ambient count applies only to snapshots of at least
    :data:`MIN_ROWS` rows, so ``repro check --workers 4`` doesn't tax
    every small rule check with process dispatch.
    """
    if _in_worker:
        return 1
    if explicit is not None:
        return max(1, int(explicit))
    mode = workers_mode()
    if mode is None or mode <= 1 or n_rows < MIN_ROWS:
        return 1
    return mode


# -- worker pool -------------------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _get_pool(n: int) -> ProcessPoolExecutor | None:
    """A fork-context pool with at least ``n`` slots, or ``None``.

    Only the main thread gets a pool.  A fork-context executor forks
    its workers lazily, at the first ``submit``, from whichever thread
    submits: handing an existing pool to a helper thread would fork a
    multi-threaded parent from that thread, which is how deadlocks are
    made.  Off-main-thread callers therefore always get ``None`` and
    run serially.
    """
    global _pool, _pool_size
    if threading.current_thread() is not threading.main_thread():
        return None
    with _pool_lock:
        if _pool is not None and _pool_size >= n:
            return _pool
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
        import multiprocessing

        mp = multiprocessing.get_context("fork")
        _pool = ProcessPoolExecutor(max_workers=n, mp_context=mp)
        _pool_size = n
        return _pool


def shutdown() -> None:
    """Tear down the pool and release owned shared-memory slabs."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None
            _pool_size = 0
    release_shared()


atexit.register(shutdown)


# -- worker side -------------------------------------------------------------

#: Per-worker context cache, keyed by slab token: one snapshot is
#: attached/decoded once per worker, not once per shard task.
_CTX_CACHE: dict[str, ExecutionContext] = {}
_CTX_CACHE_CAP = 4


def _worker_context(payload: dict[str, Any]) -> ExecutionContext:
    handle = payload.get("handle")
    slabs = payload.get("slabs")
    token = handle.token if handle is not None else slabs.token
    ctx = _CTX_CACHE.get(token)
    if ctx is None:
        if handle is not None:
            slabs = load_shared(handle)
        ctx = slabs.to_context()
        _CTX_CACHE[token] = ctx
        while len(_CTX_CACHE) > _CTX_CACHE_CAP:
            _CTX_CACHE.pop(next(iter(_CTX_CACHE)))
    return ctx


def _run_shard(blob: bytes) -> bytes:
    """Run one shard in a worker process; returns a pickled result dict."""
    global _in_worker
    _in_worker = True
    payload: dict[str, Any] = pickle.loads(blob)
    from ..runtime import Budget, governed
    from ..runtime.budget import ShardToken
    from ..runtime.errors import BudgetExhausted
    from . import entry
    from .ir import kernel_backend
    from .kernels import COUNTERS, execute_pairs_keyed

    ctx = _worker_context(payload)
    dep = payload["dep"]
    mode = payload["mode"]
    if mode == "guard":
        plan = entry.guard_plan_for(dep)
    else:
        plan = entry.plan_for(dep)
    verify = entry.build_verify(mode, dep, ctx.source(), payload.get("extra"))
    restrict = payload["restrict"]
    rset: set[int] | None = None if restrict is None else set(restrict)
    shard: tuple[int, int] = tuple(payload["shard"])  # type: ignore[assignment]

    token: ShardToken | None = None
    budget: Budget | None = None
    spec = payload.get("budget")
    if spec is not None:
        token = ShardToken.attach(spec["token"])
        budget = Budget(
            deadline_s=spec["deadline_s"],
            max_memory_bytes=spec["max_memory_bytes"],
        )
        budget.bind_token(token, shard[0])
    exhausted = ""
    strategy = ""
    hits: list[tuple[Any, Any]] = []
    before = COUNTERS.snapshot()
    try:
        with kernel_backend(payload["backend"]), governed(budget):
            strategy, hits = execute_pairs_keyed(
                plan, ctx, verify, restrict=rset, shard=shard
            )
    except BudgetExhausted as exc:
        exhausted = exc.reason
    finally:
        if token is not None:
            if budget is not None:
                token.publish(shard[0], budget.candidates, budget.pairs)
            token.close()
    delta = COUNTERS.snapshot().diff(before)
    return pickle.dumps(
        {
            "hits": hits,
            "strategy": strategy,
            "counters": delta,
            "candidates": budget.candidates if budget is not None else 0,
            "pairs": budget.pairs if budget is not None else 0,
            "exhausted": exhausted,
        }
    )


# -- parent side -------------------------------------------------------------

#: Introspection record of the most recent parallel run (tests).
_last_run: dict[str, Any] | None = None


def last_run() -> dict[str, Any] | None:
    """The most recent fan-out's merge record, or ``None``."""
    return _last_run


def _expired_reason(budget: Any) -> str:
    if budget.exhausted:
        reason: str = budget.exhausted
        return reason
    if (
        budget.max_candidates is not None
        and budget.candidates >= budget.max_candidates
    ):
        return "candidates"
    if budget.max_pairs is not None and budget.pairs >= budget.max_pairs:
        return "pairs"
    return "deadline"


def execute_parallel(
    dep: Any,
    source: Any,
    *,
    mode: str,
    extra: Any = None,
    restrict: "set[int] | None" = None,
    workers: int,
) -> "list[Any] | None":
    """Fan one pair-plan execution across ``workers`` shard processes.

    Returns the merged, sorted payload list — byte-identical to the
    serial executor — or ``None`` when the fan-out cannot run here
    (no pool obtainable, unpicklable dependency/snapshot, broken
    pool), in which case the caller runs the serial path.  Raises
    :class:`BudgetExhausted` exactly like the serial path when the
    governing budget runs out, after absorbing the work the shards
    already performed.
    """
    global _last_run
    from ..runtime import current_budget
    from ..runtime.budget import ShardToken
    from .kernels import COUNTERS

    pool = _get_pool(workers)
    if pool is None:
        return None
    ctx = context_for(source)
    handle = None
    slabs = None
    try:
        handle = ctx.share()
    # staticcheck: disable=SC008 — shm sharing is an optimization; any
    # failure falls back to pickled slabs, then to the serial path.
    except Exception:
        try:
            slabs = ColumnSlabs.from_context(ctx)
        # staticcheck: disable=SC008 — unpicklable snapshot state: the
        # serial executor handles this dependency with zero loss.
        except Exception:
            return None
    base: dict[str, Any] = {
        "mode": mode,
        "dep": dep,
        "extra": extra,
        "restrict": None if restrict is None else sorted(restrict),
        "backend": kernel_backend_mode(),
        "handle": handle,
        "slabs": slabs,
    }
    budget = current_budget()
    token: ShardToken | None = None
    if budget is not None:
        budget.start()

        def headroom(cap: "int | None", spent: int) -> "int | None":
            return None if cap is None else max(0, cap - spent)

        token = ShardToken.create(
            workers,
            max_candidates=headroom(budget.max_candidates, budget.candidates),
            max_pairs=headroom(budget.max_pairs, budget.pairs),
        )
        budget.attach_token(token)
        base["budget"] = {
            "token": token.name,
            "deadline_s": budget.remaining_s(),
            "max_memory_bytes": budget.max_memory_bytes,
        }

    def release_token() -> None:
        # Idempotent: the finally below runs on *every* exit path
        # (including KeyboardInterrupt mid-merge), and the earlier
        # explicit callers must not double-close the segment.
        nonlocal token
        if token is not None:
            released, token = token, None
            if budget is not None:
                budget.detach_token(released)
            released.close()
            released.unlink()

    try:
        return _run_sharded(
            pool, base, workers, budget, token, ctx, handle, mode
        )
    finally:
        release_token()


def _run_sharded(
    pool: Any,
    base: "dict[str, Any]",
    workers: int,
    budget: Any,
    token: "ShardToken | None",
    ctx: Any,
    handle: Any,
    mode: str,
) -> "list[Any] | None":
    """Body of :func:`execute_parallel` once the shard token exists.

    The caller owns the token and releases it in a ``finally``; this
    helper may use it but never closes it.
    """
    global _last_run
    from .kernels import COUNTERS

    try:
        blobs = [
            pickle.dumps({**base, "shard": (k, workers)})
            for k in range(workers)
        ]
    # staticcheck: disable=SC008 — pickling runs no budget-governed
    # code; any failure degrades to the lossless serial path.
    except Exception:
        # Opaque predicates / custom metrics close over unpicklable
        # state; the serial path handles them with zero loss.
        return None
    try:
        futures = [pool.submit(_run_shard, blob) for blob in blobs]
        pending = set(futures)
        while pending:
            _, pending = wait(
                pending, timeout=_POLL_S, return_when=FIRST_COMPLETED
            )
            if (
                token is not None
                and budget is not None
                and not token.cancelled()
                and budget.expired()
            ):
                # Satellite contract: an exhausted parent propagates
                # *into* running shards; each worker observes the
                # cancelled token at its next checkpoint.
                token.cancel(_expired_reason(budget))
        results: list[dict[str, Any]] = [
            pickle.loads(f.result()) for f in futures
        ]
    # staticcheck: disable=SC008 — shard exhaustion travels in-band
    # (the results' 'exhausted' field), never as an exception; what
    # lands here is a crashed/killed worker, and the serial rerun
    # re-applies the budget from scratch.
    except Exception:
        # A crashed worker poisons the whole pool — rebuild lazily and
        # degrade this execution to serial (no partial merge: counters
        # from a half-collected fleet would double-count after the
        # serial rerun).
        shutdown()
        return None
    n = ctx.n
    strategy = next((r["strategy"] for r in results if r["strategy"]), "never")
    COUNTERS.executions += 1
    COUNTERS.pairs_total += n * (n - 1) // 2
    COUNTERS.note(strategy)
    for r in results:
        COUNTERS.merge(r["counters"])
    exhausted = token.cancelled() if token is not None else ""
    for r in results:
        exhausted = exhausted or r["exhausted"]
    keyed: list[tuple[Any, Any]] = []
    for r in results:
        keyed.extend(r["hits"])
    keyed.sort(key=lambda item: item[0])
    _last_run = {
        "workers": workers,
        "mode": mode,
        "strategy": strategy,
        "shards": [
            {
                "strategy": r["strategy"],
                "counters": r["counters"],
                "candidates": r["candidates"],
                "pairs": r["pairs"],
                "exhausted": r["exhausted"],
                "hits": len(r["hits"]),
            }
            for r in results
        ],
        "exhausted": exhausted,
        "shared": handle is not None,
    }
    if budget is not None:
        budget.absorb(
            sum(r["candidates"] for r in results),
            sum(r["pairs"] for r in results),
        )
        if exhausted:
            # The caller's finally releases the token before this
            # BudgetExhausted reaches anyone who could observe it.
            budget._exhaust(exhausted)
    return [payload for _, payload in keyed]
