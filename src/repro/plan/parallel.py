"""Sharded parallel execution of pair plans across forked processes.

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
  the ambient count (the execution scope's ``workers``, set by the
  CLI's ``--workers``) applies only to snapshots of at least
  :data:`MIN_ROWS` rows, so small checks stay serial;
* **transport** — none.  Each fan-out binds its job (plan, execution
  context, verify closure, shard token) in the parent and only then
  forks a fresh worker set, so the children read the parent's
  snapshot, caches and closures directly; nothing about the
  dependency or the snapshot is pickled.  Only keyed hits and counter
  deltas travel back;
* **determinism** — every shard returns *keyed* hits; the parent
  concatenates and sorts once, which is byte-identical to the serial
  executor's sort because shard keys are disjoint;
* **governance** — every fan-out creates a
  :class:`~repro.runtime.budget.ShardToken`, and each shard runs under
  a fresh :class:`Budget` bound to its token slot, carrying the
  parent's remaining deadline and memory cap (or no caps) — never the
  ambient budget the child inherited at the fork.  Shards publish
  their work into per-slot accounting (so *global* pair/candidate caps
  bite), and cancellation — from the parent's poll loop, any exhausted
  sibling, or an exception in the parent — is observed at the next
  cooperative checkpoint;
* **accounting** — each shard counts in an execution scope of its
  own; those counters come home with its hits and merge into the
  caller's scope, so its totals equal the sum of shard totals.

Fan-outs fork only from the main thread: a call from any other thread
(a server's engine and job threads included) runs serially, and so
does a nested call inside a child, which inherits the in-flight job.
A crashed child, or an error raised inside a shard, degrades to
``None`` and the entry layer runs the identical serial path.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..runtime import Budget, BudgetExhausted, current_budget, governed
from ..runtime.budget import ShardToken
from ..runtime.execution import COUNTERS, current_scope, execution
from .ir import Plan
from .kernels import execute_pairs_keyed
from .slabs import ExecutionContext, context_for

#: Ambient fan-out floor: smaller snapshots check serially.
MIN_ROWS = 2048
_POLL_S = 0.05


def resolve_workers(explicit: int | None, n_rows: int) -> int:
    """The worker count one execution should use.

    An explicit ``workers=`` argument wins outright (the caller asked);
    the ambient count applies only to snapshots of at least
    :data:`MIN_ROWS` rows, so ``repro check --workers 4`` doesn't tax
    every small rule check with process dispatch.  Inside a forked
    shard, which inherits the in-flight job, it is always 1.
    """
    if _job is not None:
        return 1
    if explicit is not None:
        return max(1, int(explicit))
    ambient = current_scope().workers
    if ambient is None or n_rows < MIN_ROWS:
        return 1
    return ambient


# -- child side --------------------------------------------------------------


@dataclass(frozen=True)
class _Job:
    """One fan-out, bound in the parent before its children fork."""

    plan: Plan
    ctx: ExecutionContext
    verify: Callable[[int, int], Any]
    restrict: set[int] | None
    workers: int
    token: ShardToken
    deadline_s: float | None
    max_memory_bytes: int | None


#: The fan-out in flight; forked children inherit it.
_job: _Job | None = None


def _init_child() -> None:
    """Runs once in each forked child, before its first shard."""
    # Another parent thread may have held the root counters' lock at
    # the fork; that thread does not exist here to release it.
    COUNTERS._lock = threading.Lock()


def _run_shard(k: int) -> dict[str, Any]:
    """Run shard ``k`` of the inherited job in a forked child."""
    job = _job
    assert job is not None, "shards run only in children of a fan-out"
    budget = Budget(
        deadline_s=job.deadline_s, max_memory_bytes=job.max_memory_bytes
    ).bind_token(job.token, k)
    exhausted = strategy = ""
    hits: list[tuple[Any, Any]] = []
    try:
        with governed(budget), execution() as scope:
            strategy, hits = execute_pairs_keyed(
                job.plan, job.ctx, job.verify,
                restrict=job.restrict, shard=(k, job.workers),
            )
    except BudgetExhausted as exc:
        exhausted = exc.reason
    job.token.publish(k, budget.candidates, budget.pairs)
    return {
        "hits": hits,
        "strategy": strategy,
        "counters": scope.counters.snapshot(),
        "candidates": budget.candidates,
        "pairs": budget.pairs,
        "exhausted": exhausted,
    }


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
    plan: Plan,
    source: Any,
    verify: Callable[[int, int], Any],
    *,
    restrict: "set[int] | None" = None,
    workers: int,
) -> "list[Any] | None":
    """Fan one pair-plan execution across ``workers`` forked shards.

    Returns the merged, sorted payload list — byte-identical to the
    serial executor — or ``None`` when the fan-out cannot run here
    (off the main thread, a crashed child, an error inside a shard),
    in which case the caller runs the serial path.  Raises
    :class:`BudgetExhausted` exactly like the serial path when the
    governing budget runs out, after absorbing the work the shards
    already performed.
    """
    global _job
    if threading.current_thread() is not threading.main_thread():
        return None
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_child,
    )
    budget = current_budget()
    if budget is None:
        token = ShardToken.create(workers)
        limits: "tuple[float | None, int | None]" = (None, None)
    else:
        budget.start()
        token = ShardToken.create(
            workers,
            max_candidates=_headroom(budget.max_candidates, budget.candidates),
            max_pairs=_headroom(budget.max_pairs, budget.pairs),
        )
        limits = (budget.remaining_s(), budget.max_memory_bytes)
    try:
        if budget is not None:
            budget.attach_token(token)
        _job = _Job(
            plan, context_for(source), verify, restrict, workers, token,
            *limits,
        )
        results = _collect(pool, workers, budget, token)
        exhausted = token.cancelled()
    except BaseException:
        # Stop the running shards; the finally then joins them.
        token.cancel()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _job = None
        if budget is not None:
            budget.detach_token(token)
        token.close()
    if results is None:
        return None
    return _merge(results, len(source), workers, budget, exhausted)


def _headroom(cap: "int | None", spent: int) -> "int | None":
    return None if cap is None else max(0, cap - spent)


def _collect(
    pool: ProcessPoolExecutor,
    workers: int,
    budget: "Budget | None",
    token: ShardToken,
) -> "list[dict[str, Any]] | None":
    """Submit every shard, poll the parent budget, gather the results.

    Forks the children at the first ``submit``.  Returns ``None`` when
    a child crashed or a shard raised.
    """
    futures = [pool.submit(_run_shard, k) for k in range(workers)]
    pending = set(futures)
    while pending:
        _, pending = wait(
            pending, timeout=_POLL_S, return_when=FIRST_COMPLETED
        )
        if (
            budget is not None
            and not token.cancelled()
            and budget.expired()
        ):
            # An exhausted parent propagates *into* running shards;
            # each child observes the cancelled token at its next
            # checkpoint.
            token.cancel(_expired_reason(budget))
    try:
        return [f.result() for f in futures]
    # staticcheck: disable=SC008 — shard exhaustion travels in-band
    # (the results' 'exhausted' field), never as an exception; what
    # lands here is a crashed child or an error raised inside a shard,
    # and the serial rerun reproduces either exactly.
    except Exception:
        return None


def _merge(
    results: "list[dict[str, Any]]",
    n: int,
    workers: int,
    budget: "Budget | None",
    exhausted: str,
) -> "list[Any]":
    """Fold shard results into one serial-identical payload list."""
    global _last_run
    strategy = next((r["strategy"] for r in results if r["strategy"]), "never")
    counters = current_scope().counters
    counters.executions += 1
    counters.pairs_total += n * (n - 1) // 2
    counters.note(strategy)
    for r in results:
        counters.merge(r["counters"])
    for r in results:
        exhausted = exhausted or r["exhausted"]
    keyed: list[tuple[Any, Any]] = []
    for r in results:
        keyed.extend(r["hits"])
    keyed.sort(key=lambda item: item[0])
    _last_run = {
        "workers": workers,
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
    }
    if budget is not None:
        budget.absorb(
            sum(r["candidates"] for r in results),
            sum(r["pairs"] for r in results),
        )
        if exhausted:
            budget._exhaust(exhausted)
    return [payload for _, payload in keyed]
