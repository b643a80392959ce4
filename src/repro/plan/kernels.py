"""Pruned evaluation kernels for compiled plans.

One executor replaces every per-class scan loop.  The kernels exploit
the atom structure of a plan to *generate candidate pairs* — a sound
over-approximation of the violating pairs — and re-check every
candidate with a ``verify`` callback supplied by the caller (the
notation's own definitional predicate).  Pruning therefore never
changes semantics: results are exactly those of an all-pairs scan of
the notation's predicate, obtained by examining far fewer pairs.

Kernels are **engine-neutral**: they consume an
:class:`~repro.plan.slabs.ExecutionContext` (an immutable column-slab
view of one snapshot) plus a :class:`~repro.plan.ir.Plan` — never a
live substrate handle.  ``verify`` receives bare row indices
``(p, q)``; whatever it needs to re-check a pair is closed over by the
entry-point layer (:mod:`repro.plan.entry`), which is also where the
notation-facing API lives.

Strategies, in priority order:

* **group-partition** — shared equality atoms restrict candidates to
  the equal-value partition groups of the context (FDs, MFDs, MDs
  embedded from FDs, equality DCs);
* **sorted-sweep** — a shared order atom sorts the snapshot once; each
  clause's order consequent becomes a bisect range query over the
  already-seen prefix ("ABC of Order Dependencies"-style; ODs, OFDs,
  order DCs);
* **metric-blocking** — a shared metric atom buckets rows by value and
  accepts only bucket pairs whose representative distance lands in the
  atom's interval, with a sorted + bisect fast path for ``abs_diff``
  (NEDs, DDs, MDs, PACs);
* **pair-scan** — the all-pairs fallback (CDs, FFDs, opaque atoms).

Each strategy additionally has a *vectorized* twin in
:mod:`repro.plan.kernels_vec` that evaluates whole clauses as batch
numpy operations over the encoded columns (strategy names prefixed
``vec-``).  ``execute_pairs``/``execute_rows`` route per plan and
context: the vectorized backend is chosen when the execution scope's
backend allows it, numpy and the encoding layer are available, every
atom is vectorizable, and the snapshot is large enough to amortize
array setup — otherwise the scalar kernels below run unchanged.  Work
is counted into the scope's :class:`KernelCounters`.

Every candidate generator accepts a ``shard=(k, m)`` selector that
keeps only the candidates whose *owner index* (partition group, metric
bucket, sweep position, scan anchor, streamed block) is congruent to
``k`` mod ``m``.  Shards of the same execution partition the candidate
space exactly — the union over ``k`` is the unsharded candidate set,
pair for pair — which is what lets :mod:`repro.plan.parallel` fan one
execution out across worker processes and merge deterministically.

All kernels charge examined pairs to the ambient
:func:`repro.runtime.checkpoint` in batches, so ``max_pairs`` caps and
deadlines apply *inside* the evaluation — a :class:`BudgetExhausted`
escapes to the entry point, which reports honest partial results.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from ..runtime import checkpoint
# COUNTERS is re-exported: the root scope's counters, the process totals.
from ..runtime.execution import COUNTERS as COUNTERS, current_scope
from .ir import ORDER_OPS, CmpAtom, MetricAtom, Plan
from .slabs import ExecutionContext

#: Pairs charged to the budget per checkpoint call.
_BATCH = 256

#: Below this row count the ``auto`` backend stays scalar: array setup
#: costs more than the handful of Python probes it would replace.
_VEC_MIN_ROWS = 256

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: ``(k, m)`` shard selector — keep owner indices ≡ k (mod m) — or
#: ``None`` for the whole candidate space.
Shard = "tuple[int, int] | None"


def _owned(shard: tuple[int, int] | None, index: int) -> bool:
    return shard is None or index % shard[1] == shard[0]


# -- strategy selection ------------------------------------------------------


def _shared_equality_attrs(plan: Plan) -> tuple[str, ...]:
    """Attributes pinned equal across the pair by every clause."""
    out = []
    for a in plan.shared_atoms():
        if (
            isinstance(a, CmpAtom)
            and not a.negated
            and a.cross_tuple
            and a.op == "="
            and a.lhs_attr == a.rhs_attr
        ):
            out.append(a.lhs_attr)
    return tuple(dict.fromkeys(out))


def _shared_metric_atom(plan: Plan) -> MetricAtom | None:
    for a in plan.shared_atoms():
        if isinstance(a, MetricAtom) and not a.negated:
            return a
    return None


def _is_order_cmp(atom: Any, *, allow_negated: bool) -> bool:
    return (
        isinstance(atom, CmpAtom)
        and atom.semantics == "sql"
        and atom.cross_tuple
        and atom.op in ORDER_OPS
        and (allow_negated or not atom.negated)
    )


def _sweep_struct(plan: Plan) -> Any:
    """Structural sweep eligibility: (guard, prior_is_alpha, consequents).

    The guard is a shared, non-negated, same-attribute order atom; every
    clause must additionally contain one order atom usable as a bisect
    range query (residual atoms are left to ``verify``).
    """
    if plan.arity != 2:
        return None
    shared = plan.shared_atoms()
    guard = next(
        (
            a
            for a in shared
            if _is_order_cmp(a, allow_negated=False)
            and a.lhs_attr == a.rhs_attr
        ),
        None,
    )
    if guard is None:
        return None
    shared_ids = {id(a) for a in shared}
    consequents = []
    for clause in plan.clauses:
        if len(plan.clauses) == 1:
            residual = [a for a in clause.atoms if a is not guard]
        else:
            residual = [a for a in clause.atoms if id(a) not in shared_ids]
        cons = next(
            (a for a in residual if _is_order_cmp(a, allow_negated=True)),
            None,
        )
        if cons is None:
            # A clause without an order consequent would fire for every
            # guard-true pair — no pruning; don't bother sweeping.
            return None
        consequents.append(cons)
    return guard, guard.op in ("<", "<="), consequents


def _value_ok(v: Any, kind: str) -> bool:
    """Whether a cell participates in sorted structures of ``kind``."""
    if v is None:
        return False
    if kind == "num":
        if isinstance(v, bool):
            return True
        if isinstance(v, (int, float)):
            return not (isinstance(v, float) and math.isnan(v))
        return False
    if kind == "str":
        return isinstance(v, str)
    return False


@dataclass
class _SweepSpec:
    sort_attr: str
    sort_kind: str
    strict: bool
    prior_is_alpha: bool
    #: per clause: (store_attr, query_attr, effective_op, negated, kind)
    clauses: list[tuple[str, str, str, bool, str]]


def _sweep_spec(struct: Any, ctx: ExecutionContext) -> _SweepSpec | None:
    guard, prior_is_alpha, consequents = struct
    sort_kind = ctx.column_kind(guard.lhs_attr)
    if sort_kind == "unsortable":
        return None
    clause_specs: list[tuple[str, str, str, bool, str]] = []
    for cons in consequents:
        if prior_is_alpha:
            # Guard α.A <= β.A: the already-seen rows play α — store
            # their α-side value, query with the current row's β-side.
            store_attr, query_attr = cons.lhs_attr, cons.rhs_attr
            eff_op = cons.op
        else:
            store_attr, query_attr = cons.rhs_attr, cons.lhs_attr
            eff_op = _FLIP[cons.op]
        store_kind = ctx.column_kind(store_attr)
        query_kind = ctx.column_kind(query_attr)
        if "unsortable" in (store_kind, query_kind):
            return None
        if "empty" not in (store_kind, query_kind) and store_kind != query_kind:
            # Cross-kind comparisons are SQL-false everywhere; scanning
            # is simpler than modelling that.
            return None
        kind = store_kind if store_kind != "empty" else query_kind
        clause_specs.append(
            (store_attr, query_attr, eff_op, cons.negated, kind)
        )
    return _SweepSpec(
        guard.lhs_attr,
        sort_kind,
        guard.op in ("<", ">"),
        prior_is_alpha,
        clause_specs,
    )


def strategy_hint(plan: Plan) -> str:
    """The kernel a plan would select (static; used by ``repro plan``)."""
    if plan.arity == 1:
        return "row-scan"
    if _shared_equality_attrs(plan):
        return "group-partition"
    if _sweep_struct(plan) is not None:
        return "sorted-sweep"
    if _shared_metric_atom(plan) is not None:
        return "metric-blocking"
    return "pair-scan"


# -- candidate generators ----------------------------------------------------


def _iter_scan_pairs(
    n: int,
    restrict: set[int] | None,
    shard: tuple[int, int] | None = None,
) -> Iterator[tuple[int, int]]:
    if restrict is None:
        for i in range(n):
            if not _owned(shard, i):
                continue
            for j in range(i + 1, n):
                yield i, j
        return
    for k, t in enumerate(sorted(restrict)):
        if not _owned(shard, k):
            continue
        for u in range(n):
            if u == t or (u in restrict and u < t):
                continue
            yield (t, u) if t < u else (u, t)


def _iter_group_pairs(
    ctx: ExecutionContext,
    attrs: tuple[str, ...],
    restrict: set[int] | None,
    shard: tuple[int, int] | None = None,
) -> Iterator[tuple[int, int]]:
    try:
        groups = ctx.group_rows(attrs)
    except TypeError:
        # Unhashable values can't be partitioned; scan instead.
        yield from _iter_scan_pairs(ctx.n, restrict, shard)
        return
    for g, indices in enumerate(groups):
        if len(indices) < 2 or not _owned(shard, g):
            continue
        if restrict is not None and restrict.isdisjoint(indices):
            continue
        for a in range(len(indices)):
            p = indices[a]
            for b in range(a + 1, len(indices)):
                q = indices[b]
                if restrict is not None and p not in restrict and q not in restrict:
                    continue
                yield (p, q) if p < q else (q, p)


def _iter_metric_pairs(
    ctx: ExecutionContext,
    atom: MetricAtom,
    restrict: set[int] | None,
    shard: tuple[int, int] | None = None,
) -> Iterator[tuple[int, int]]:
    n = ctx.n
    col = ctx.column(atom.attribute)
    # Bucket by (type, repr), not by the raw value: dict ``==`` collapse
    # (True == 1 == 1.0) is not metric-safe — collapsed values can sit
    # at different distances from a third value (str-based metrics see
    # "True" vs "1.0").  repr-equal same-type values are
    # indistinguishable to any deterministic metric, so each bucket has
    # one well-defined representative; all NaNs share a bucket.
    buckets: dict[Any, tuple[Any, list[int]]] = {}
    for r in range(n):
        v = col[r]
        key = (type(v), repr(v))
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = (v, [r])
        else:
            entry[1].append(r)
    metric = atom.resolve_metric(ctx)
    reps = list(buckets.values())
    m = len(reps)

    def expand(rows_u: list[int], rows_v: list[int]) -> Iterator[tuple[int, int]]:
        for p in rows_u:
            for q in rows_v:
                if restrict is not None and p not in restrict and q not in restrict:
                    continue
                yield (p, q) if p < q else (q, p)

    def expand_self(rows_u: list[int]) -> Iterator[tuple[int, int]]:
        for a in range(len(rows_u)):
            p = rows_u[a]
            for b in range(a + 1, len(rows_u)):
                q = rows_u[b]
                if restrict is not None and p not in restrict and q not in restrict:
                    continue
                yield (p, q) if p < q else (q, p)

    numeric = metric.name == "abs_diff" and all(
        _value_ok(u, "num") for u, _ in reps
    )
    if numeric:
        # Value-sorted blocking: partners of u lie in the window
        # u + [low, high] (one side only — u <= v avoids double visits).
        reps.sort(key=lambda item: item[0])
        values = [u for u, _ in reps]
        iv = atom.interval
        low, high = iv.low, iv.high
        if atom.semantics == "within":
            low, high = 0.0, iv.high
        since_poll = 0
        for idx, (u, rows_u) in enumerate(reps):
            if not _owned(shard, idx):
                continue
            # Buckets whose window is empty yield nothing, so the
            # consumer never charges them; poll the budget directly so
            # deadlines and shard cancellation still bite.
            since_poll += 1
            if since_poll >= _BATCH:
                since_poll = 0
                checkpoint()
            if len(rows_u) > 1 and atom.accepts_distance(
                metric.distance(u, u)
            ):
                yield from expand_self(rows_u)
            lo_bound = u + low
            start = (
                bisect_right(values, lo_bound)
                if iv.low_open and atom.semantics != "within"
                else bisect_left(values, lo_bound)
            )
            if high == math.inf:
                end = m
            else:
                hi_bound = u + high
                end = (
                    bisect_left(values, hi_bound)
                    if iv.high_open
                    else bisect_right(values, hi_bound)
                )
            for k in range(max(start, idx + 1), end):
                yield from expand(rows_u, reps[k][1])
        return

    # Generic blocking: compare bucket representatives; only profitable
    # when there are far fewer distinct values than rows.
    if m * (m - 1) // 2 + m > n * (n - 1) // 2:
        yield from _iter_scan_pairs(n, restrict, shard)
        return
    since_poll = 0
    for a in range(m):
        if not _owned(shard, a):
            continue
        u, rows_u = reps[a]
        if len(rows_u) > 1 and atom.accepts_distance(metric.distance(u, u)):
            yield from expand_self(rows_u)
        for b in range(a + 1, m):
            # Rejected representative pairs are pure uncharged work
            # (distance computed, nothing yielded); poll per batch.
            since_poll += 1
            if since_poll >= _BATCH:
                since_poll = 0
                checkpoint()
            v, rows_v = reps[b]
            if atom.accepts_distance(metric.distance(u, v)):
                yield from expand(rows_u, rows_v)


def _iter_sweep_pairs(
    ctx: ExecutionContext,
    spec: _SweepSpec,
    shard: tuple[int, int] | None = None,
) -> Iterator[tuple[int, int]]:
    n = ctx.n
    sort_col = ctx.column(spec.sort_attr)
    rows = [r for r in range(n) if _value_ok(sort_col[r], spec.sort_kind)]
    rows.sort(key=lambda r: sort_col[r])
    store_cols = [ctx.column(s[0]) for s in spec.clauses]
    query_cols = [ctx.column(s[1]) for s in spec.clauses]
    # Per clause: sorted [(store_value, row)] plus the rows whose store
    # value is undefined (None/NaN) — SQL-false operands, so they fire
    # exactly the *negated* consequents.
    sorted_vals: list[list[tuple[Any, int]]] = [[] for _ in spec.clauses]
    bad_rows: list[list[int]] = [[] for _ in spec.clauses]
    prior_rows: list[int] = []

    # Sharding: a pair is owned by the sweep position of its *later*
    # row (the tie-block partner / the querying row), so shards of one
    # sweep partition the pair space while every shard still feeds all
    # rows through the sorted store structures.
    i = 0
    since_poll = 0
    while i < len(rows):
        v0 = sort_col[rows[i]]
        j = i
        while j < len(rows) and sort_col[rows[j]] == v0:
            j += 1
        block = rows[i:j]
        # A sweep over violation-free data yields nothing, so the
        # consumer never charges it; poll the budget per block batch so
        # deadlines and shard cancellation still interrupt the sweep.
        since_poll += len(block)
        if since_poll >= _BATCH:
            since_poll = 0
            checkpoint()
        if not spec.strict and len(block) > 1:
            # Non-strict guard: equal sort values satisfy the guard in
            # both orientations — brute-force the tie block.
            for b in range(1, len(block)):
                if not _owned(shard, i + b):
                    continue
                q = block[b]
                for a in range(b):
                    p = block[a]
                    yield (p, q) if p < q else (q, p)
        if prior_rows:
            for off, r in enumerate(block):
                if not _owned(shard, i + off):
                    continue
                fired: set[int] = set()
                for c, (_, _, eff_op, negated, kind) in enumerate(
                    spec.clauses
                ):
                    v = query_cols[c][r]
                    vals = sorted_vals[c]
                    if not _value_ok(v, kind):
                        if negated:
                            # Undefined comparison: ¬(x op v) is true
                            # for every stored x.
                            fired.update(prior_rows)
                        continue
                    lo = (v, -1)
                    hi = (v, n)
                    if not negated:
                        if eff_op == "<":
                            sl = vals[: bisect_left(vals, lo)]
                        elif eff_op == "<=":
                            sl = vals[: bisect_right(vals, hi)]
                        elif eff_op == ">":
                            sl = vals[bisect_right(vals, hi):]
                        else:
                            sl = vals[bisect_left(vals, lo):]
                    else:
                        if eff_op == "<":
                            sl = vals[bisect_left(vals, lo):]
                        elif eff_op == "<=":
                            sl = vals[bisect_right(vals, hi):]
                        elif eff_op == ">":
                            sl = vals[: bisect_right(vals, hi)]
                        else:
                            sl = vals[: bisect_left(vals, lo)]
                        fired.update(bad_rows[c])
                    fired.update(row for _, row in sl)
                    if len(fired) == len(prior_rows):
                        break
                for p in fired:
                    yield (p, r) if p < r else (r, p)
        for r in block:
            prior_rows.append(r)
            for c, (_, _, _, _, kind) in enumerate(spec.clauses):
                x = store_cols[c][r]
                if _value_ok(x, kind):
                    insort(sorted_vals[c], (x, r))
                else:
                    bad_rows[c].append(r)
        i = j


# -- executors ---------------------------------------------------------------

PairVerify = Callable[[int, int], "tuple[Any, Any] | None"]
RowVerify = Callable[[int], "tuple[Any, Any] | None"]


def _vector_binding(plan: Plan, ctx: ExecutionContext) -> Any | None:
    """The bound vectorized plan, or ``None`` for the scalar path.

    Routing order: the execution scope's backend (``scalar`` never
    vectorizes; ``auto`` additionally requires ``_VEC_MIN_ROWS`` rows),
    the plan's static per-atom vectorizability, and finally
    :func:`kernels_vec.bind`'s dynamic per-context checks (column
    representability, metric identity).
    """
    mode = current_scope().backend
    if mode == "scalar":
        return None
    if not plan.vector_eligible:
        return None
    if mode == "auto" and ctx.n < _VEC_MIN_ROWS:
        return None
    from . import kernels_vec

    return kernels_vec.bind(plan, ctx)


def _candidates(
    plan: Plan,
    ctx: ExecutionContext,
    restrict: set[int] | None,
    shard: tuple[int, int] | None,
) -> tuple[str, Iterable[tuple[int, int]]]:
    eq_attrs = _shared_equality_attrs(plan)
    if eq_attrs:
        return "group", _iter_group_pairs(ctx, eq_attrs, restrict, shard)
    if restrict is None:
        struct = _sweep_struct(plan)
        if struct is not None:
            spec = _sweep_spec(struct, ctx)
            if spec is not None:
                return "sweep", _iter_sweep_pairs(ctx, spec, shard)
    atom = _shared_metric_atom(plan)
    if atom is not None:
        return "metric", _iter_metric_pairs(ctx, atom, restrict, shard)
    return "scan", _iter_scan_pairs(ctx.n, restrict, shard)


def execute_pairs_keyed(
    plan: Plan,
    ctx: ExecutionContext,
    verify: PairVerify,
    *,
    restrict: set[int] | None = None,
    first_only: bool = False,
    shard: tuple[int, int] | None = None,
) -> tuple[str, list[tuple[Any, Any]]]:
    """Run a pair plan; return ``(strategy, unsorted keyed hits)``.

    The building block of both the serial executor (:func:`execute_pairs`
    sorts the hits) and the sharded one (:mod:`repro.plan.parallel`
    concatenates every shard's hits and sorts once).  With a ``shard``
    the per-execution bookkeeping (execution count, total pair space,
    strategy note) is suppressed — the shard *owner* records it exactly
    once — while per-pair work (pairs examined, candidate/verified
    volume, budget checkpoints) is recorded normally and sums across
    shards to the unsharded totals.
    """
    n = ctx.n
    root = shard is None
    counters = current_scope().counters
    if root:
        counters.executions += 1
        counters.pairs_total += n * (n - 1) // 2
    if plan.never:
        # Static analysis proved no clause can fire — nothing to scan.
        if root:
            counters.note("never")
        return "never", []
    vp = _vector_binding(plan, ctx)
    hits: list[tuple[Any, Any]]
    if vp is not None:
        from . import kernels_vec

        strategy = f"vec-{vp.strategy}"
        if root:
            counters.note(strategy)
        examined = counters.pairs_examined
        hits = kernels_vec.run_pairs(
            vp, verify, restrict=restrict, first_only=first_only,
            shard=shard,
        )
        counters.note_work(
            strategy,
            candidates=counters.pairs_examined - examined,
            verified=len(hits),
        )
        return strategy, hits
    strategy, candidates = _candidates(plan, ctx, restrict, shard)
    if root:
        counters.note(strategy)
    hits = []
    pending = 0
    examined = 0
    for p, q in candidates:
        pending += 1
        if pending >= _BATCH:
            counters.pairs_examined += pending
            examined += pending
            checkpoint(pairs=pending)
            pending = 0
        hit = verify(p, q)
        if hit is not None:
            hits.append(hit)
            if first_only:
                break
    counters.pairs_examined += pending
    examined += pending
    checkpoint(pairs=pending)
    counters.note_work(strategy, candidates=examined, verified=len(hits))
    return strategy, hits


def execute_pairs(
    plan: Plan,
    ctx: ExecutionContext,
    verify: PairVerify,
    *,
    restrict: set[int] | None = None,
    first_only: bool = False,
) -> list[Any]:
    """Run a pair plan; return verified payloads in all-pairs scan order.

    ``verify(p, q)`` (p < q) re-checks a candidate with the notation's
    own predicate and returns ``(sort_key, payload)`` or ``None``.
    ``restrict`` keeps only candidates touching the given rows (the
    incremental re-probe).  ``first_only`` short-circuits on the first
    verified hit (``holds``-style queries).
    """
    _, hits = execute_pairs_keyed(
        plan, ctx, verify, restrict=restrict, first_only=first_only
    )
    hits.sort(key=lambda item: item[0])
    return [payload for _, payload in hits]


def execute_rows(
    plan: Plan,
    ctx: ExecutionContext,
    verify: RowVerify,
    *,
    restrict: set[int] | None = None,
    first_only: bool = False,
) -> list[Any]:
    """Run a single-tuple (arity-1) plan over rows."""
    counters = current_scope().counters
    counters.executions += 1
    if plan.never:
        counters.note("never")
        return []
    vp = _vector_binding(plan, ctx)
    hits: list[tuple[Any, Any]]
    if vp is not None:
        from . import kernels_vec

        counters.note("vec-rows")
        hits = kernels_vec.run_rows(
            vp, verify, restrict=restrict, first_only=first_only
        )
        counters.note_work("vec-rows", verified=len(hits))
        hits.sort(key=lambda item: item[0])
        return [payload for _, payload in hits]
    counters.note("rows")
    rows: Iterable[int] = (
        sorted(restrict) if restrict is not None else range(ctx.n)
    )
    hits = []
    pending = 0
    for r in rows:
        pending += 1
        if pending >= _BATCH:
            checkpoint()
            pending = 0
        hit = verify(r)
        if hit is not None:
            hits.append(hit)
            if first_only:
                break
    checkpoint()
    counters.note_work("rows", verified=len(hits))
    hits.sort(key=lambda item: item[0])
    return [payload for _, payload in hits]
