"""Vectorized columnar kernels: whole-clause evaluation as array ops.

The scalar kernels in :mod:`repro.plan.kernels` prune the pair space
well but still refine every candidate one pair at a time through a
Python ``verify`` callback.  This module evaluates whole deny-form
clauses as batch numpy operations over the dictionary-encoded column
slabs exposed by an :class:`~repro.plan.slabs.ExecutionContext`:

* equality / inequality atoms become code-column comparisons on
  candidate index arrays (with per-code lookup tables for the SQL
  self-comparison corner cases — NaN, ``None``);
* order and interval atoms become float-column comparisons and
  ``searchsorted`` windows over the context's cached sorted
  projections;
* metric atoms (``abs_diff``) become blocked arithmetic with explicit
  ``None``/NaN class corrections mirroring :meth:`Metric.distance`.

The result of the clause masks is a *violation index array*; the
notation's ``verify`` callback is invoked only for the pairs that
survive every mask, so it runs O(violations) times instead of
O(candidates) times.  Semantics are unchanged: every atom's batch
evaluation reproduces its scalar ``eval`` bit-for-bit, and the parity
suites (``test_plan_parity``, ``test_vector_parity``) drive the scalar
and vectorized kernels to reports identical to the all-pairs reference
scans of ``tests/oracles.py``.

Binding is *dynamic*: :func:`bind` returns ``None`` whenever any atom
of the plan cannot be vectorized for this context (opaque predicates,
non-numeric order columns, exotic metrics, unhashable cells), and the
caller falls back to the scalar kernels.  Candidate generation streams
index blocks of at most :data:`_CHUNK` pairs, charging each block to
the ambient budget ``checkpoint`` so deadlines and ``max_pairs`` caps
still bite mid-batch.

The streamed blocks double as the **shard unit** for the parallel
executor: block generation is deterministic for a given (plan, slabs)
pair, so ``shard=(k, m)`` simply keeps every m-th block — shards
partition the candidate pair space exactly, and the merged results are
byte-identical to a single-process run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from ..runtime import checkpoint
from ..runtime.errors import BudgetExhausted
from ..runtime.execution import current_scope
from .ir import (
    CmpAtom,
    ConstAtom,
    MetricAtom,
    NotNullAtom,
    PatternAtom,
    Plan,
    _sql_compare,
)
from .slabs import ExecutionContext

#: Candidate pairs per streamed block (and per budget checkpoint).
_CHUNK = 1 << 16
#: Bind-time cap on the sweep kernel's inner work (candidate rows x
#: prefix lengths); beyond it the scalar sweep is the better engine.
_SWEEP_WORK_CAP = 1 << 26

_Arr = Any  # numpy ndarray (kept opaque: numpy is an optional dep)
_AtomFn = Callable[[_Arr, _Arr], _Arr]
_BlockIter = Iterator[tuple[_Arr, _Arr]]

_NP_OPS: dict[str, Any] = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


# -- column data -------------------------------------------------------------


class _Col:
    """Per-column kernel arrays: codes, float projection, validity."""

    __slots__ = ("codes", "floats", "valid", "values", "name")

    def __init__(
        self, codes: _Arr, floats: _Arr | None, valid: _Arr,
        values: list[Any], name: str,
    ) -> None:
        self.codes = codes
        self.floats = floats
        self.valid = valid
        self.values = values
        self.name = name


def _gather_columns(
    ctx: ExecutionContext, attrs: set[str]
) -> dict[str, _Col] | None:
    out: dict[str, _Col] = {}
    for a in attrs:
        try:
            codes, floats, valid = ctx.gather(a)
            values = ctx.distinct_values(a)
        except BudgetExhausted:
            raise  # exhaustion must propagate, never degrade to scalar
        except Exception:
            # Unknown attribute (SchemaError) or unhashable cells
            # (TypeError from the codebook build): not encodable.
            return None
        out[a] = _Col(codes, floats, valid, values, a)
    return out


def _lut(col: _Col, fn: Callable[[Any], bool]) -> _Arr:
    """Per-distinct-value truth table, indexed by dictionary code."""
    return np.fromiter(
        (bool(fn(v)) for v in col.values), dtype=bool, count=len(col.values)
    )


# -- atom binding ------------------------------------------------------------


def _bind_cmp(atom: CmpAtom, cols: dict[str, _Col]) -> _AtomFn | None:
    lhs, rhs = cols[atom.lhs_attr], cols[atom.rhs_attr]
    neg = atom.negated
    from .ir import ALPHA

    lhs_alpha = atom.lhs_var == ALPHA
    rhs_alpha = atom.rhs_var == ALPHA

    if atom.semantics == "py":
        # py "=" is the 1-tuple identity-shortcut equality — exactly the
        # dictionary-code equivalence, so code comparison is exact.
        if atom.lhs_attr != atom.rhs_attr:
            return None
        c = lhs.codes

        def eval_py(p: _Arr, q: _Arr) -> _Arr:
            m = c[p if lhs_alpha else q] == c[p if rhs_alpha else q]
            return ~m if neg else m

        return eval_py

    if atom.lhs_attr == atom.rhs_attr and atom.op in ("=", "!="):
        # Same-column SQL (in)equality via codes.  Equal codes mean
        # dict-equal values; the per-code LUT supplies the SQL
        # self-comparison (False for None and NaN under "=",
        # True for NaN under "!=").
        c = lhs.codes
        if atom.op == "=":
            self_eq = _lut(lhs, lambda v: _sql_compare("=", v, v))

            def eval_eq(p: _Arr, q: _Arr) -> _Arr:
                lc = c[p if lhs_alpha else q]
                m = (lc == c[p if rhs_alpha else q]) & self_eq[lc]
                return ~m if neg else m

            return eval_eq
        self_ne = _lut(lhs, lambda v: _sql_compare("!=", v, v))
        valid = lhs.valid

        def eval_ne(p: _Arr, q: _Arr) -> _Arr:
            lp = p if lhs_alpha else q
            rp = p if rhs_alpha else q
            lc, rc = c[lp], c[rp]
            m = valid[lp] & valid[rp] & ((lc != rc) | self_ne[lc])
            return ~m if neg else m

        return eval_ne

    # Cross-column or order comparison: needs exact float projections.
    if lhs.floats is None or rhs.floats is None:
        return None
    fl, fr = lhs.floats, rhs.floats
    if atom.op == "!=":
        # numpy NaN != x is True, but SQL None never compares — mask the
        # None cells explicitly (actual NaN cells must keep numpy's
        # answer, which matches Python's).
        vl, vr = lhs.valid, rhs.valid

        def eval_fne(p: _Arr, q: _Arr) -> _Arr:
            lp = p if lhs_alpha else q
            rp = p if rhs_alpha else q
            m = vl[lp] & vr[rp] & (fl[lp] != fr[rp])
            return ~m if neg else m

        return eval_fne
    op = _NP_OPS[atom.op]

    def eval_f(p: _Arr, q: _Arr) -> _Arr:
        # NaN (and the None -> NaN projection) compares False under
        # every remaining operator — the SQL rule, for free.
        m = op(fl[p if lhs_alpha else q], fr[p if rhs_alpha else q])
        return ~m if neg else m

    return eval_f


def _bind_const(atom: ConstAtom, cols: dict[str, _Col]) -> _AtomFn:
    from .ir import ALPHA

    col = cols[atom.attr]
    lut = _lut(
        col, lambda v: _sql_compare(atom.op, v, atom.constant)
    )
    if atom.negated:
        lut = ~lut
    c = col.codes
    if atom.var == ALPHA:
        return lambda p, q: lut[c[p]]
    return lambda p, q: lut[c[q]]


def _bind_pattern(atom: PatternAtom, cols: dict[str, _Col]) -> _AtomFn | None:
    from .ir import ALPHA

    col = cols[atom.attr]
    try:
        lut = _lut(col, atom.entry.matches)
    except BudgetExhausted:
        raise  # exhaustion must propagate, never degrade to scalar
    except Exception:
        return None
    c = col.codes
    if atom.var == ALPHA:
        return lambda p, q: lut[c[p]]
    return lambda p, q: lut[c[q]]


def _bind_notnull(atom: NotNullAtom, cols: dict[str, _Col]) -> _AtomFn:
    valids = [cols[a].valid for a in atom.attrs]

    def eval_nn(p: _Arr, q: _Arr) -> _Arr:
        m = np.ones(len(p), dtype=bool)
        for v in valids:
            m &= v[p] & v[q]
        return m

    return eval_nn


def _bind_metric(
    atom: MetricAtom, ctx: ExecutionContext, cols: dict[str, _Col]
) -> _AtomFn | None:
    from ..metrics.numeric import ABS_DIFF

    try:
        metric = atom.resolve_metric(ctx)
    except BudgetExhausted:
        raise  # exhaustion must propagate, never degrade to scalar
    except Exception:
        return None
    if metric is not ABS_DIFF:
        # Only the numeric distance has a known batch form; text and
        # custom metrics stay on the scalar path.
        return None
    col = cols[atom.attribute]
    if col.floats is None:
        return None
    f, valid = col.floats, col.valid
    neg = atom.negated
    within = atom.semantics == "within"
    iv = atom.interval
    low, high = float(iv.low), float(iv.high)
    low_open, high_open = bool(iv.low_open), bool(iv.high_open)

    def eval_metric(p: _Arr, q: _Arr) -> _Arr:
        with np.errstate(invalid="ignore"):
            d = np.abs(f[p] - f[q])
        # Metric.distance None rules: d(None, None) = 0, one-sided = inf
        # (the float projection turns None into NaN, which would
        # otherwise contaminate the arithmetic).
        vp, vq = valid[p], valid[q]
        both_none = ~vp & ~vq
        one_none = vp ^ vq
        if both_none.any():
            d = np.where(both_none, 0.0, d)
        if one_none.any():
            d = np.where(one_none, np.inf, d)
        if within:
            # NaN <= high is False: NaN distances are not "within".
            m = d <= high
        else:
            # Interval.contains as a negated-outside test, so a NaN
            # distance (all comparisons False) lands *inside*.
            bad = (d < low) | (d > high)
            if low_open:
                bad |= d == low
            if high_open:
                bad |= d == high
            m = ~bad
        return ~m if neg else m

    return eval_metric


def _bind_atom(
    atom: Any, ctx: ExecutionContext, cols: dict[str, _Col]
) -> _AtomFn | None:
    # Exact-type dispatch: a subclass could override ``eval``, and the
    # batch forms below reproduce only the base-class semantics.
    kind = type(atom)
    if kind is CmpAtom:
        return _bind_cmp(atom, cols)
    if kind is ConstAtom:
        return _bind_const(atom, cols)
    if kind is PatternAtom:
        return _bind_pattern(atom, cols)
    if kind is NotNullAtom:
        return _bind_notnull(atom, cols)
    if kind is MetricAtom:
        return _bind_metric(atom, ctx, cols)
    return None


# -- streaming candidate blocks ----------------------------------------------


def _stream_ranges(
    anchors: _Arr, starts: _Arr, ends: _Arr, pool: _Arr
) -> _BlockIter:
    """Pairs ``(anchors[k], pool[starts[k]:ends[k]])`` in bounded blocks.

    The concatenated-arange expansion: one ``searchsorted`` per block
    recovers each flat offset's owning anchor, so arbitrary per-anchor
    partner ranges stream without ever materializing the full pair set.
    """
    counts = ends - starts
    keep = counts > 0
    if not keep.any():
        return
    anchors, starts = anchors[keep], starts[keep]
    counts = counts[keep]
    cum = np.concatenate(([0], np.cumsum(counts)))
    total = int(cum[-1])
    pos = 0
    while pos < total:
        stop = min(pos + _CHUNK, total)
        flat = np.arange(pos, stop, dtype=np.int64)
        owner = np.searchsorted(cum, flat, side="right") - 1
        q = pool[starts[owner] + (flat - cum[owner])]
        p = anchors[owner]
        yield np.minimum(p, q), np.maximum(p, q)
        pos = stop


def _triangle_blocks(members: _Arr) -> _BlockIter:
    """All unordered pairs within ``members`` (ascending row ids)."""
    k = len(members)
    if k < 2:
        return
    pos = np.arange(k, dtype=np.int64)
    yield from _stream_ranges(
        members, pos + 1, np.full(k, k, dtype=np.int64), members
    )


def _cross_blocks(a: _Arr, b: _Arr) -> _BlockIter:
    """All pairs across two disjoint row sets."""
    if len(a) == 0 or len(b) == 0:
        return
    yield from _stream_ranges(
        a,
        np.zeros(len(a), dtype=np.int64),
        np.full(len(a), len(b), dtype=np.int64),
        b,
    )


def _scan_blocks(n: int, rmask: _Arr | None) -> _BlockIter:
    if rmask is None:
        rows = np.arange(n, dtype=np.int64)
        yield from _stream_ranges(
            rows, rows + 1, np.full(n, n, dtype=np.int64), rows
        )
        return
    rs = np.flatnonzero(rmask).astype(np.int64)
    # Mirror the scalar scan: every pair touching a restricted row,
    # each exactly once — partners above the anchor (all rows), plus
    # non-restricted partners below it.
    yield from _stream_ranges(
        rs, rs + 1, np.full(len(rs), n, dtype=np.int64), np.arange(n, dtype=np.int64)
    )
    unrestricted = np.flatnonzero(~rmask).astype(np.int64)
    below = np.searchsorted(unrestricted, rs).astype(np.int64)
    yield from _stream_ranges(
        rs, np.zeros(len(rs), dtype=np.int64), below, unrestricted
    )


def _group_blocks(
    ctx: ExecutionContext, eq_attrs: tuple[str, ...]
) -> _BlockIter:
    codes = np.asarray(ctx.combined_codes(eq_attrs))
    order = np.argsort(codes, kind="stable").astype(np.int64)
    ordered = codes[order]
    ends = np.searchsorted(ordered, ordered, side="right").astype(np.int64)
    pos = np.arange(len(order), dtype=np.int64)
    yield from _stream_ranges(order, pos + 1, ends, order)


def _metric_blocks(
    ctx: ExecutionContext, atom: MetricAtom, col: _Col
) -> _BlockIter:
    rows_s, vals_s = ctx.sorted_projection(col.name)
    iv = atom.interval
    within = atom.semantics == "within"
    low, high = (0.0, float(iv.high)) if within else (
        float(iv.low), float(iv.high)
    )
    lo_side = "right" if (iv.low_open and not within) else "left"
    hi_side = "left" if iv.high_open else "right"
    m = len(rows_s)
    if m:
        with np.errstate(invalid="ignore"):
            starts = np.searchsorted(
                vals_s, vals_s + low, side=lo_side
            ).astype(np.int64)
            if high == math.inf:
                ends = np.full(m, m, dtype=np.int64)
            else:
                ends = np.searchsorted(
                    vals_s, vals_s + high, side=hi_side
                ).astype(np.int64)
        pos = np.arange(m, dtype=np.int64)
        starts = np.maximum(starts, pos + 1)
        yield from _stream_ranges(rows_s, starts, ends, rows_s)
    # None / NaN classes: their distances are fixed by Metric.distance
    # (None-None = 0, one-sided None = inf, NaN arithmetic = NaN), so
    # whole class blocks are accepted or rejected wholesale.
    f, valid = col.floats, col.valid
    none_rows = np.flatnonzero(~valid).astype(np.int64)
    with np.errstate(invalid="ignore"):
        nan_rows = np.flatnonzero(valid & np.isnan(f)).astype(np.int64)
    if none_rows.size:
        if atom.accepts_distance(0.0):
            yield from _triangle_blocks(none_rows)
        if atom.accepts_distance(math.inf):
            yield from _cross_blocks(
                none_rows, np.flatnonzero(valid).astype(np.int64)
            )
    if nan_rows.size and atom.accepts_distance(math.nan):
        yield from _triangle_blocks(nan_rows)
        yield from _cross_blocks(nan_rows, rows_s)


class _SweepPrep:
    """Bind-time product of the vectorized sorted-sweep."""

    __slots__ = ("rows_s", "block_start", "tie_runs", "clauses", "cand")

    def __init__(
        self,
        rows_s: _Arr,
        block_start: _Arr,
        tie_runs: list[tuple[int, int]],
        clauses: list[tuple[_Arr, Any, bool, _Arr]],
        cand: _Arr,
    ) -> None:
        self.rows_s = rows_s
        self.block_start = block_start
        self.tie_runs = tie_runs
        self.clauses = clauses
        self.cand = cand


def _sweep_prep(
    ctx: ExecutionContext, spec: Any, cols: dict[str, _Col]
) -> _SweepPrep | None:
    """Vectorize the scalar sweep: prefix extrema find the candidate
    rows, per-candidate float comparisons recover their partners."""
    if spec.sort_kind == "str":
        return None
    sort_col = cols.get(spec.sort_attr)
    if sort_col is None or sort_col.floats is None:
        return None
    for store_attr, query_attr, _, _, kind in spec.clauses:
        if kind == "str":
            return None
        for a in (store_attr, query_attr):
            c = cols.get(a)
            if c is None or c.floats is None:
                return None
    rows_s, vals_s = ctx.sorted_projection(spec.sort_attr)
    m = len(rows_s)
    if m == 0:
        return _SweepPrep(
            rows_s, np.zeros(0, dtype=np.int64), [], [], np.zeros(0, np.int64)
        )
    block_start = np.searchsorted(vals_s, vals_s, side="left").astype(np.int64)
    tie_runs: list[tuple[int, int]] = []
    if not spec.strict:
        run_end = np.searchsorted(vals_s, vals_s, side="right")
        run_bounds = np.flatnonzero(block_start == np.arange(m))
        for s in run_bounds.tolist():
            e = int(run_end[s])
            if e - s > 1:
                tie_runs.append((s, e))
    has_prior = block_start > 0
    prev = np.maximum(block_start - 1, 0)
    any_fire = np.zeros(m, dtype=bool)
    clauses: list[tuple[_Arr, Any, bool, _Arr]] = []
    for store_attr, query_attr, eff_op, negated, _ in spec.clauses:
        stored = cols[store_attr].floats[rows_s]
        qvals = cols[query_attr].floats[rows_s]
        smin = np.fmin.accumulate(stored)
        smax = np.fmax.accumulate(stored)
        with np.errstate(invalid="ignore"):
            bad_cum = np.cumsum(np.isnan(stored))
            pmin = np.where(has_prior, smin[prev], np.nan)
            pmax = np.where(has_prior, smax[prev], np.nan)
            pbad = np.where(has_prior, bad_cum[prev], 0)
            qnan = np.isnan(qvals)
            if negated:
                if eff_op == "<":
                    fire = pmax >= qvals
                elif eff_op == "<=":
                    fire = pmax > qvals
                elif eff_op == ">":
                    fire = pmin <= qvals
                else:
                    fire = pmin < qvals
                fire = fire | (pbad > 0) | (qnan & has_prior)
            else:
                if eff_op == "<":
                    fire = pmin < qvals
                elif eff_op == "<=":
                    fire = pmin <= qvals
                elif eff_op == ">":
                    fire = pmax > qvals
                else:
                    fire = pmax >= qvals
        any_fire |= fire
        clauses.append((stored, _NP_OPS[eff_op], bool(negated), qvals))
    cand = np.flatnonzero(any_fire).astype(np.int64)
    if cand.size and int(block_start[cand].sum()) > _SWEEP_WORK_CAP:
        # Too much prefix work for the per-candidate pass — the scalar
        # sweep's incremental structures handle this regime better.
        return None
    return _SweepPrep(rows_s, block_start, tie_runs, clauses, cand)


def _sweep_blocks(prep: _SweepPrep) -> _BlockIter:
    rows_s = prep.rows_s
    for s, e in prep.tie_runs:
        yield from _triangle_blocks(rows_s[s:e])
    buf_p: list[_Arr] = []
    buf_q: list[_Arr] = []
    buffered = 0
    for k, t in enumerate(prep.cand.tolist()):
        # Each candidate does O(prefix) vector work but may buffer or
        # drop every partner without yielding; poll the budget in
        # batches so deadlines and shard cancellation still bite.
        if k % 256 == 0:
            checkpoint()
        b = int(prep.block_start[t])
        if b == 0:
            continue
        fire = np.zeros(b, dtype=bool)
        for stored, op, negated, qvals in prep.clauses:
            with np.errstate(invalid="ignore"):
                cm = op(stored[:b], qvals[t])
            if negated:
                cm = ~cm
            fire |= cm
            if fire.all():
                break
        partners = rows_s[:b][fire]
        if partners.size == 0:
            continue
        anchor = np.full(len(partners), int(rows_s[t]), dtype=np.int64)
        buf_p.append(np.minimum(partners, anchor))
        buf_q.append(np.maximum(partners, anchor))
        buffered += len(partners)
        if buffered >= _CHUNK:
            yield np.concatenate(buf_p), np.concatenate(buf_q)
            buf_p, buf_q, buffered = [], [], 0
    if buffered:
        yield np.concatenate(buf_p), np.concatenate(buf_q)


# -- bound plans -------------------------------------------------------------


class VecPlan:
    """A plan bound to one context's column arrays, ready to stream."""

    __slots__ = (
        "plan", "ctx", "n", "clauses", "strategy", "symmetric",
        "_eq_attrs", "_metric_atom", "_metric_col", "_sweep",
    )

    def __init__(
        self,
        plan: Plan,
        ctx: ExecutionContext,
        clauses: list[list[_AtomFn]],
        strategy: str,
        eq_attrs: tuple[str, ...] | None = None,
        metric_atom: MetricAtom | None = None,
        metric_col: _Col | None = None,
        sweep: _SweepPrep | None = None,
    ) -> None:
        self.plan = plan
        self.ctx = ctx
        self.n = ctx.n
        self.clauses = clauses
        self.strategy = strategy
        self.symmetric = all(
            a.symmetric for c in plan.clauses for a in c.atoms
        )
        self._eq_attrs = eq_attrs
        self._metric_atom = metric_atom
        self._metric_col = metric_col
        self._sweep = sweep

    def denies(self, p: _Arr, q: _Arr) -> _Arr:
        """Mask of pairs denied with t_α = p, t_β = q (exact)."""
        out = np.zeros(len(p), dtype=bool)
        for clause in self.clauses:
            cm = np.ones(len(p), dtype=bool)
            for ev in clause:
                cm &= ev(p, q)
                if not cm.any():
                    break
            out |= cm
            if out.all():
                break
        return out

    def violation_mask(self, p: _Arr, q: _Arr) -> _Arr:
        """Denied in either orientation (one pass for symmetric plans)."""
        m = self.denies(p, q)
        if not self.symmetric:
            m = m | self.denies(q, p)
        return m

    def blocks(self, rmask: _Arr | None) -> _BlockIter:
        source: _BlockIter
        if self.strategy == "group":
            assert self._eq_attrs is not None
            source = _group_blocks(self.ctx, self._eq_attrs)
        elif self.strategy == "sweep":
            assert self._sweep is not None
            source = _sweep_blocks(self._sweep)
        elif self.strategy == "metric":
            assert self._metric_atom is not None
            assert self._metric_col is not None
            source = _metric_blocks(
                self.ctx, self._metric_atom, self._metric_col
            )
        else:
            yield from _scan_blocks(self.n, rmask)
            return
        if rmask is None:
            yield from source
            return
        for p, q in source:
            # A restriction mask can drop whole blocks, leaving the
            # consumer nothing to charge; poll per source block.
            checkpoint()
            keep = rmask[p] | rmask[q]
            if keep.any():
                yield p[keep], q[keep]


def bind(plan: Plan, ctx: ExecutionContext) -> VecPlan | None:
    """Bind a plan to one context's arrays, or ``None`` to fall back.

    The returned strategy mirrors the scalar selection (group > sweep >
    metric > scan); when the structurally preferred kernel cannot be
    vectorized for *this* context (string order columns, exotic
    metrics) the whole binding is refused rather than degraded to a
    blind vec-scan, because the scalar kernel keeps the pruning.
    """
    attrs = {
        a for c in plan.clauses for atom in c.atoms
        for a in atom.attributes()
    }
    cols = _gather_columns(ctx, attrs)
    if cols is None:
        return None
    clauses: list[list[_AtomFn]] = []
    for c in plan.clauses:
        bound: list[_AtomFn] = []
        for atom in c.atoms:
            fn = _bind_atom(atom, ctx, cols)
            if fn is None:
                return None
            bound.append(fn)
        clauses.append(bound)
    if plan.arity == 1:
        return VecPlan(plan, ctx, clauses, "rows")
    from .kernels import (
        _shared_equality_attrs,
        _shared_metric_atom,
        _sweep_spec,
        _sweep_struct,
    )

    eq_attrs = _shared_equality_attrs(plan)
    if eq_attrs:
        return VecPlan(plan, ctx, clauses, "group", eq_attrs=eq_attrs)
    struct = _sweep_struct(plan)
    if struct is not None:
        spec = _sweep_spec(struct, ctx)
        if spec is None:
            return None
        prep = _sweep_prep(ctx, spec, cols)
        if prep is None:
            return None
        return VecPlan(plan, ctx, clauses, "sweep", sweep=prep)
    atom = _shared_metric_atom(plan)
    if atom is not None:
        from ..metrics.numeric import ABS_DIFF

        try:
            metric = atom.resolve_metric(ctx)
        except BudgetExhausted:
            raise  # exhaustion must propagate, never degrade to scalar
        except Exception:
            return None
        col = cols[atom.attribute]
        if metric is not ABS_DIFF or col.floats is None:
            return None
        return VecPlan(
            plan, ctx, clauses, "metric",
            metric_atom=atom, metric_col=col,
        )
    return VecPlan(plan, ctx, clauses, "scan")


# -- executors ---------------------------------------------------------------


def run_pairs(
    vp: VecPlan,
    verify: Callable[[int, int], Any],
    *,
    restrict: set[int] | None = None,
    first_only: bool = False,
    shard: tuple[int, int] | None = None,
) -> list[tuple[Any, Any]]:
    """Stream candidate blocks, mask them, verify only the survivors.

    Returns the raw ``(sort_key, payload)`` hits; the caller sorts.
    Examined pairs and block checkpoints are charged exactly like the
    scalar executor, so budgets and fault injection see the same
    accounting regardless of backend.

    ``shard=(k, m)`` keeps only every m-th streamed block (by block
    ordinal, which is deterministic per (plan, slabs)): shards
    partition the candidate pair space exactly, each shard charges only
    its own blocks to the counters/budget, and the per-block totals sum
    across shards to the unsharded run's totals.
    """
    counters = current_scope().counters
    rmask: _Arr | None = None
    if restrict is not None:
        rmask = np.zeros(vp.n, dtype=bool)
        rows = [r for r in restrict if 0 <= r < vp.n]
        if not rows:
            return []
        rmask[rows] = True
    hits: list[tuple[Any, Any]] = []
    for ordinal, (p, q) in enumerate(vp.blocks(rmask)):
        if shard is not None and ordinal % shard[1] != shard[0]:
            continue
        size = len(p)
        if size == 0:
            continue
        counters.pairs_examined += size
        counters.chunks += 1
        checkpoint(pairs=size)
        mask = vp.violation_mask(p, q)
        if not mask.any():
            continue
        pv, qv = p[mask], q[mask]
        order = np.argsort(pv * np.int64(vp.n) + qv, kind="stable")
        for k in order.tolist():
            hit = verify(int(pv[k]), int(qv[k]))
            if hit is not None:
                hits.append(hit)
                if first_only:
                    return hits
    return hits


def run_rows(
    vp: VecPlan,
    verify: Callable[[int], Any],
    *,
    restrict: set[int] | None = None,
    first_only: bool = False,
) -> list[tuple[Any, Any]]:
    """Single-tuple plans: one mask pass over the row index array."""
    counters = current_scope().counters
    if restrict is not None:
        rows = np.asarray(
            sorted(r for r in restrict if 0 <= r < vp.n), dtype=np.int64
        )
    else:
        rows = np.arange(vp.n, dtype=np.int64)
    hits: list[tuple[Any, Any]] = []
    for s in range(0, len(rows), _CHUNK):
        chunk = rows[s:s + _CHUNK]
        counters.chunks += 1
        checkpoint()
        mask = vp.denies(chunk, chunk)
        for r in chunk[mask].tolist():
            hit = verify(int(r))
            if hit is not None:
                hits.append(hit)
                if first_only:
                    return hits
    return hits
