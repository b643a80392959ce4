"""FASTDC — denial constraint discovery via evidence sets (Chu et al.).

[19]: build a **predicate space** P (two-tuple atoms over the schema),
compute the **evidence set** of every ordered tuple pair — the subset
of P the pair satisfies — and observe that a DC ``¬(Q)`` with
``Q ⊆ P`` is valid iff no evidence set contains all of ``Q``.
Minimal valid DCs therefore correspond to **minimal hitting sets** of
the evidence-set complements, found depth-first with pruning.

Also provided, as in the paper:

* :func:`discover_dcs_approximate` (A-FASTDC) — tolerate ``Q ⊆ E`` for
  at most a fraction of pairs;
* :func:`discover_constant_dcs` (C-FASTDC) — single-tuple DCs with
  constant atoms from frequent values.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as _np

from ..core.numerical import ALPHA, BETA, DC, Predicate
from ..relation.relation import Relation
from ..relation.schema import AttributeType
from ..runtime.budget import Budget, checkpoint, governed, resolve_budget
from ..runtime.errors import BudgetExhausted, EngineFault, ReproError
from .common import DiscoveryResult, DiscoveryStats

_EQ_OPS = ("=", "!=")
_ORDER_OPS = ("=", "!=", "<", "<=", ">", ">=")


def build_predicate_space(
    relation: Relation, cross_columns: bool = False
) -> list[Predicate]:
    """Two-tuple predicates over the schema (FASTDC's space).

    Equality/inequality for every attribute; the four order operators
    additionally for numerical attributes; with ``cross_columns``, also
    order atoms across distinct numerical attribute pairs (the
    "structure of two different attributes and one operator" case).
    """
    space: list[Predicate] = []
    numeric: list[str] = []
    for attr in relation.schema:
        ops = _ORDER_OPS if attr.dtype is AttributeType.NUMERICAL else _EQ_OPS
        if attr.dtype is AttributeType.NUMERICAL:
            numeric.append(attr.name)
        for op in ops:
            space.append(Predicate(ALPHA, attr.name, op, BETA, attr.name))
    if cross_columns:
        for a, b in combinations(numeric, 2):
            for op in ("<", "<=", ">", ">="):
                space.append(Predicate(ALPHA, a, op, BETA, b))
    return space


def evidence_sets(
    relation: Relation, space: list[Predicate]
) -> Counter:
    """Multiset of evidence sets over all ordered tuple pairs.

    Each evidence set is the frozenset of space-indices of predicates
    the pair satisfies; the Counter tracks how many pairs share each
    evidence set (needed for the approximate variant).

    With the dictionary-encoded substrate each predicate becomes one
    broadcast comparison over integer codes (equality atoms) or float
    vectors (order atoms), and the per-pair evidence sets fall out of a
    single ``np.unique`` over packed bitmasks — O(|P| · n²) C-speed
    work instead of O(|P| · n²) interpreted ``Predicate.evaluate``
    calls.  Falls back to the per-pair path when a predicate cannot be
    vectorized faithfully.
    """
    if len(relation) >= 2:
        plan = _vectorizable_plan(relation, space)
        if plan is not None:
            # One checkpoint for the whole vectorized sweep — the
            # numpy kernel is uninterruptible, so the budget charge is
            # taken up front.
            checkpoint(pairs=len(relation) * (len(relation) - 1))
            try:
                return _evidence_sets_encoded(relation, space, plan)
            except ReproError:
                raise
            except Exception as exc:
                raise EngineFault(
                    f"encoded evidence-set kernel failed: {exc}",
                    site="encoding",
                ) from exc
    return _evidence_sets_naive(relation, space)


def _evidence_sets_naive(
    relation: Relation, space: list[Predicate]
) -> Counter:
    """Per-pair evidence sets: the fallback when a predicate cannot be
    vectorized, and the parity reference for the encoded kernel."""
    out: Counter = Counter()
    n = len(relation)
    for i in range(n):
        checkpoint(pairs=n - 1)
        for j in range(n):
            if i == j:
                continue
            assignment = {ALPHA: i, BETA: j}
            ev = frozenset(
                k
                for k, p in enumerate(space)
                if p.evaluate(relation, assignment)
            )
            out[ev] += 1
    return out


def _vectorizable_plan(
    relation: Relation, space: list[Predicate]
) -> list[tuple] | None:
    """Per-predicate vectorization recipes, or ``None`` to fall back.

    Equality atoms over one attribute run on dictionary codes (masked
    by ``None`` validity, since ``None`` never satisfies an atom);
    order and cross-column atoms run on float vectors with ``NaN`` for
    ``None`` (``NaN`` comparisons are ``False``, matching
    ``Predicate.evaluate``).  Columns with NaN-like values take the
    float route for equality too — codes would call two
    equal-by-identity NaNs equal where ``==`` does not.
    """
    enc = relation.encoding()
    schema = relation.schema
    plan: list[tuple] = []
    for p in space:
        if p.is_constant or p.lhs_var != ALPHA or p.rhs_var != BETA:
            return None
        if p.lhs_attribute not in schema or p.rhs_attribute not in schema:
            return None
        li = schema.index_of(p.lhs_attribute)
        ri = schema.index_of(p.rhs_attribute)
        if p.op in ("=", "==", "!=") and li == ri:
            cc = enc.column_codes(li)
            if not cc.self_unequal:
                plan.append(("codes", li, p.op))
                continue
        if not (
            enc.column_codes(li).numeric_safe
            and enc.column_codes(ri).numeric_safe
        ):
            return None
        plan.append(("float", li, ri, p.op))
    return plan


def _evidence_sets_encoded(
    relation: Relation, space: list[Predicate], plan: list[tuple]
) -> Counter:
    """Vectorized evidence sets: per-predicate broadcast + bit packing."""
    enc = relation.encoding()
    n = len(relation)
    off_diagonal = ~_np.eye(n, dtype=bool)
    words: list = []  # one packed int64 word per chunk of 62 predicates
    word = None
    for k, recipe in enumerate(plan):
        bit = k % 62
        if bit == 0:
            if word is not None:
                words.append(word[off_diagonal])
            word = _np.zeros((n, n), dtype=_np.int64)
        if recipe[0] == "codes":
            __, col, op = recipe
            codes = enc.codes_array(col)
            valid = enc.valid_array(col)
            eq = codes[:, None] == codes[None, :]
            both_valid = valid[:, None] & valid[None, :]
            matrix = (eq if op != "!=" else ~eq) & both_valid
        else:
            __, li, ri, op = recipe
            a = enc.float_array(li)[:, None]
            b = enc.float_array(ri)[None, :]
            if op in ("=", "=="):
                matrix = a == b  # NaN == anything -> False
            elif op == "!=":
                matrix = (a != b) & (
                    enc.valid_array(li)[:, None]
                    & enc.valid_array(ri)[None, :]
                )
            elif op == "<":
                matrix = a < b
            elif op == "<=":
                matrix = a <= b
            elif op == ">":
                matrix = a > b
            else:
                matrix = a >= b
        word |= matrix.astype(_np.int64) << bit
    if word is not None:
        words.append(word[off_diagonal])
    out: Counter = Counter()
    if not words:  # empty predicate space: every pair has empty evidence
        out[frozenset()] = n * (n - 1)
        return out
    if len(words) == 1:
        packed, counts = _np.unique(words[0], return_counts=True)
        packed = packed[:, None]
    else:
        packed, counts = _np.unique(
            _np.stack(words, axis=1), axis=0, return_counts=True
        )
    for row, count in zip(packed.tolist(), counts.tolist(), strict=True):
        members = []
        for chunk, value in enumerate(row):
            base = chunk * 62
            while value:
                low = value & -value
                members.append(base + low.bit_length() - 1)
                value ^= low
        out[frozenset(members)] = count
    return out


def _minimal_covers(
    complements: list[frozenset[int]],
    pool: list[int],
    prefix: tuple[int, ...],
    out: list[tuple[int, ...]],
    stats: DiscoveryStats,
    max_size: int,
) -> None:
    """DFS for minimal hitting sets of the complement sets."""
    stats.candidates_checked += 1
    checkpoint(candidates=1)
    uncovered = [c for c in complements if not (c & set(prefix))]
    if not uncovered:
        for drop in range(len(prefix)):
            reduced = set(prefix[:drop] + prefix[drop + 1:])
            if all(c & reduced for c in complements):
                stats.candidates_pruned += 1
                return
        out.append(prefix)
        return
    if len(prefix) >= max_size:
        return
    # Branch on predicates appearing in the first uncovered complement —
    # any hitting set must pick one of them.
    target = min(uncovered, key=len)
    for k, pidx in enumerate(pool):
        if pidx in target:
            _minimal_covers(
                complements, pool[k + 1:], prefix + (pidx,), out, stats,
                max_size,
            )


def discover_dcs(
    relation: Relation,
    max_predicates: int = 3,
    cross_columns: bool = False,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Minimal valid DCs with at most ``max_predicates`` atoms.

    Budget-governed: exhaustion mid-sweep returns the covers found so
    far — each already a verified hitting set, hence a valid DC — with
    ``stats.complete = False``.  Exhaustion during the evidence sweep
    falls back to evidence sets over a row sample (the A-FASTDC-style
    degradation), whose DCs are flagged via ``stats.sampled_verified``.
    """
    from ..runtime.budget import sample_relation

    stats = DiscoveryStats()
    space = build_predicate_space(relation, cross_columns)
    covers: list[tuple[int, ...]] = []
    sampled = False
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            evidence = evidence_sets(relation, space)
        except BudgetExhausted as exc:
            # Sampled evidence fallback: bounded (<= 32 rows => <= 992
            # ordered pairs), so the overrun past the blown budget
            # stays small; it runs under a fresh unlimited budget
            # because the ambient one would re-raise at its first
            # checkpoint.
            stats.mark_exhausted(exc.reason)
            sampled = True
            sample = sample_relation(relation, max_rows=32)
            with governed(Budget()):
                evidence = _evidence_sets_naive(sample, space)
        all_ids = set(range(len(space)))
        complements = sorted(
            {frozenset(all_ids - e) for e in evidence}, key=len
        )
        try:
            if sampled:
                _minimal_covers_unguarded(
                    complements, list(range(len(space))), (), covers,
                    stats, max_predicates,
                )
            else:
                _minimal_covers(
                    complements, list(range(len(space))), (), covers,
                    stats, max_predicates,
                )
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    dcs = [DC([space[k] for k in cover]) for cover in covers]
    if sampled:
        stats.sampled_verified += len(dcs)
    return DiscoveryResult(
        dependencies=dcs, stats=stats, algorithm="FASTDC"
    )


def _minimal_covers_unguarded(
    complements, pool, prefix, out, stats, max_size, node_cap: int = 20000
) -> None:
    """Checkpoint-free cover DFS with a hard node cap (salvage path)."""
    if stats.candidates_checked >= node_cap:
        return
    stats.candidates_checked += 1
    uncovered = [c for c in complements if not (c & set(prefix))]
    if not uncovered:
        for drop in range(len(prefix)):
            reduced = set(prefix[:drop] + prefix[drop + 1:])
            if all(c & reduced for c in complements):
                stats.candidates_pruned += 1
                return
        out.append(prefix)
        return
    if len(prefix) >= max_size:
        return
    target = min(uncovered, key=len)
    for k, pidx in enumerate(pool):
        if pidx in target:
            _minimal_covers_unguarded(
                complements, pool[k + 1:], prefix + (pidx,), out, stats,
                max_size, node_cap,
            )


def discover_dcs_approximate(
    relation: Relation,
    epsilon: float = 0.01,
    max_predicates: int = 3,
    cross_columns: bool = False,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """A-FASTDC: DCs violated by at most ``epsilon`` of ordered pairs.

    A candidate ``Q`` is approximately valid when the pairs whose
    evidence set contains all of ``Q`` number at most
    ``epsilon * n * (n-1)``.  The search enumerates predicate subsets
    up to ``max_predicates`` with subset-minimality filtering (covers
    of *most* complements are not hitting sets, so the exact DFS does
    not transfer directly).
    """
    stats = DiscoveryStats()
    space = build_predicate_space(relation, cross_columns)
    found: list[tuple[frozenset[int], DC]] = []
    n = len(relation)
    violation_budget = epsilon * n * (n - 1)
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            evidence = evidence_sets(relation, space)

            def violating_pairs(q: frozenset[int]) -> int:
                return sum(
                    count for e, count in evidence.items() if q <= e
                )

            ids = list(range(len(space)))
            for size in range(1, max_predicates + 1):
                stats.levels = size
                for q in combinations(ids, size):
                    qs = frozenset(q)
                    if any(prev <= qs for prev, __ in found):
                        stats.candidates_pruned += 1
                        continue
                    stats.candidates_checked += 1
                    checkpoint(candidates=1)
                    if violating_pairs(qs) <= violation_budget:
                        found.append((qs, DC([space[k] for k in q])))
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    return DiscoveryResult(
        dependencies=[dc for __, dc in found],
        stats=stats,
        algorithm=f"A-FASTDC(eps={epsilon})",
    )


def discover_constant_dcs(
    relation: Relation,
    min_frequency: int = 2,
    max_predicates: int = 2,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """C-FASTDC: single-tuple DCs over frequent constant atoms.

    Builds constant predicates ``t.A op c`` for frequent values ``c``
    (equality for all types, order atoms for numerical attributes at
    observed quartiles), then emits minimal never-satisfied
    conjunctions — the constant rules ("region = Chicago ∧ price <
    200" style) of Section 4.3.
    """
    stats = DiscoveryStats()
    found: list[tuple[frozenset[int], DC]] = []
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            _discover_constant_dcs(
                relation, min_frequency, max_predicates, stats, found
            )
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    return DiscoveryResult(
        dependencies=[dc for __, dc in found],
        stats=stats,
        algorithm="C-FASTDC",
    )


def _discover_constant_dcs(
    relation: Relation,
    min_frequency: int,
    max_predicates: int,
    stats: DiscoveryStats,
    found: list[tuple[frozenset[int], DC]],
) -> None:
    space: list[Predicate] = []
    for attr in relation.schema:
        counts = relation.value_counts(attr.name)
        frequent = [
            v
            for v, c in counts.items()
            if c >= min_frequency and v is not None
        ]
        for v in frequent:
            space.append(Predicate(ALPHA, attr.name, "=", None, None, v))
        if attr.dtype is AttributeType.NUMERICAL:
            values = sorted(
                v for v in relation.column(attr.name) if v is not None
            )
            if values:
                for q in (0.25, 0.5, 0.75):
                    c = values[int(q * (len(values) - 1))]
                    space.append(
                        Predicate(ALPHA, attr.name, "<", None, None, c)
                    )
                    space.append(
                        Predicate(ALPHA, attr.name, ">", None, None, c)
                    )
    # Evidence per single tuple.
    evidences: list[frozenset[int]] = []
    for i in range(len(relation)):
        checkpoint()
        assignment = {ALPHA: i}
        evidences.append(
            frozenset(
                k
                for k, p in enumerate(space)
                if p.evaluate(relation, assignment)
            )
        )
    ids = list(range(len(space)))
    for size in range(1, max_predicates + 1):
        stats.levels = size
        for q in combinations(ids, size):
            qs = frozenset(q)
            if len({space[k].lhs_attribute for k in q}) != size:
                continue  # one atom per attribute keeps rules readable
            if any(prev <= qs for prev, __ in found):
                stats.candidates_pruned += 1
                continue
            stats.candidates_checked += 1
            checkpoint(candidates=1)
            if not any(qs <= e for e in evidences):
                found.append((qs, DC([space[k] for k in q])))
