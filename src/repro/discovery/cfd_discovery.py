"""CFD discovery — constant mining, level-wise general mining, tableaux.

Three entry points mirroring Section 2.5.3:

* :func:`discover_constant_cfds` — CFDMiner-style [35, 36]: constant
  CFDs correspond to frequent attribute-value patterns that fix the
  RHS value; mined level-wise with minimality pruning.
* :func:`discover_general_cfds` — CTANE-style [36]: level-wise search
  over (attribute-set, pattern) pairs mixing constants and wildcards.
* :func:`greedy_tableau` — Golab et al. [49]: generating an *optimal*
  tableau for a given embedded FD is NP-complete; the greedy algorithm
  repeatedly adds the candidate pattern with the best marginal
  support among patterns meeting the confidence requirement, yielding
  the standard (1 - 1/e)-style near-optimal tableau.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core.categorical import CFD, CFDTableau, FD, Pattern
from ..relation.partition_cache import cache_for
from ..relation.relation import Relation
from ..runtime.budget import Budget, checkpoint, governed, resolve_budget
from ..runtime.errors import BudgetExhausted, EngineFault, ReproError
from .common import DiscoveryResult, DiscoveryStats


def _guarded(site, read, *args):
    """``read(*args)`` with fault conversion at the substrate boundary.

    A raising grouping kernel (genuine or injected) becomes a typed
    :class:`EngineFault` instead of an anonymous crash mid-mine.
    """
    try:
        return read(*args)
    except ReproError:
        raise
    except Exception as exc:
        raise EngineFault(
            f"grouping kernel failed on {args!r}: {exc}", site=site
        ) from exc


def _sub_patterns(items: frozenset) -> list[frozenset]:
    """Every non-empty sub-pattern of ``items`` (itself included)."""
    return [
        frozenset(sub)
        for k in range(1, len(items) + 1)
        for sub in combinations(items, k)
    ]


def discover_constant_cfds(
    relation: Relation,
    min_support: int = 2,
    max_lhs_size: int = 2,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Mine minimal constant CFDs ``(X = x -> A = a)``.

    A constant CFD is emitted when at least ``min_support`` tuples match
    the LHS constants and *all* of them share one RHS value.  Minimality:
    a pattern is pruned when a sub-pattern (fewer conditioned
    attributes) already fixes the same RHS attribute; the sub-patterns
    are looked up in a hash set, not scanned.

    The LHS patterns and their supports are the groups of ``X``
    (``cache.groups``); which of them fix ``A`` is read from the
    ``(X, {A})`` code table — a group holding one ``A`` code — so no
    group's members are visited.  The RHS constant is the value at the
    group's first row.

    On ``budget`` exhaustion the constant CFDs mined so far are
    returned with ``stats.complete = False`` — every emitted CFD was
    fully verified before the cutoff.
    """
    stats = DiscoveryStats()
    names = sorted(relation.schema.names())
    found: list[CFD] = []
    # Groups come from the shared relation-level cache, and the code
    # tables from the encoding: a profiler run that already did TANE on
    # this relation reuses the (X, {A}) tables it built.
    cache = cache_for(relation)
    enc = relation.encoding()
    hits_before = cache.stats.hits + enc.stats.hits
    index = {a: relation.schema.index_of(a) for a in names}
    columns = {a: relation.column(a) for a in names}
    # RHS attr -> the minimal LHS (attr, value) sets already found.
    minimal: dict[str, set[frozenset[tuple[str, object]]]] = {
        a: set() for a in names
    }

    def table(x_idxs: tuple[int, ...], a: str):
        return _guarded("partition", enc.contingency, x_idxs, (index[a],))

    budget = resolve_budget(budget)
    with governed(budget):
        try:
            for size in range(1, max_lhs_size + 1):
                stats.levels = size
                for lhs in combinations(names, size):
                    checkpoint()
                    x_idxs = tuple(index[x] for x in lhs)
                    rhs = [a for a in names if a not in lhs]
                    # Only groups of min_support rows yield candidates:
                    # an LHS without one is not grouped at all.
                    if not rhs:
                        continue
                    support = table(x_idxs, rhs[0]).x_sizes()
                    if support.max(initial=0) < min_support:
                        continue
                    groups = _guarded("groups", cache.groups, lhs)
                    # A -> per X group: does it hold one A code?
                    fixed: dict[str, list[bool]] = {}
                    for g, (x_value, indices) in enumerate(groups.items()):
                        if len(indices) < min_support:
                            continue
                        items = frozenset(zip(lhs, x_value, strict=True))
                        subs = _sub_patterns(items)
                        for a in rhs:
                            if any(sub in minimal[a] for sub in subs):
                                stats.candidates_pruned += 1
                                continue
                            stats.candidates_checked += 1
                            checkpoint(candidates=1)
                            if a not in fixed:
                                fixes = table(x_idxs, a)
                                fixed[a] = (fixes.y_counts() == 1)[
                                    np.argsort(fixes.x_first)
                                ].tolist()
                            if fixed[a][g]:
                                pattern = dict(items)
                                pattern[a] = columns[a][indices[0]]
                                found.append(CFD(lhs, (a,), pattern))
                                minimal[a].add(items)
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    stats.partition_cache_hits += (
        cache.stats.hits + enc.stats.hits - hits_before
    )
    return DiscoveryResult(
        dependencies=found, stats=stats, algorithm="CFDMiner"
    )


def discover_general_cfds(
    relation: Relation,
    min_support: int = 2,
    max_lhs_size: int = 2,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Mine general (variable) CFDs level-wise, CTANE-style.

    Candidates are embedded FDs ``X -> A`` with patterns over ``X``
    mixing constants (drawn from values with enough support) and
    wildcards, wildcard RHS.  Emitted when the CFD holds exactly and
    covers >= ``min_support`` tuples; pure-wildcard patterns reduce to
    plain FDs and are reported too.  Partial on ``budget`` exhaustion.
    """
    stats = DiscoveryStats()
    names = sorted(relation.schema.names())
    found: list[CFD] = []
    emitted_fd_lhs: dict[str, list[tuple[str, ...]]] = {a: [] for a in names}
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            for size in range(1, max_lhs_size + 1):
                stats.levels = size
                for lhs in combinations(names, size):
                    for a in names:
                        if a in lhs:
                            continue
                        if any(
                            set(q) <= set(lhs) for q in emitted_fd_lhs[a]
                        ):
                            stats.candidates_pruned += 1
                            continue
                        # Pure-wildcard candidate first (the plain FD).
                        stats.candidates_checked += 1
                        checkpoint(candidates=1)
                        plain = CFD(lhs, (a,), None)
                        if (
                            plain.holds(relation)
                            and len(relation) >= min_support
                        ):
                            found.append(plain)
                            emitted_fd_lhs[a].append(lhs)
                            continue
                        # One-constant patterns: condition a single LHS
                        # attribute on each sufficiently frequent value.
                        for cond_attr in lhs:
                            counts = relation.value_counts(cond_attr)
                            for value, freq in counts.items():
                                if freq < min_support or value is None:
                                    continue
                                stats.candidates_checked += 1
                                checkpoint(candidates=1)
                                cand = CFD(
                                    lhs, (a,), {cond_attr: value}
                                )
                                if cand.holds(relation):
                                    found.append(cand)
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    return DiscoveryResult(
        dependencies=found, stats=stats, algorithm="CTANE-lite"
    )


def discover_ecfds(
    relation: Relation,
    min_support: int = 2,
    max_lhs_size: int = 2,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Mine eCFDs with inequality conditions on numerical attributes.

    Zanzi & Trombetta [114] discover non-constant conditional FDs with
    built-in predicates; this implementation conditions one numerical
    LHS attribute on observed-quartile thresholds with the operators
    ``<=``/``>``/``>=``/``<`` and keeps eCFDs that hold exactly with
    enough matching tuples.  Pure-constant conditions are CFDMiner's
    job (:func:`discover_constant_cfds`); this adds the predicate part.
    """
    from ..core.categorical import ECFD
    from ..relation.schema import AttributeType

    stats = DiscoveryStats()
    names = sorted(relation.schema.names())
    numeric = {
        a.name
        for a in relation.schema
        if a.dtype is AttributeType.NUMERICAL
    }
    found: list[ECFD] = []
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            for size in range(1, max_lhs_size + 1):
                stats.levels = size
                for lhs in combinations(names, size):
                    cond_candidates = [a for a in lhs if a in numeric]
                    for a in names:
                        if a in lhs:
                            continue
                        # Skip when the plain FD already holds (the
                        # eCFD would be redundant).
                        plain = CFD(lhs, (a,), None)
                        stats.candidates_checked += 1
                        checkpoint(candidates=1)
                        if plain.holds(relation):
                            continue
                        for cond_attr in cond_candidates:
                            values = sorted(
                                v
                                for v in relation.column(cond_attr)
                                if v is not None
                            )
                            if not values:
                                continue
                            thresholds = {
                                values[len(values) // 4],
                                values[len(values) // 2],
                                values[(3 * len(values)) // 4],
                            }
                            for c in thresholds:
                                for op in ("<=", ">", ">=", "<"):
                                    stats.candidates_checked += 1
                                    checkpoint(candidates=1)
                                    cand = ECFD(
                                        lhs, (a,), {cond_attr: (op, c)}
                                    )
                                    matching = cand.matching_indices(
                                        relation
                                    )
                                    if len(matching) < min_support:
                                        stats.candidates_pruned += 1
                                        continue
                                    if cand.holds(relation):
                                        found.append(cand)
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    # Keep only the widest-coverage eCFD per (lhs, rhs) pair.
    best: dict[tuple, ECFD] = {}
    coverage: dict[tuple, int] = {}
    for dep in found:
        key = (dep.lhs, dep.rhs)
        cover = len(dep.matching_indices(relation))
        if cover > coverage.get(key, -1):
            coverage[key] = cover
            best[key] = dep
    return DiscoveryResult(
        dependencies=list(best.values()),
        stats=stats,
        algorithm="eCFD-predicates",
    )


def pattern_confidence(relation: Relation, cfd: CFD) -> float:
    """Fraction of pattern-matching tuples kept by the embedded FD.

    1.0 means the CFD holds exactly on its matching subset.
    """
    matching = cfd.matching_indices(relation)
    if not matching:
        return 1.0
    sub = relation.take(matching)
    kept = len(cfd.embedded.keeps(sub))
    return kept / len(sub)


def candidate_patterns(
    relation: Relation, fd: FD, max_constants: int = 1
) -> list[Pattern]:
    """Candidate tableau rows for an embedded FD.

    All patterns conditioning at most ``max_constants`` LHS attributes
    on observed values, ordered general-first (fewer constants first).
    """
    out: list[Pattern] = [Pattern()]
    for k in range(1, max_constants + 1):
        for attrs in combinations(fd.lhs, k):
            value_sets = [
                sorted(set(relation.column(a)), key=repr) for a in attrs
            ]

            def expand(prefix: dict, depth: int) -> None:
                if depth == len(attrs):
                    out.append(Pattern(dict(prefix)))
                    return
                for v in value_sets[depth]:
                    prefix[attrs[depth]] = v
                    expand(prefix, depth + 1)
                    del prefix[attrs[depth]]

            expand({}, 0)
    return out


def greedy_tableau(
    relation: Relation,
    fd: FD,
    support_target: float = 0.8,
    min_confidence: float = 1.0,
    max_constants: int = 1,
) -> CFDTableau:
    """Golab et al.'s greedy near-optimal tableau for a given FD.

    Repeatedly add the *valid* candidate pattern (confidence >=
    ``min_confidence`` on its matching subset) with the largest
    marginal tuple coverage, until ``support_target`` of the relation
    is covered or no candidate adds coverage.
    """
    tableau = CFDTableau(fd.lhs, fd.rhs)
    n = len(relation)
    if n == 0:
        return tableau
    covered: set[int] = set()
    candidates = candidate_patterns(relation, fd, max_constants)
    scored: list[tuple[Pattern, set[int]]] = []
    for p in candidates:
        cfd = CFD(fd.lhs, fd.rhs, p)
        if pattern_confidence(relation, cfd) >= min_confidence:
            scored.append((p, set(cfd.matching_indices(relation))))
    while len(covered) / n < support_target:
        best: tuple[Pattern, set[int]] | None = None
        best_gain = 0
        for p, matches in scored:
            gain = len(matches - covered)
            if gain > best_gain:
                best, best_gain = (p, matches), gain
        if best is None:
            break
        tableau.add(best[0])
        covered |= best[1]
        scored = [s for s in scored if s[0] is not best[0]]
    return tableau
