"""TANE — level-wise FD and AFD discovery over code-table ranks.

Huhtala et al. [53, 54]: traverse the attribute-set lattice level by
level; for each set ``X`` maintain a candidate-RHS set ``C+(X)``; an FD
``X \\ {A} -> A`` is valid iff ``X \\ {A}`` and ``X`` have equal ranks
(numbers of distinct values, ``|π|`` of the published stripped
partitions).  Valid FDs prune the candidate sets; key-sized sets prune
whole branches after emitting their minimal key FDs.

The same traversal discovers AFDs by swapping the validity test for
``g3(X -> A) <= epsilon`` (Section 2.3.3).

Both tests read the relation's code table of ``(X \\ {A}, {A})``
(:meth:`~repro.relation.encoding.RelationEncoding.contingency`): its
two ranks, and for g3 the sum of each ``X \\ {A}`` group's largest
subgroup.  No partition is multiplied; the tables are memoized on the
relation, so the profiler's second pass, CFDMiner and the per-rule
counts reuse them.  The partition-based test stays in the test suite as
the reference (``tests/oracles.py``).

The level structure follows the published pseudocode:

1. ``COMPUTE-DEPENDENCIES(L_l)`` — derive ``C+`` from the previous
   level, test/emit FDs, shrink ``C+``;
2. ``PRUNE(L_l)`` — drop empty-``C+`` sets, and for (super)keys emit
   the remaining minimal FDs and drop the branch;
3. ``GENERATE-NEXT-LEVEL`` — apriori join of the survivors.

Output: all minimal non-trivial FDs with a single RHS attribute
(verified against :func:`brute_force_fds` in the property tests).
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.categorical import AFD, FD
from ..relation.relation import Relation
from ..runtime.budget import (
    Budget,
    checkpoint,
    governed,
    resolve_budget,
    verify_on_sample,
)
from ..runtime.errors import BudgetExhausted, EngineFault, ReproError
from .common import DiscoveryResult, DiscoveryStats, generate_next_level

#: ``valid(lhs, a)``: does ``lhs -> a`` pass the pass's test?
Valid = Callable[[tuple[str, ...], str], bool]
#: ``is_key(X)``: is ``X`` a (super)key of the relation?
IsKey = Callable[[tuple[str, ...]], bool]


def tane(
    relation: Relation,
    max_lhs_size: int | None = None,
    epsilon: float = 0.0,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Discover minimal FDs (``epsilon = 0``) or AFDs (``epsilon > 0``).

    ``max_lhs_size`` bounds the LHS attribute count (default: no bound
    below ``|R| - 1``).  Returns FD instances for exact discovery, AFD
    instances (threshold ``epsilon``) otherwise.

    ``budget`` (or an ambient :func:`~repro.runtime.budget.governed`
    budget) bounds the traversal: on exhaustion the FDs found so far
    are returned with ``stats.complete = False``, and the candidates of
    the in-flight level are admitted via sampled verification instead
    of being dropped mid-lattice.
    """
    names = sorted(relation.schema.names())
    stats = DiscoveryStats()
    if max_lhs_size is None:
        max_lhs_size = max(len(names) - 1, 1)

    enc = relation.encoding()
    index_of = relation.schema.index_of
    misses_before = enc.stats.misses
    hits_before = enc.stats.hits
    n = len(relation)

    def valid(lhs: tuple[str, ...], a: str) -> bool:
        """The ``(lhs, {a})`` code table's verdict; substrate faults
        become typed."""
        try:
            table = enc.contingency(
                tuple(map(index_of, lhs)), (index_of(a),)
            )
        except ReproError:
            raise
        except Exception as exc:
            raise EngineFault(
                f"partition substrate failed for {lhs + (a,)!r}: {exc}",
                site="partition",
            ) from exc
        if epsilon == 0.0:
            return table.x_rank == table.xy_rank
        return table.g3() <= epsilon

    def is_key(combo: tuple[str, ...]) -> bool:
        return enc.distinct_count(tuple(map(index_of, combo))) == n

    found: list = []
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            _tane_traverse(
                relation, names, max_lhs_size, epsilon, valid, is_key,
                found, stats,
            )
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)

    stats.partitions_built += enc.stats.misses - misses_before
    stats.partition_cache_hits += enc.stats.hits - hits_before
    return DiscoveryResult(
        dependencies=found,
        stats=stats,
        algorithm=f"TANE(epsilon={epsilon})",
    )


def _tane_traverse(
    relation: Relation,
    names: list[str],
    max_lhs_size: int,
    epsilon: float,
    valid: Valid,
    is_key: IsKey,
    found: list,
    stats: DiscoveryStats,
) -> None:
    """The level-wise traversal; mutates ``found``/``stats`` in place.

    ``valid`` is the candidate test (exact or g3) and ``is_key`` the
    key test of PRUNE; a minimal key FD is tested with ``valid`` at
    ``epsilon = 0``, which is the only setting PRUNE emits them in.

    Raises :class:`BudgetExhausted` out of a checkpoint when the budget
    runs dry — after first salvaging the current level's unchecked
    candidates via sampled verification, so a deadline degrades to a
    FASTDC-style sampled answer instead of discarding enumerated work.
    """
    cplus: dict[tuple[str, ...], set[str]] = {(): set(names)}
    level: list[tuple[str, ...]] = [(a,) for a in names]
    level_num = 1

    while level and level_num <= max_lhs_size + 1:
        stats.levels = level_num

        # -- COMPUTE-DEPENDENCIES ------------------------------------
        for combo in level:
            candidates = set(names)
            for drop in range(len(combo)):
                sub = combo[:drop] + combo[drop + 1:]
                candidates &= cplus.get(sub, set())
            cplus[combo] = candidates

        for pos, combo in enumerate(level):
            try:
                checkpoint()
                for a in sorted(cplus[combo] & set(combo)):
                    lhs = tuple(x for x in combo if x != a)
                    if not lhs:
                        continue
                    stats.candidates_checked += 1
                    checkpoint(candidates=1)
                    if valid(lhs, a):
                        if epsilon == 0.0:
                            found.append(FD(lhs, (a,)))
                        else:
                            found.append(AFD(lhs, (a,), max_error=epsilon))
                        cplus[combo].discard(a)
                        if epsilon == 0.0:
                            for b in set(names) - set(combo):
                                cplus[combo].discard(b)
            except BudgetExhausted:
                _salvage_level(
                    relation, level[pos:], cplus, epsilon, found, stats
                )
                raise

        # -- PRUNE ------------------------------------------------------
        survivors: list[tuple[str, ...]] = []
        for combo in level:
            checkpoint()
            if not cplus[combo]:
                stats.candidates_pruned += 1
                continue
            if epsilon == 0.0 and is_key(combo):
                # X is a (super)key: emit remaining minimal FDs X -> A.
                # Minimality is tested directly (is any immediate
                # subset already a determinant of A?) — the C+-based
                # shortcut of the published pseudocode is ambiguous
                # once pruned neighbours left the lattice.
                for a in sorted(cplus[combo] - set(combo)):
                    minimal = True
                    for b in combo:
                        sub = tuple(x for x in combo if x != b)
                        if not sub:
                            continue
                        stats.candidates_checked += 1
                        checkpoint(candidates=1)
                        if valid(sub, a):
                            minimal = False
                            break
                    if minimal:
                        found.append(FD(combo, (a,)))
                stats.candidates_pruned += 1
                continue
            survivors.append(combo)

        # -- GENERATE-NEXT-LEVEL ----------------------------------------
        level = generate_next_level(survivors)
        level_num += 1


def _salvage_level(
    relation: Relation,
    remaining: list[tuple[str, ...]],
    cplus: dict[tuple[str, ...], set[str]],
    epsilon: float,
    found: list,
    stats: DiscoveryStats,
) -> None:
    """Sampled verification of the level's unchecked candidates.

    Bounded (candidate and row caps inside
    :func:`~repro.runtime.budget.verify_on_sample`) so the overrun past
    a blown deadline stays small; admitted dependencies are counted in
    ``stats.sampled_verified`` and the result stays ``complete=False``.
    """
    already = {str(d) for d in found}
    pending = []
    for combo in remaining:
        for a in sorted(cplus.get(combo, set()) & set(combo)):
            lhs = tuple(x for x in combo if x != a)
            if not lhs:
                continue
            dep = (
                FD(lhs, (a,)) if epsilon == 0.0
                else AFD(lhs, (a,), max_error=epsilon)
            )
            if str(dep) not in already:
                pending.append(dep)
    admitted = verify_on_sample(relation, pending)
    found.extend(admitted)
    stats.sampled_verified += len(admitted)


def brute_force_fds(
    relation: Relation, max_lhs_size: int | None = None
) -> list[FD]:
    """All minimal non-trivial FDs by exhaustive checking (test oracle)."""
    import itertools

    names = sorted(relation.schema.names())
    if max_lhs_size is None:
        max_lhs_size = len(names) - 1
    found: list[FD] = []
    for a in names:
        others = [x for x in names if x != a]
        minimal: list[tuple[str, ...]] = []
        for size in range(1, max_lhs_size + 1):
            for lhs in itertools.combinations(others, size):
                if any(set(m) <= set(lhs) for m in minimal):
                    continue
                if FD(lhs, (a,)).holds(relation):
                    minimal.append(lhs)
                    found.append(FD(lhs, (a,)))
    return found
