"""FastFD — FD discovery via difference sets and depth-first covers.

Wyss et al. [112]: compute *difference sets* — for every tuple pair,
the set of attributes on which the pair disagrees.  An FD ``X -> A``
holds iff every difference set containing ``A`` also intersects ``X``;
minimal FDs correspond to minimal covers of the difference sets, found
by depth-first search.

FastFD's cost is driven by the number of tuple *pairs* (vs TANE's
per-level partitions) — the classic row/column trade-off the Perf-1
benchmark demonstrates.
"""

from __future__ import annotations


from ..core.categorical import FD
from ..relation.relation import Relation
from ..runtime.budget import (
    Budget,
    checkpoint,
    governed,
    resolve_budget,
    verify_on_sample,
)
from ..runtime.errors import BudgetExhausted, EngineFault, ReproError
from .common import DiscoveryResult, DiscoveryStats


def difference_sets(relation: Relation) -> set[frozenset[str]]:
    """Distinct attribute sets on which some tuple pair disagrees.

    The agree-set complement formulation of FastFD: O(n²) pairs, but
    deduplicated into the (usually far smaller) set of distinct
    difference sets that drives the cover search.

    The O(n²·k) pair sweep runs over the dictionary-encoded integer
    code vectors (one ``!=`` broadcast + bitmask reduction per anchor
    tuple) instead of Python value tuples; the value-tuple path remains
    for relations the kernel cannot encode faithfully (NaN-like values,
    > 62 attributes).
    """
    names = relation.schema.names()
    if len(relation) >= 2 and names:
        # One checkpoint for the whole vectorized sweep: the kernel is
        # a single C-speed pass we cannot interrupt mid-flight.
        checkpoint(pairs=len(relation) * (len(relation) - 1) // 2)
        idxs = tuple(range(len(names)))
        try:
            masks = relation.encoding().difference_masks(idxs)
        except ReproError:
            raise
        except Exception as exc:
            raise EngineFault(
                f"encoded difference-mask kernel failed: {exc}",
                site="encoding",
            ) from exc
        if masks is not None:
            return {
                frozenset(
                    names[c] for c in range(len(names)) if (m >> c) & 1
                )
                for m in masks
            }
    return _difference_sets_naive(relation)


def _difference_sets_naive(relation: Relation) -> set[frozenset[str]]:
    """Value-tuple difference sets: the fallback when the encoded
    kernel declines, and the parity reference for it."""
    names = relation.schema.names()
    out: set[frozenset[str]] = set()
    rows = relation.rows()
    n = len(rows)
    for i in range(n):
        checkpoint(pairs=n - 1 - i)
        for j in range(i + 1, n):
            diff = frozenset(
                names[c]
                for c, (a, b) in enumerate(zip(rows[i], rows[j], strict=True))
                if a != b
            )
            if diff:
                out.add(diff)
    return out


def _minimal_covers(
    sets_to_cover: list[frozenset[str]],
    attributes: list[str],
    prefix: tuple[str, ...],
    stats: DiscoveryStats,
    out: list[tuple[str, ...]],
) -> None:
    """Depth-first search for minimal hitting sets (FastFD's core).

    ``attributes`` is the ordered pool still allowed to be chosen; the
    ordering fixes a canonical search tree so each cover is found once.
    """
    stats.candidates_checked += 1
    checkpoint(candidates=1)
    uncovered = [s for s in sets_to_cover if not (s & set(prefix))]
    if not uncovered:
        # prefix is a cover; minimal iff removing any element uncovers.
        for drop in range(len(prefix)):
            reduced = set(prefix[:drop] + prefix[drop + 1:])
            if all(s & reduced for s in sets_to_cover):
                stats.candidates_pruned += 1
                return
        out.append(prefix)
        return
    # Choose attributes appearing in uncovered sets, in pool order.
    for k, a in enumerate(attributes):
        if any(a in s for s in uncovered):
            _minimal_covers(
                sets_to_cover, attributes[k + 1:], prefix + (a,), stats, out
            )


def fastfd(
    relation: Relation, budget: Budget | None = None
) -> DiscoveryResult:
    """Discover all minimal non-trivial single-RHS FDs.

    Budget-governed: on exhaustion the FDs of the RHS attributes
    already processed are returned (``stats.complete = False``), and
    the unprocessed RHS attributes get a sampled single-determinant
    fallback so no attribute is dropped without any answer.
    """
    stats = DiscoveryStats()
    names = sorted(relation.schema.names())
    found: list[FD] = []
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            diffs = difference_sets(relation)
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
            _salvage_rhs(relation, names, names, found, stats)
            return DiscoveryResult(
                dependencies=found, stats=stats, algorithm="FastFD"
            )
        for pos, a in enumerate(names):
            try:
                checkpoint()
                relevant = [s - {a} for s in diffs if a in s]
                if any(not s for s in relevant):
                    # Some pair differs *only* on A: no FD X -> A can
                    # hold (any X agrees on that pair while A differs).
                    continue
                if not relevant:
                    # No pair ever differs on A: every attribute
                    # determines A; minimal FDs are B -> A for each
                    # single attribute.
                    found.extend(FD((b,), (a,)) for b in names if b != a)
                    continue
                pool = [b for b in names if b != a]
                covers: list[tuple[str, ...]] = []
                _minimal_covers(
                    sorted(relevant, key=len), pool, (), stats, covers
                )
                found.extend(FD(c, (a,)) for c in covers)
            except BudgetExhausted as exc:
                stats.mark_exhausted(exc.reason)
                _salvage_rhs(relation, names[pos:], names, found, stats)
                break
    return DiscoveryResult(
        dependencies=found, stats=stats, algorithm="FastFD"
    )


def _salvage_rhs(
    relation: Relation,
    pending_rhs: list[str],
    names: list[str],
    found: list[FD],
    stats: DiscoveryStats,
) -> None:
    """Sampled single-determinant FDs for unprocessed RHS attributes."""
    already = {str(d) for d in found}
    pending = [
        FD((b,), (a,))
        for a in pending_rhs
        for b in names
        if b != a and str(FD((b,), (a,))) not in already
    ]
    admitted = verify_on_sample(relation, pending)
    found.extend(admitted)
    stats.sampled_verified += len(admitted)
