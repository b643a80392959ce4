"""MD discovery — support/confidence threshold search (Song & Chen).

[85, 87]: an MD is *useful* when its LHS similarity predicate has
enough **support** (it fires on enough pairs) and **confidence** (the
pairs it fires on are largely already identified on the RHS).  The
exact algorithm sweeps candidate thresholds from the observed distance
distribution; the approximation processes only the first k tuples and
inherits statistical error bounds on support/confidence.

Also here: the concise matching-key selection of [90] — greedily pick
a small set of relative candidate keys covering the matching pairs.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Sequence

from ..core.heterogeneous import MD, SimilarityPredicate
from ..metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ..relation.relation import Relation
from ..runtime.budget import Budget, checkpoint, governed, resolve_budget
from ..runtime.errors import BudgetExhausted
from .common import DiscoveryResult, DiscoveryStats, match_evidence
from .dd_discovery import candidate_thresholds, pairwise_distances


def discover_mds(
    relation: Relation,
    rhs: str,
    lhs_attributes: Sequence[str] | None = None,
    min_support: float = 0.01,
    min_confidence: float = 0.8,
    max_lhs_attrs: int = 2,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    seed: int = 0,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Exact MD discovery for a fixed identification target ``rhs``.

    Sweeps threshold grids per LHS attribute (from the pairwise
    distance distribution) and keeps the *tightest* thresholds per
    attribute set meeting both support and confidence — tighter LHS
    thresholds fire on fewer, more-similar pairs, so they are the
    conservative matching rules of record-matching practice.

    ``seed`` feeds the pairwise-distance sampling; on ``budget``
    exhaustion the MDs found so far come back with
    ``stats.complete = False``.
    """
    stats = DiscoveryStats()
    names = sorted(relation.schema.names())
    pool = sorted(lhs_attributes) if lhs_attributes else [
        a for a in names if a != rhs
    ]
    found: list[MD] = []
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            grids = {
                a: candidate_thresholds(
                    pairwise_distances(relation, a, registry, seed=seed)
                )
                for a in pool
            }
            _md_threshold_sweep(
                relation, rhs, pool, grids, min_support, min_confidence,
                max_lhs_attrs, registry, found, stats,
            )
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    return DiscoveryResult(
        dependencies=found, stats=stats, algorithm="MD-exact"
    )


def _md_threshold_sweep(
    relation: Relation,
    rhs: str,
    pool: list[str],
    grids: dict[str, list[float]],
    min_support: float,
    min_confidence: float,
    max_lhs_attrs: int,
    registry: MetricRegistry,
    found: list[MD],
    stats: DiscoveryStats,
) -> None:
    for size in range(1, max_lhs_attrs + 1):
        stats.levels = size
        for attrs in combinations(pool, size):
            best: MD | None = None
            # Tightest-first per attribute: iterate the grid products in
            # ascending threshold order (small thresholds first).
            def search(idx: int, chosen: dict[str, float]) -> MD | None:
                nonlocal best
                if idx == len(attrs):
                    stats.candidates_checked += 1
                    # Kernels charge examined pairs inside
                    # support/confidence themselves.
                    checkpoint(candidates=1)
                    cand = MD(
                        [
                            SimilarityPredicate(a, t)
                            for a, t in chosen.items()
                        ],
                        rhs,
                        registry=registry,
                    )
                    if (
                        cand.support(relation) >= min_support
                        and cand.confidence(relation) >= min_confidence
                    ):
                        return cand
                    return None
                for t in grids[attrs[idx]]:
                    chosen[attrs[idx]] = t
                    hit = search(idx + 1, chosen)
                    del chosen[attrs[idx]]
                    if hit is not None:
                        return hit
                return None

            best = search(0, {})
            if best is not None:
                found.append(best)
            else:
                stats.candidates_pruned += 1


def discover_mds_approximate(
    relation: Relation,
    rhs: str,
    k: int = 100,
    **kwargs,
) -> DiscoveryResult:
    """Approximate MD discovery over the first ``k`` tuples [85].

    Statistical-distribution traversal: support/confidence measured on
    the prefix estimate the full-data values with bounded relative
    error; the returned MDs carry thresholds fitted on the prefix.
    """
    prefix = relation.take(list(range(min(k, len(relation)))))
    result = discover_mds(prefix, rhs, **kwargs)
    result.algorithm = f"MD-approx(k={k})"
    return result


def concise_matching_keys(
    relation: Relation,
    candidates: Sequence[MD],
    target_pairs: Sequence[tuple[int, int]],
    max_keys: int | None = None,
) -> list[MD]:
    """Greedy concise key set: cover the target pairs with few MDs [90].

    Deciding whether ``k`` keys suffice is NP-complete; the greedy
    set-cover heuristic picks, each round, the candidate covering the
    most still-uncovered target pairs.
    """
    uncovered = set(target_pairs)
    chosen: list[MD] = []
    remaining = list(candidates)
    # Each candidate's match set is collected once through its guard
    # plan; greedy rounds then intersect sets instead of re-running the
    # similarity metric per (candidate, pair).
    match_sets = {
        id(md): match_evidence(md, relation) for md in remaining
    }
    while uncovered and remaining and (
        max_keys is None or len(chosen) < max_keys
    ):
        best = None
        best_cover: set[tuple[int, int]] = set()
        for md in remaining:
            # Match sets hold i < j pairs; accept either orientation in
            # the caller-supplied targets (similarity is symmetric).
            cover = {
                p
                for p in uncovered
                if (min(p), max(p)) in match_sets[id(md)]
            }
            if len(cover) > len(best_cover):
                best, best_cover = md, cover
        if best is None or not best_cover:
            break
        chosen.append(best)
        remaining.remove(best)
        uncovered -= best_cover
    return chosen
