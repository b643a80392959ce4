"""DD discovery — minimal DDs with data-driven distance thresholds.

Song & Chen [86] note that even the minimal DDs can be exponentially
many; practical discovery restricts the differential-function space
and prunes by subsumption.  This module implements:

* :func:`candidate_thresholds` — the parameter-free determination of
  distance thresholds [88, 89]: candidate bounds are taken from the
  observed pairwise distance distribution (quantile knee points),
  instead of being user-supplied;
* :func:`discover_dds` — search over similar-range differential
  functions on LHS/RHS attribute pairs, keeping DDs that hold with the
  tightest RHS range and the loosest LHS range (minimality in the DD
  sense), with subsumption pruning.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Sequence

from ..core.heterogeneous import DD, DifferentialFunction, Interval
from ..metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ..relation.relation import Relation
from ..runtime.budget import Budget, checkpoint, governed, resolve_budget
from ..runtime.errors import BudgetExhausted, EngineFault, ReproError
from .common import DiscoveryResult, DiscoveryStats


def _guarded_distance(metric, a, b, attribute: str) -> float:
    """One metric evaluation with fault conversion and sanity checks.

    The metric boundary is where injected (or genuine) faults surface:
    an unexpected exception or a corrupted result (negative, NaN) must
    become a typed :class:`EngineFault`, never a silently poisoned
    threshold grid.
    """
    try:
        d = metric.distance(a, b)
    except ReproError:
        raise
    except Exception as exc:
        raise EngineFault(
            f"metric {metric.name!r} failed on attribute "
            f"{attribute!r}: {exc}",
            site="metric",
        ) from exc
    if not isinstance(d, (int, float)) or d != d or d < 0:
        raise EngineFault(
            f"metric {metric.name!r} returned corrupted distance {d!r} "
            f"on attribute {attribute!r}",
            site="metric",
        )
    return d


def pairwise_distances(
    relation: Relation,
    attribute: str,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    max_pairs: int = 20000,
    seed: int = 0,
) -> list[float]:
    """Sorted pairwise distances on one attribute (sampled past a cap).

    ``seed`` drives the pair sampling past ``max_pairs`` (matching the
    ``seed=`` convention of :mod:`repro.discovery.cords`), so callers
    can vary or pin the sampled distance distribution.
    """
    metric = registry.metric_for(relation.schema[attribute])
    col = relation.column(attribute)
    n = len(col)
    out: list[float] = []
    total = n * (n - 1) // 2
    if total <= max_pairs:
        for i in range(n):
            checkpoint(pairs=n - 1 - i)
            for j in range(i + 1, n):
                out.append(_guarded_distance(metric, col[i], col[j],
                                             attribute))
    else:
        import random

        rng = random.Random(seed)
        for k in range(max_pairs):
            if k % 256 == 0:
                checkpoint(pairs=min(256, max_pairs - k))
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i != j:
                out.append(_guarded_distance(metric, col[i], col[j],
                                             attribute))
    out.sort()
    return out


def candidate_thresholds(
    distances: Sequence[float], max_candidates: int = 4
) -> list[float]:
    """Data-driven threshold candidates from a distance distribution.

    Quantile-based determination in the spirit of [88]: thresholds are
    placed at evenly spaced quantiles of the distinct finite observed
    distances, biased toward the similar (small-distance) end where
    differential functions are useful.
    """
    finite = sorted({d for d in distances if d != float("inf")})
    if not finite:
        return [0.0]
    if len(finite) <= max_candidates:
        return finite
    # Quantiles of the *distinct* distances: 25%, 50%, ... of the range.
    out: list[float] = []
    for k in range(1, max_candidates + 1):
        idx = int(len(finite) * k / (max_candidates + 1))
        out.append(finite[min(idx, len(finite) - 1)])
    return sorted(set(out))


def discover_dds(
    relation: Relation,
    lhs_attributes: Sequence[str] | None = None,
    rhs_attributes: Sequence[str] | None = None,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    max_lhs_attrs: int = 2,
    seed: int = 0,
    budget: Budget | None = None,
) -> DiscoveryResult:
    """Discover minimal similar-range DDs with data-driven thresholds.

    For each (LHS attrs, RHS attr) combination, pick the loosest LHS
    thresholds and the tightest RHS threshold such that the DD holds —
    both from the candidate grids — then prune subsumed results.

    ``seed`` feeds the pairwise-distance sampling; ``budget`` bounds
    the grid search, returning the (subsumption-pruned) DDs found so
    far on exhaustion with ``stats.complete = False``.
    """
    stats = DiscoveryStats()
    names = sorted(relation.schema.names())
    lhs_pool = sorted(lhs_attributes) if lhs_attributes else names
    rhs_pool = sorted(rhs_attributes) if rhs_attributes else names
    found: list[DD] = []
    budget = resolve_budget(budget)
    with governed(budget):
        try:
            grids = {
                a: candidate_thresholds(
                    pairwise_distances(relation, a, registry, seed=seed)
                )
                for a in set(lhs_pool) | set(rhs_pool)
            }
            _dd_grid_search(
                relation, lhs_pool, rhs_pool, grids, registry,
                max_lhs_attrs, found, stats,
            )
        except BudgetExhausted as exc:
            stats.mark_exhausted(exc.reason)
    # Subsumption pruning: drop any DD implied by another found DD.
    minimal: list[DD] = []
    for d in found:
        if not any(o is not d and o.subsumes(d) for o in found):
            minimal.append(d)
    stats.candidates_pruned += len(found) - len(minimal)
    return DiscoveryResult(
        dependencies=minimal, stats=stats, algorithm="DD-discovery"
    )


def _dd_grid_search(
    relation: Relation,
    lhs_pool: list[str],
    rhs_pool: list[str],
    grids: dict[str, list[float]],
    registry: MetricRegistry,
    max_lhs_attrs: int,
    found: list[DD],
    stats: DiscoveryStats,
) -> None:
    from itertools import product

    for size in range(1, max_lhs_attrs + 1):
        stats.levels = size
        for lhs in combinations(lhs_pool, size):
            for rhs in rhs_pool:
                if rhs in lhs:
                    continue
                # Search the LHS threshold-grid product loosest-first
                # (larger thresholds = wider applicability), and for
                # each LHS the RHS grid tightest-first; keep the first
                # hit — the widest-applicability, tightest-consequence
                # DD for this attribute combination.
                lhs_grids = [
                    sorted(grids[a], reverse=True) for a in lhs
                ]
                best: DD | None = None
                for lhs_ts in product(*lhs_grids):
                    lhs_fn = DifferentialFunction(
                        {
                            a: Interval.at_most(t)
                            for a, t in zip(lhs, lhs_ts, strict=True)
                        }
                    )
                    for rhs_t in grids[rhs]:
                        stats.candidates_checked += 1
                        # The plan kernels charge the pairs they
                        # actually examine inside ``holds``.
                        checkpoint(candidates=1)
                        cand = DD(
                            lhs_fn,
                            DifferentialFunction(
                                {rhs: Interval.at_most(rhs_t)}
                            ),
                            registry=registry,
                        )
                        if cand.holds(relation):
                            best = cand
                            break
                    if best is not None:
                        break
                if best is not None:
                    found.append(best)
                else:
                    stats.candidates_pruned += 1
