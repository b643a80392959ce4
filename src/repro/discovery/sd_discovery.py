"""SD confidence and CSD tableau discovery (Golab et al. [48]).

Two pieces, matching Section 4.4:

* :func:`sd_confidence` — an SD's confidence relates to the minimum
  edits (deletions/insertions) to make it hold; computed via the
  longest valid run (O(n²) DP, delegated to :meth:`SD.confidence`).
* :func:`discover_csd_tableau` — the polynomial-time CSD tableau
  construction: among candidate intervals of the ordered attribute,
  pick a set of disjoint intervals maximizing covered tuples subject to
  each interval's confidence clearing a threshold — exact dynamic
  programming, quadratic in the number of candidate intervals.  This is
  the family tree's *tractable* discovery problem (Fig. 3), in contrast
  to the NP-complete CFD-family tableau generation.
* :func:`discover_sds` — fit minimal gap intervals for attribute pairs.
"""

from __future__ import annotations

import math

from ..core.heterogeneous.constraints import Interval
from ..core.numerical import CSD, SD
from ..relation.relation import Relation
from .common import DiscoveryResult, DiscoveryStats


def sd_confidence(relation: Relation, sd: SD) -> float:
    """Confidence of an SD on a relation (longest-valid-run based)."""
    return sd.confidence(relation)


def discover_csd_tableau(
    relation: Relation,
    sd: SD,
    min_confidence: float = 1.0,
    min_width: int = 2,
) -> CSD | None:
    """Exact DP tableau construction for a CSD (quadratic time).

    Let the tuples be sorted on X.  ``best[k]`` = maximum tuples
    covered by disjoint good intervals ending at or before position k.
    For each position the DP either skips the tuple or ends a good
    interval there — quadratic in the candidate intervals, exactly the
    complexity the paper quotes.  Returns None when no interval
    qualifies.
    """
    if len(sd.lhs) != 1:
        raise ValueError("CSD tableau needs a single ordered attribute")
    order = sd.sorted_indices(relation)
    n = len(order)
    if n == 0:
        return None
    xs = [float(relation.values_at(i, sd.lhs)[0]) for i in order]

    # good[a][b]: does the SD hold (confidence >= threshold) on span a..b?
    conf: dict[tuple[int, int], float] = {}
    for a in range(n):
        for b in range(a + min_width - 1, n):
            sub = relation.take(order[a: b + 1])
            conf[(a, b)] = sd.confidence(sub)

    best = [0] * (n + 1)  # best[k]: coverage using positions < k
    choice: list[tuple[int, int] | None] = [None] * (n + 1)
    for k in range(1, n + 1):
        best[k] = best[k - 1]
        choice[k] = None
        for a in range(0, k - min_width + 1):
            b = k - 1
            c = conf.get((a, b))
            if c is not None and c >= min_confidence:
                cover = best[a] + (b - a + 1)
                if cover > best[k]:
                    best[k] = cover
                    choice[k] = (a, b)
    # Reconstruct chosen intervals.
    intervals: list[Interval] = []
    k = n
    while k > 0:
        if choice[k] is None:
            k -= 1
        else:
            a, b = choice[k]
            intervals.append(Interval(xs[a], xs[b]))
            k = a
    intervals.reverse()
    if not intervals:
        return None
    return CSD(sd.lhs[0], sd.rhs, sd.gap, intervals)


def fit_gap_interval(
    relation: Relation, lhs: str, rhs: str, slack: float = 0.0
) -> Interval:
    """The tightest gap interval making ``lhs ->_g rhs`` hold.

    ``slack`` widens both ends (fractional, relative to the span) to
    avoid overfitting the exact extremes.
    """
    probe = SD(lhs, rhs, (None, None))
    gaps = [g for __, __, g in probe.consecutive_gaps(relation)]
    if not gaps:
        return Interval(-math.inf, math.inf)
    low, high = min(gaps), max(gaps)
    pad = (high - low) * slack
    return Interval(low - pad, high + pad)


def discover_sds(
    relation: Relation,
    max_relative_span: float = 0.5,
    min_confidence: float = 1.0,
) -> DiscoveryResult:
    """Find SDs with *informative* (narrow) gap intervals.

    An SD whose fitted gap spans less than ``max_relative_span`` of the
    dependent attribute's total range is considered informative ("the
    subtotal raises within [100, 200]"-style); wider fits are noise.
    """
    stats = DiscoveryStats()
    names = sorted(
        a.name for a in relation.schema.numerical_attributes()
    )
    found: list[SD] = []
    for lhs in names:
        for rhs in names:
            if lhs == rhs:
                continue
            stats.candidates_checked += 1
            gap = fit_gap_interval(relation, lhs, rhs)
            col = [
                float(v) for v in relation.column(rhs) if v is not None
            ]
            if not col or gap.high == math.inf or gap.low == -math.inf:
                stats.candidates_pruned += 1
                continue
            value_span = max(col) - min(col)
            if value_span <= 0:
                stats.candidates_pruned += 1
                continue
            if (gap.high - gap.low) / value_span > max_relative_span:
                stats.candidates_pruned += 1
                continue
            sd = SD(lhs, rhs, gap)
            if sd.confidence(relation) >= min_confidence:
                found.append(sd)
    return DiscoveryResult(
        dependencies=found, stats=stats, algorithm="SD-fit"
    )
