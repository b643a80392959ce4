"""CORDS — sample-based SFD and correlation discovery.

Ilyas et al. [55]: for each column pair (C1, C2), take a sample, count
distinct values, and

* declare a **soft FD** ``C1 -> C2`` when the strength
  ``|dom(C1)| / |dom(C1, C2)|`` on the sample clears a threshold;
* flag **correlation** via a robust chi-square test on the contingency
  table of frequent values.

The sample size is "basically independent of the database size", which
is what makes CORDS scalable; :func:`cords` therefore works on a
seeded sample of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ..core.categorical import SFD
from ..relation.encoding import ColumnCodes
from ..relation.relation import Relation
from .common import DiscoveryResult, DiscoveryStats


@dataclass
class ColumnPairAnalysis:
    """CORDS' verdict on one ordered column pair."""

    determinant: str
    dependent: str
    strength: float
    chi_square: float
    degrees_of_freedom: int
    correlated: bool


def chi_square_statistic(
    relation: Relation, col1: str, col2: str, max_categories: int = 20
) -> tuple[float, int]:
    """Chi-square independence statistic over the top value categories.

    Values beyond the ``max_categories`` most frequent ones per column
    are pooled into an "other" bucket — CORDS' robustness device
    against skew and high cardinality.

    The contingency table comes from the relation's ``(col1, col2)``
    code table: one cell increment per joint value group, not per row.
    The statistic is then summed in row-major order, exactly as the
    per-row reference in the tests does, so it is equal bit for bit.
    """
    n = len(relation)
    if n == 0:
        return 0.0, 0
    enc = relation.encoding()
    j1 = relation.schema.index_of(col1)
    j2 = relation.schema.index_of(col2)
    codes1 = enc.column_codes(j1)
    codes2 = enc.column_codes(j2)
    cat1, rows = _categories(codes1, max_categories)
    cat2, cols = _categories(codes2, max_categories)
    joint = enc.contingency((j1,), (j2,))
    cells = np.bincount(
        cat1[codes1.array()[joint.first]] * cols
        + cat2[codes2.array()[joint.first]],
        weights=joint.sizes,
        minlength=rows * cols,
    )
    table = cells.reshape(rows, cols).tolist()
    row_sums = [sum(r) for r in table]
    col_sums = [sum(c) for c in zip(*table)]
    # Drop empty rows/cols from the dof count.
    live_rows = sum(1 for s in row_sums if s > 0)
    live_cols = sum(1 for s in col_sums if s > 0)
    stat = 0.0
    for row_sum, row in zip(row_sums, table):
        for col_sum, cell in zip(col_sums, row):
            expected = row_sum * col_sum / n
            if expected > 0:
                stat += (cell - expected) ** 2 / expected
    dof = max((live_rows - 1) * (live_cols - 1), 1)
    return stat, dof


def _categories(codes: ColumnCodes, k: int) -> tuple[np.ndarray, int]:
    """``(category of each code, number of categories)``: the ``k``
    most frequent codes in order (ties by first occurrence), then one
    "other" category for the rest."""
    counts = np.bincount(codes.array(), minlength=codes.n_distinct)
    top = np.argsort(-counts, kind="stable")[:k]
    category = np.full(codes.n_distinct, len(top), dtype=np.int64)
    category[top] = np.arange(len(top))
    return category, len(top) + 1


def _chi_square_critical(dof: int, alpha: float = 0.01) -> float:
    """Approximate critical value via the Wilson-Hilferty transform.

    chi2_crit ≈ dof * (1 - 2/(9 dof) + z * sqrt(2/(9 dof)))³ with z the
    standard-normal quantile; z(0.99) ≈ 2.326, z(0.95) ≈ 1.645.
    """
    z = 2.326 if alpha <= 0.01 else 1.645
    k = 2.0 / (9.0 * dof)
    return dof * (1.0 - k + z * math.sqrt(k)) ** 3


def cords(
    relation: Relation,
    strength_threshold: float = 0.9,
    sample_size: int = 2000,
    alpha: float = 0.01,
    seed: int = 0,
) -> DiscoveryResult:
    """Discover SFDs (and correlations) over all ordered column pairs.

    Returns SFDs whose sample strength is >= ``strength_threshold``.
    The full per-pair analyses (including chi-square correlation
    verdicts) are attached as ``result.analyses``.
    """
    stats = DiscoveryStats()
    sample = relation.sample(sample_size, seed=seed)
    names = sorted(relation.schema.names())
    found: list[SFD] = []
    analyses: list[ColumnPairAnalysis] = []
    for c1, c2 in permutations(names, 2):
        stats.candidates_checked += 1
        candidate = SFD((c1,), (c2,), strength=strength_threshold)
        strength = candidate.measure(sample)
        chi, dof = chi_square_statistic(sample, c1, c2)
        # dof is 0 only on an empty relation: nothing is correlated.
        correlated = dof > 0 and chi > _chi_square_critical(dof, alpha)
        analyses.append(
            ColumnPairAnalysis(c1, c2, strength, chi, dof, correlated)
        )
        if strength >= strength_threshold:
            found.append(SFD((c1,), (c2,), strength=strength_threshold))
    result = DiscoveryResult(
        dependencies=found, stats=stats, algorithm="CORDS"
    )
    result.analyses = analyses
    return result
