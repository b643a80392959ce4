"""Comparable dependencies (CDs) — Section 3.4.

CDs declare constraints across *heterogeneous attribute names*: a
similarity function ``θ(Ai, Aj)`` carries three similarity operators —
within-``Ai``, cross ``Ai``/``Aj``, and within-``Aj`` — and two tuples
are similar w.r.t. θ when **at least one** of the three evaluates true.
A CD ``∧ θ(Ai, Aj) -> θ(Bi, Bj)`` requires RHS similarity whenever all
LHS similarity functions agree.

Worked example (Section 3.4.1): a dataspace with synonym attributes
(region/city, addr/post); ``cd1: θ(region, city) -> θ(addr, post)``.

NEDs are the special case where each θ is defined over a single
attribute (Section 3.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ...metrics.base import Metric
from ...metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ...relation.relation import Relation
from ..base import DependencyError, PairwiseDependency
from .ned import NED


@dataclass(frozen=True)
class SimilarityFunction:
    """``θ(Ai, Aj)``: three thresholded comparisons over two attributes.

    Thresholds are *distance* upper bounds; ``None`` disables a
    comparison (the paper's θ may omit operators).  ``attr_j`` may equal
    ``attr_i`` for the single-attribute (NED-compatible) case.
    """

    attr_i: str
    attr_j: str
    threshold_ii: float | None = None
    threshold_ij: float | None = None
    threshold_jj: float | None = None
    metric: Metric | None = None

    def __post_init__(self) -> None:
        if (
            self.threshold_ii is None
            and self.threshold_ij is None
            and self.threshold_jj is None
        ):
            raise DependencyError(
                f"θ({self.attr_i}, {self.attr_j}) needs >= 1 operator"
            )

    def _metric(self, relation: Relation, registry: MetricRegistry) -> Metric:
        if self.metric is not None:
            return self.metric
        return registry.metric_for(relation.schema[self.attr_i])

    def similar(
        self,
        relation: Relation,
        i: int,
        j: int,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> bool:
        """At least one of the three comparisons within its threshold.

        Missing values (``None``) make a comparison fail, never succeed,
        so dataspace tuples lacking an attribute fall through to the
        other comparisons — the tolerance CDs were designed for.
        """
        metric = self._metric(relation, registry)
        vi_i = relation.value_at(i, self.attr_i)
        vj_i = relation.value_at(j, self.attr_i)
        vi_j = relation.value_at(i, self.attr_j) if self.attr_j in relation.schema else None
        vj_j = relation.value_at(j, self.attr_j) if self.attr_j in relation.schema else None

        checks: list[bool] = []
        if self.threshold_ii is not None and vi_i is not None and vj_i is not None:
            checks.append(metric.within(vi_i, vj_i, self.threshold_ii))
        if self.threshold_ij is not None:
            # Cross comparison: i's Ai against j's Aj, and symmetrically.
            if vi_i is not None and vj_j is not None:
                checks.append(metric.within(vi_i, vj_j, self.threshold_ij))
            if vi_j is not None and vj_i is not None:
                checks.append(metric.within(vi_j, vj_i, self.threshold_ij))
        if self.threshold_jj is not None and vi_j is not None and vj_j is not None:
            checks.append(metric.within(vi_j, vj_j, self.threshold_jj))
        return any(checks)

    def __str__(self) -> str:
        parts = []
        if self.threshold_ii is not None:
            parts.append(f"{self.attr_i} ≈_{self.threshold_ii:g} {self.attr_i}")
        if self.threshold_ij is not None:
            parts.append(f"{self.attr_i} ≈_{self.threshold_ij:g} {self.attr_j}")
        if self.threshold_jj is not None:
            parts.append(f"{self.attr_j} ≈_{self.threshold_jj:g} {self.attr_j}")
        return f"θ({self.attr_i}, {self.attr_j}): [{', '.join(parts)}]"


class CD(PairwiseDependency):
    """A comparable dependency ``∧ θ(Ai, Aj) -> θ(Bi, Bj)``."""

    kind = "CD"

    def __init__(
        self,
        lhs: Sequence[SimilarityFunction],
        rhs: SimilarityFunction,
        *,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.lhs = tuple(lhs)
        if not self.lhs:
            raise DependencyError("CD left-hand side must be non-empty")
        self.rhs = rhs
        self.registry = registry

    def __str__(self) -> str:
        left = " ∧ ".join(
            f"θ({f.attr_i}, {f.attr_j})" for f in self.lhs
        )
        return f"{left} -> θ({self.rhs.attr_i}, {self.rhs.attr_j})"

    def __repr__(self) -> str:
        return f"CD({self.lhs!r}, {self.rhs!r})"

    def attributes(self) -> tuple[str, ...]:
        names: list[str] = []
        for f in list(self.lhs) + [self.rhs]:
            names.extend([f.attr_i, f.attr_j])
        return tuple(dict.fromkeys(names))

    def validate_schema(self, schema) -> None:
        # CDs reference synonym attributes that may be absent from a
        # given source's schema; only the primary attribute must exist.
        primary = [f.attr_i for f in list(self.lhs) + [self.rhs]]
        schema.resolve(tuple(dict.fromkeys(primary)))

    # -- semantics ----------------------------------------------------------

    def pair_violation(self, relation: Relation, i: int, j: int) -> str | None:
        for f in self.lhs:
            if not f.similar(relation, i, j, self.registry):
                return None
        if self.rhs.similar(relation, i, j, self.registry):
            return None
        return (
            f"all LHS similarity functions agree but "
            f"θ({self.rhs.attr_i}, {self.rhs.attr_j}) fails"
        )

    # -- measures (Section 3.4.3: g3-error and confidence are NP-complete
    #    to optimize; these evaluate a *given* CD, which is polynomial) -----

    def g3_error(self, relation: Relation) -> float:
        """Greedy upper bound on the removal fraction to satisfy the CD.

        Exact minimization is NP-complete [91]; we greedily drop the
        tuple participating in most violations until none remain — the
        standard vertex-cover-style heuristic.
        """
        pairs = self.violating_pairs(relation)
        if not pairs:
            return 0.0
        removed: set[int] = set()
        remaining = set(pairs)
        while remaining:
            counts: dict[int, int] = {}
            for a, b in remaining:
                counts[a] = counts.get(a, 0) + 1
                counts[b] = counts.get(b, 0) + 1
            worst = max(counts, key=counts.get)
            removed.add(worst)
            remaining = {
                p for p in remaining if worst not in p
            }
        return len(removed) / len(relation)

    def _lhs_agrees(self, relation: Relation, i: int, j: int) -> bool:
        return all(
            f.similar(relation, i, j, self.registry) for f in self.lhs
        )

    def confidence(self, relation: Relation) -> float:
        """Fraction of LHS-agreeing pairs that also satisfy the RHS."""
        from ...plan import guard_pairs

        agreeing = guard_pairs(self, relation, self._lhs_agrees)
        good = sum(
            1
            for i, j in agreeing
            if self.rhs.similar(relation, i, j, self.registry)
        )
        return good / len(agreeing) if agreeing else 1.0

    # -- family tree ----------------------------------------------------------

    @classmethod
    def from_ned(cls, dep: NED) -> "CD":
        """Embed an NED as the single-attribute-θ CD (Fig. 1 edge).

        Each NED predicate ``A^α`` becomes ``θ(A, A): [A ≈_α A]``.  A CD
        has exactly one RHS similarity function, so NEDs with several
        RHS predicates must be split into one CD per RHS attribute
        (their conjunction is equivalent to the original NED).
        """
        if len(dep.rhs) != 1:
            raise DependencyError(
                "CD embedding expects a single-RHS NED; split the NED"
            )
        lhs = [
            SimilarityFunction(
                p.attribute,
                p.attribute,
                threshold_ii=p.threshold,
                metric=p.metric,
            )
            for p in dep.lhs
        ]
        p = dep.rhs[0]
        rhs = SimilarityFunction(
            p.attribute, p.attribute, threshold_ii=p.threshold, metric=p.metric
        )
        return cls(lhs, rhs, registry=dep.registry)
