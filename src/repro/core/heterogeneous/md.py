"""Matching dependencies (MDs) — Section 3.7 — and conditional MDs.

An MD ``X≈ -> Y⇌`` states: tuples *similar* on the determinant
attributes ``X`` (per-attribute similarity operators with thresholds)
should be *identified* (matched) on ``Y``.  MDs are the constraint
language of record matching; on a single relation, "identified" means
the ``Y``-values agree (the matching operator ⇌ asserts they refer to
the same value and directs dynamic identification).

Worked example (Table 6): ``md1: street≈, region≈ -> zip⇌`` with edit
distance <= 5 on street and <= 2 on region identifies t5/t6's zips.

:class:`CMD` (Section 3.7.5) conditions an MD on a categorical pattern,
like CFDs condition FDs.  :class:`RelativeCandidateKey` captures the
minimal matching keys of [90].
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ...metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ...relation.relation import Relation
from ..base import DependencyError, PairwiseDependency, format_attrs
from ..categorical.fd import FD
from ..categorical.pattern import Pattern
from .constraints import SimilarityPredicate, coerce_predicates


class MD(PairwiseDependency):
    """A matching dependency ``X≈ -> Y⇌``."""

    kind = "MD"

    def __init__(
        self,
        lhs: Mapping[str, float] | Sequence[SimilarityPredicate],
        rhs: Sequence[str] | str,
        *,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.lhs = coerce_predicates(lhs)
        if not self.lhs:
            raise DependencyError("MD left-hand side must be non-empty")
        if isinstance(rhs, str):
            rhs = [rhs]
        self.rhs = tuple(rhs)
        if not self.rhs:
            raise DependencyError("MD right-hand side must be non-empty")
        self.registry = registry

    def __str__(self) -> str:
        left = ", ".join(f"{p.attribute}≈{p.threshold:g}" for p in self.lhs)
        right = ", ".join(f"{a}⇌" for a in self.rhs)
        return f"{left} -> {right}"

    def __repr__(self) -> str:
        return f"MD({self.lhs!r}, {self.rhs!r})"

    def attributes(self) -> tuple[str, ...]:
        return tuple(
            dict.fromkeys([p.attribute for p in self.lhs] + list(self.rhs))
        )

    # -- semantics ----------------------------------------------------------

    def similar_on_lhs(self, relation: Relation, i: int, j: int) -> bool:
        return all(
            p.satisfied(relation, i, j, self.registry) for p in self.lhs
        )

    def identified_on_rhs(self, relation: Relation, i: int, j: int) -> bool:
        return relation.values_at(i, self.rhs) == relation.values_at(
            j, self.rhs
        )

    def pair_violation(self, relation: Relation, i: int, j: int) -> str | None:
        if not self.similar_on_lhs(relation, i, j):
            return None
        if self.identified_on_rhs(relation, i, j):
            return None
        return (
            f"similar on {format_attrs(p.attribute for p in self.lhs)} "
            f"but not identified on {format_attrs(self.rhs)}"
        )

    def matches(self, relation: Relation) -> list[tuple[int, int]]:
        """All pairs the MD asserts should be identified (LHS-similar)."""
        from ...plan import guard_pairs

        return guard_pairs(self, relation, self.similar_on_lhs)

    # -- evaluation measures (discovery objectives, Section 3.7.3) -----------

    def support(self, relation: Relation) -> float:
        """Fraction of tuple pairs that are LHS-similar."""
        n = len(relation)
        total = n * (n - 1) // 2
        if total == 0:
            return 0.0
        return len(self.matches(relation)) / total

    def confidence(self, relation: Relation) -> float:
        """Fraction of LHS-similar pairs already identified on RHS."""
        matched = self.matches(relation)
        if not matched:
            return 1.0
        good = sum(
            1 for i, j in matched if self.identified_on_rhs(relation, i, j)
        )
        return good / len(matched)

    # -- family tree -----------------------------------------------------------

    @classmethod
    def from_fd(cls, dep: FD) -> "MD":
        """Embed an FD as the MD with exact-match similarity (Fig. 1).

        Threshold 0 under the discrete metric means "similar iff
        equal", and the matching operator over a single relation means
        value equality — together exactly the FD semantics.
        """
        from ...metrics.numeric import DISCRETE

        lhs = [SimilarityPredicate(a, 0.0, DISCRETE) for a in dep.lhs]
        return cls(lhs, list(dep.rhs))


class CMD(MD):
    """A conditional matching dependency — an MD plus a condition.

    The matching rule applies only to pairs whose tuples both match the
    categorical condition pattern (Section 3.7.5).
    """

    kind = "CMD"

    def __init__(
        self,
        lhs: Mapping[str, float] | Sequence[SimilarityPredicate],
        rhs: Sequence[str] | str,
        condition: Pattern | Mapping[str, object] | None = None,
        *,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        super().__init__(lhs, rhs, registry=registry)
        self.condition = (
            condition if isinstance(condition, Pattern) else Pattern(condition)
        )

    def __str__(self) -> str:
        cond = ", ".join(
            f"{a}={e}" for a, e in self.condition.entries().items()
        )
        base = super().__str__()
        return f"[{cond}] {base}" if cond else base

    def __repr__(self) -> str:
        return f"CMD({self.lhs!r}, {self.rhs!r}, {self.condition!r})"

    def attributes(self) -> tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                super().attributes() + tuple(self.condition.entries())
            )
        )

    def matches_condition(self, relation: Relation, i: int) -> bool:
        # Targeted reads: only the condition's own columns, so column
        # routing by attributes() stays faithful.
        attrs = tuple(self.condition.entries())
        record = {a: relation.value_at(i, a) for a in attrs}
        return self.condition.matches(record, attrs)

    def pair_violation(self, relation: Relation, i: int, j: int) -> str | None:
        if not (
            self.matches_condition(relation, i)
            and self.matches_condition(relation, j)
        ):
            return None
        return super().pair_violation(relation, i, j)

    def g3_error(self, relation: Relation) -> float:
        """Greedy bound on the removal fraction making the CMD hold.

        Deciding ``g3 <= e`` exactly is NP-complete [110]; the greedy
        max-degree vertex cover gives the standard upper bound.
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
            remaining = {p for p in remaining if worst not in p}
        return len(removed) / len(relation)

    @classmethod
    def from_md(cls, dep: MD) -> "CMD":
        """Embed an MD as the CMD with the match-all condition."""
        return cls(dep.lhs, list(dep.rhs), None, registry=dep.registry)


def md_implies(general: MD, specific: MD) -> bool:
    """Sound implication test between two MDs ([37]'s deduction core).

    ``general`` implies ``specific`` when every pair that fires
    ``specific``'s LHS also fires ``general``'s LHS (so the matching
    conclusion transfers) and ``general`` identifies at least the
    attributes ``specific`` identifies.  LHS containment holds when
    every predicate of ``general`` is dominated by a *tighter* one of
    ``specific`` on the same attribute (assuming matching metrics).

    Sound but not complete: genuine MD deduction also uses similarity-
    metric properties; this covers the threshold-dominance fragment.
    """
    if not set(specific.rhs) <= set(general.rhs):
        return False
    specific_thresholds = {
        p.attribute: p.threshold for p in specific.lhs
    }
    for p in general.lhs:
        tight = specific_thresholds.get(p.attribute)
        if tight is None or tight > p.threshold:
            return False
    return True


def minimal_md_cover(mds: Sequence[MD]) -> list[MD]:
    """Drop MDs implied (by threshold dominance) by another in the set.

    The redundancy-reduction step of concise matching keys [90].
    """
    out: list[MD] = []
    for md in mds:
        if not any(
            other is not md and md_implies(other, md) for other in mds
        ):
            out.append(md)
    return out


class RelativeCandidateKey:
    """A relative candidate key (RCK): a minimal LHS of matching rules.

    Song & Chen [90]: a concise set of matching keys reduces redundancy
    while retaining coverage and validity.  An RCK here is a set of
    similarity predicates minimal w.r.t. still identifying the target.
    """

    def __init__(
        self,
        predicates: Mapping[str, float] | Sequence[SimilarityPredicate],
        target: Sequence[str] | str,
        *,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.predicates = coerce_predicates(predicates)
        self.md = MD(self.predicates, target, registry=registry)

    def covers(self, relation: Relation, pair: tuple[int, int]) -> bool:
        """Whether this key identifies the given pair."""
        return self.md.similar_on_lhs(relation, pair[0], pair[1])

    def coverage(
        self, relation: Relation, pairs: Sequence[tuple[int, int]]
    ) -> float:
        """Fraction of target pairs this key identifies."""
        if not pairs:
            return 1.0
        return sum(self.covers(relation, p) for p in pairs) / len(pairs)

    def __str__(self) -> str:
        return "RCK(" + ", ".join(str(p) for p in self.predicates) + ")"
