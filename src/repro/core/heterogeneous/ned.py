"""Neighborhood dependencies (NEDs) — Section 3.2.

An NED ``A1^α1 ... An^αn -> B1^β1 ... Bm^βm`` states: any two tuples
within distance ``αi`` on every LHS attribute must be within ``βj`` on
every RHS attribute.  MFDs are the special case with all LHS thresholds
0 (Section 3.2.2).

Worked example (Table 6): ``ned1: name^1 address^5 -> street^5`` —
t2 and t6 have name distance 0 <= 1 and address distance 1 <= 5, so
their street distance 3 must be (and is) <= 5.

The P-neighborhood prediction method of [4] (Section 3.2.4) lives in
:mod:`repro.quality.imputation`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ...metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ...relation.relation import Relation
from ..base import DependencyError, PairwiseDependency
from ..categorical.fd import FD
from .constraints import SimilarityPredicate, coerce_predicates
from .mfd import MFD


class NED(PairwiseDependency):
    """A neighborhood dependency between two neighborhood predicates."""

    kind = "NED"

    def __init__(
        self,
        lhs: Mapping[str, float] | Sequence[SimilarityPredicate],
        rhs: Mapping[str, float] | Sequence[SimilarityPredicate],
        *,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.lhs = coerce_predicates(lhs)
        self.rhs = coerce_predicates(rhs)
        if not self.lhs or not self.rhs:
            raise DependencyError("NED needs predicates on both sides")
        self.registry = registry

    def __str__(self) -> str:
        left = " ".join(str(p) for p in self.lhs)
        right = " ".join(str(p) for p in self.rhs)
        return f"{left} -> {right}"

    def __repr__(self) -> str:
        return f"NED({self.lhs!r}, {self.rhs!r})"

    def attributes(self) -> tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                [p.attribute for p in self.lhs]
                + [p.attribute for p in self.rhs]
            )
        )

    # -- semantics ------------------------------------------------------

    def lhs_agrees(self, relation: Relation, i: int, j: int) -> bool:
        """Whether a pair agrees on the LHS neighborhood predicate."""
        return all(
            p.satisfied(relation, i, j, self.registry) for p in self.lhs
        )

    def rhs_agrees(self, relation: Relation, i: int, j: int) -> bool:
        return all(
            p.satisfied(relation, i, j, self.registry) for p in self.rhs
        )

    def pair_violation(self, relation: Relation, i: int, j: int) -> str | None:
        if not self.lhs_agrees(relation, i, j):
            return None
        for p in self.rhs:
            if not p.satisfied(relation, i, j, self.registry):
                metric = p.resolve_metric(relation, self.registry)
                d = metric.distance(
                    relation.value_at(i, p.attribute),
                    relation.value_at(j, p.attribute),
                )
                return (
                    f"LHS neighborhood agrees but {p.attribute} distance "
                    f"{d:g} > {p.threshold:g}"
                )
        return None

    # -- support/confidence (discovery objectives, Section 3.2.3) ----------

    def support_and_confidence(self, relation: Relation) -> tuple[int, float]:
        """(#pairs agreeing on LHS, fraction of those also meeting RHS)."""
        from ...plan import guard_pairs

        agreeing = guard_pairs(self, relation, self.lhs_agrees)
        good = sum(1 for i, j in agreeing if self.rhs_agrees(relation, i, j))
        agree = len(agreeing)
        return agree, (good / agree if agree else 1.0)

    # -- family tree ----------------------------------------------------------

    @classmethod
    def from_mfd(cls, dep: MFD) -> "NED":
        """Embed an MFD as the NED with LHS thresholds 0 (Fig. 1 edge).

        Threshold 0 under the *discrete* metric makes "within 0" mean
        exactly "equal", mirroring the MFD's equality test on X.
        """
        from ...metrics.numeric import DISCRETE

        lhs = [SimilarityPredicate(a, 0.0, DISCRETE) for a in dep.lhs]
        # RHS predicates leave the metric unset so it resolves through the
        # MFD's registry against the relation's typed schema at check time.
        rhs = [SimilarityPredicate(a, dep.delta) for a in dep.rhs]
        return cls(lhs, rhs, registry=dep.registry)

    @classmethod
    def from_fd(cls, dep: FD) -> "NED":
        """Embed an FD via the MFD edge (FD -> MFD -> NED)."""
        return cls.from_mfd(MFD.from_fd(dep))
