"""Probabilistic approximate constraints (PACs) — Section 3.5.

A PAC ``X_Δ ->^δ Y_ε`` combines distance tolerance with probability:
among tuple pairs within ``Δ`` on every ``X``-attribute, at least a
fraction ``δ`` must be within ``ε`` on every ``Y``-attribute.

Worked example (Table 6): ``pac1: price_100 ->^0.9 tax_10`` — 11 pairs
are within 100 on price, 8 of them within 10 on tax, confidence
8/11 ≈ 0.727 < 0.9, so r6 does **not** satisfy pac1.  Asserted in tests.

NEDs are PACs with δ = 1 (Section 3.5.2).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ...metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ...relation.relation import Relation
from ..base import DependencyError, MeasuredDependency
from ..violation import Violation, ViolationSet
from .constraints import SimilarityPredicate, coerce_predicates
from .ned import NED


class PAC(MeasuredDependency):
    """A probabilistic approximate constraint ``X_Δ ->^δ Y_ε``."""

    kind = "PAC"
    measure_direction = ">="

    def __init__(
        self,
        lhs: Mapping[str, float] | Sequence[SimilarityPredicate],
        rhs: Mapping[str, float] | Sequence[SimilarityPredicate],
        confidence: float = 1.0,
        *,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> None:
        if not 0.0 < confidence <= 1.0:
            raise DependencyError(
                f"PAC confidence must be in (0, 1], got {confidence}"
            )
        self.lhs = coerce_predicates(lhs)
        self.rhs = coerce_predicates(rhs)
        if not self.lhs or not self.rhs:
            raise DependencyError("PAC needs predicates on both sides")
        self.confidence = confidence
        self.registry = registry

    @property
    def threshold(self) -> float:
        return self.confidence

    def __str__(self) -> str:
        left = " ".join(f"{p.attribute}_{p.threshold:g}" for p in self.lhs)
        right = " ".join(f"{p.attribute}_{p.threshold:g}" for p in self.rhs)
        return f"{left} ->^{self.confidence:g} {right}"

    def __repr__(self) -> str:
        return (
            f"PAC({self.lhs!r}, {self.rhs!r}, confidence={self.confidence})"
        )

    def attributes(self) -> tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                [p.attribute for p in self.lhs]
                + [p.attribute for p in self.rhs]
            )
        )

    # -- semantics -----------------------------------------------------------

    def _lhs_close(self, relation: Relation, i: int, j: int) -> bool:
        return all(
            p.satisfied(relation, i, j, self.registry) for p in self.lhs
        )

    def _rhs_close(self, relation: Relation, i: int, j: int) -> bool:
        return all(
            p.satisfied(relation, i, j, self.registry) for p in self.rhs
        )

    def pair_counts(self, relation: Relation) -> tuple[int, int]:
        """(#pairs within Δ on X, #of those also within ε on Y)."""
        from ...plan import guard_pairs

        close_pairs = guard_pairs(self, relation, self._lhs_close)
        good = sum(
            1 for i, j in close_pairs if self._rhs_close(relation, i, j)
        )
        return len(close_pairs), good

    def measure(self, relation: Relation) -> float:
        """Pr(Y within ε | X within Δ); 1.0 when no pair qualifies."""
        close, good = self.pair_counts(relation)
        return good / close if close else 1.0

    def violations(self, relation: Relation) -> ViolationSet:
        """The X-close pairs exceeding the Y tolerance."""
        from ...plan import context_for, execute_pairs, plan_for

        label = self.label()

        def _verify(i: int, j: int):
            if self._lhs_close(relation, i, j) and not self._rhs_close(
                relation, i, j
            ):
                return (
                    (i, j),
                    Violation(label, (i, j), "within Δ on X but beyond ε on Y"),
                )
            return None

        return ViolationSet(
            execute_pairs(plan_for(self), context_for(relation), _verify)
        )

    # -- family tree --------------------------------------------------------

    @classmethod
    def from_ned(cls, dep: NED) -> "PAC":
        """Embed an NED as the PAC with δ = 1 (Fig. 1 edge)."""
        return cls(dep.lhs, dep.rhs, confidence=1.0, registry=dep.registry)
