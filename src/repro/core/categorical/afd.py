"""Approximate functional dependencies (AFDs) — Section 2.3.

An AFD ``X ->_e Y`` holds when the ``g3`` error — the minimum fraction
of tuples whose removal makes the embedded FD hold exactly — is at most
``e``:

    g3(X -> Y, r) = (|r| - max{|s| : s ⊆ r, s |= X -> Y}) / |r|

Computed by grouping on ``X`` and keeping, per group, the largest
single-``Y`` subgroup.  g3 = 0 recovers exact FDs (Section 2.3.2).

Worked example (Table 5): g3(address -> region, r5) = 1/4 and
g3(name -> address, r5) = 1/2 — asserted in tests.
"""

from __future__ import annotations

from collections.abc import Sequence

from ...relation.relation import Relation
from ...relation.schema import Attribute
from ..base import DependencyError, MeasuredDependency, format_attrs
from ..violation import ViolationSet
from .fd import FD


class AFD(MeasuredDependency):
    """An approximate functional dependency ``X ->_e Y`` (g3 error)."""

    kind = "AFD"
    measure_direction = "<="

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
        max_error: float = 0.0,
    ) -> None:
        if not 0.0 <= max_error < 1.0:
            raise DependencyError(
                f"AFD error threshold must be in [0, 1), got {max_error}"
            )
        self.embedded = FD(lhs, rhs)
        self.lhs = self.embedded.lhs
        self.rhs = self.embedded.rhs
        self.max_error = max_error

    @property
    def threshold(self) -> float:
        return self.max_error

    def __str__(self) -> str:
        return (
            f"{format_attrs(self.lhs)} ->_{self.max_error:g} "
            f"{format_attrs(self.rhs)} (g3)"
        )

    def __repr__(self) -> str:
        return f"AFD({self.lhs!r}, {self.rhs!r}, max_error={self.max_error})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AFD):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.max_error == other.max_error
        )

    def __hash__(self) -> int:
        return hash(("AFD", self.lhs, self.rhs, self.max_error))

    def attributes(self) -> tuple[str, ...]:
        return self.embedded.attributes()

    # -- semantics ---------------------------------------------------------

    def measure(self, relation: Relation) -> float:
        """The g3 error in [0, 1] (0 on the empty relation)."""
        return g3_error(self.embedded, relation)

    def removal_set(self, relation: Relation) -> list[int]:
        """A minimum set of tuple indices whose removal satisfies the FD."""
        kept = set(self.embedded.keeps(relation))
        return [i for i in range(len(relation)) if i not in kept]

    def violations(self, relation: Relation) -> ViolationSet:
        """Evidence = the embedded FD's pairwise violations."""
        return self.embedded.violations(relation)

    def violation_count(self, relation: Relation) -> int:
        return self.embedded.violation_count(relation)

    # -- family tree -----------------------------------------------------------

    @classmethod
    def from_fd(cls, dep: FD) -> "AFD":
        """Embed an FD as the special AFD with error 0 (Fig. 1 edge)."""
        return cls(dep.lhs, dep.rhs, max_error=0.0)


def g3_error(dep: FD, relation: Relation) -> float:
    """``g3`` of an FD: fraction of tuples to delete for exact satisfaction.

    Exact: per equal-``X`` group, every tuple outside the largest
    single-``Y`` subgroup must go, ``(n − Σ largest subgroup) / n``,
    read from the relation's ``(X, Y)`` code table.
    """
    return dep.table(relation).g3()
