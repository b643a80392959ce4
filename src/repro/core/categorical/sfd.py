"""Soft functional dependencies (SFDs) — Section 2.1.

An SFD ``X ->_s Y`` holds when the *strength*

    S(X -> Y, r) = |dom(X)|_r / |dom(X, Y)|_r

is at least ``s``: the value of X determines that of Y "not with
certainty, but with high probability", measured by counting domain
values.  Strength 1 recovers an exact FD (Section 2.1.2).

Worked example (Table 5): S(address -> region, r5) = 2/3 and
S(name -> address, r5) = 1/2 — both asserted in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence

from ...relation.relation import Relation
from ...relation.schema import Attribute
from ..base import DependencyError, MeasuredDependency, format_attrs
from ..violation import ViolationSet
from .fd import FD


class SFD(MeasuredDependency):
    """A soft functional dependency ``X ->_s Y``."""

    kind = "SFD"
    measure_direction = ">="

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
        strength: float = 1.0,
    ) -> None:
        if not 0.0 < strength <= 1.0:
            raise DependencyError(
                f"SFD strength must be in (0, 1], got {strength}"
            )
        self.embedded = FD(lhs, rhs)
        self.lhs = self.embedded.lhs
        self.rhs = self.embedded.rhs
        self.strength = strength

    @property
    def threshold(self) -> float:
        return self.strength

    def __str__(self) -> str:
        return (
            f"{format_attrs(self.lhs)} ->_{self.strength:g} "
            f"{format_attrs(self.rhs)}"
        )

    def __repr__(self) -> str:
        return f"SFD({self.lhs!r}, {self.rhs!r}, strength={self.strength})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SFD):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.strength == other.strength
        )

    def __hash__(self) -> int:
        return hash(("SFD", self.lhs, self.rhs, self.strength))

    def attributes(self) -> tuple[str, ...]:
        return self.embedded.attributes()

    # -- semantics ---------------------------------------------------------

    def measure(self, relation: Relation) -> float:
        """The strength ``S = |dom(X)| / |dom(XY)|`` (1.0 on empty input).

        Since each distinct XY-value projects onto a distinct X-value or
        shares one, ``|dom(X)| <= |dom(XY)|`` and S is in (0, 1].  Both
        are the ranks of the relation's ``(X, Y)`` code table.
        """
        if len(relation) == 0:
            return 1.0
        table = self.embedded.table(relation)
        return table.x_rank / table.xy_rank

    def violations(self, relation: Relation) -> ViolationSet:
        """Evidence = the embedded FD's violations.

        Note the SFD may still *hold* despite non-empty evidence when the
        strength clears the threshold; ``holds`` uses the measure.
        """
        return self.embedded.violations(relation)

    def violation_count(self, relation: Relation) -> int:
        return self.embedded.violation_count(relation)

    # -- family tree --------------------------------------------------------

    @classmethod
    def from_fd(cls, dep: FD) -> "SFD":
        """Embed an FD as the special SFD with strength 1 (Fig. 1 edge)."""
        return cls(dep.lhs, dep.rhs, strength=1.0)
