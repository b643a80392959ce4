"""Sequential dependencies (SDs) — Section 4.4 — and conditional SDs.

An SD ``X ->_g Y`` states: when tuples are sorted on ``X``, the
*directed* difference between the ``Y``-values of consecutive tuples
lies in the interval ``g``.  Intervals like ``[0, ∞)`` or ``(-∞, 0]``
express plain order relationships, which is how SDs subsume ODs
(Section 4.4.2).

Worked example (Table 7): ``sd1: nights ->_[100,200] subtotal`` —
sorted on nights, subtotal increases by 180, 170, 160, all within
[100, 200].

:class:`CSD` (Section 4.4.5) restricts an SD to intervals of the
ordered attribute; its *tableau* of intervals is discovered by an exact
quadratic dynamic program (:mod:`repro.discovery.sd_discovery`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ...relation.relation import Relation
from ...relation.schema import Attribute
from ...runtime.budget import checkpoint
from ..base import Dependency, DependencyError, format_attrs
from ..categorical.fd import _names
from ..heterogeneous.constraints import Interval
from ..violation import Violation, ViolationSet
from .od import OD


def _parse_gap(spec: object) -> Interval:
    """Parse an SD gap interval.

    Accepts an Interval, a (low, high) pair (either may be ±inf), or a
    single number b meaning [b, b].
    """
    if isinstance(spec, Interval):
        return spec
    if isinstance(spec, (int, float)):
        return Interval(float(spec), float(spec))
    if isinstance(spec, tuple) and len(spec) == 2:
        low = -math.inf if spec[0] is None else float(spec[0])
        high = math.inf if spec[1] is None else float(spec[1])
        return Interval(low, high)
    raise DependencyError(f"cannot interpret SD interval {spec!r}")


class SD(Dependency):
    """A sequential dependency ``X ->_g Y``."""

    kind = "SD"

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Attribute | str,
        gap: object = (0.0, None),
    ) -> None:
        self.lhs = _names(lhs)
        if not self.lhs:
            raise DependencyError("SD needs ordered attributes on the left")
        rhs_names = _names(rhs)
        if len(rhs_names) != 1:
            raise DependencyError("SD measures a single dependent attribute")
        self.rhs = rhs_names[0]
        self.gap = _parse_gap(gap)

    def __str__(self) -> str:
        return f"{format_attrs(self.lhs)} ->_{self.gap} {self.rhs}"

    def __repr__(self) -> str:
        return f"SD({self.lhs!r}, {self.rhs!r}, gap={self.gap})"

    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.lhs + (self.rhs,)))

    # -- ordering ------------------------------------------------------------

    def sorted_indices(self, relation: Relation) -> list[int]:
        """Tuple indices sorted by the ordered attributes ``X``.

        Tuples with missing ``X`` or ``Y`` values are excluded — the
        sequence semantics is undefined for them.
        """
        cols = [relation.column(a) for a in self.lhs]
        usable = [
            i for i, y in enumerate(relation.column(self.rhs)) if y is not None
        ]
        for col in cols:
            usable = [i for i in usable if col[i] is not None]
        keys = list(zip(*cols, strict=True))
        return sorted(usable, key=keys.__getitem__)

    def consecutive_gaps(
        self, relation: Relation
    ) -> list[tuple[int, int, float]]:
        """(prev_index, next_index, y_next - y_prev) along the X-order."""
        order = self.sorted_indices(relation)
        ys = relation.column(self.rhs)
        return [
            (a, b, float(ys[b]) - float(ys[a]))
            for a, b in zip(order, order[1:], strict=False)
        ]

    # -- semantics --------------------------------------------------------------

    def holds(self, relation: Relation) -> bool:
        return all(
            self.gap.contains(delta)
            for __, __, delta in self.consecutive_gaps(relation)
        )

    def violations(self, relation: Relation) -> ViolationSet:
        vs = ViolationSet()
        label = self.label()
        for a, b, delta in self.consecutive_gaps(relation):
            if not self.gap.contains(delta):
                vs.add(
                    Violation(
                        label,
                        (a, b),
                        f"consecutive {self.rhs} gap {delta:g} ∉ {self.gap}",
                    )
                )
        return vs

    def confidence(self, relation: Relation) -> float:
        """Golab et al.'s edit-based confidence, via the longest valid run.

        The confidence of an SD is defined through the minimum number of
        insertions/deletions making it hold; deletions alone suffice for
        an upper-bound sequence, so we compute the longest subsequence
        (in X-order) whose consecutive gaps all fall in ``g`` — an
        O(n²) DP that polls the ambient budget once per row — and report
        ``|longest| / n``.  It is 1 exactly when :meth:`holds`.
        """
        order = self.sorted_indices(relation)
        n = len(order)
        if n == 0:
            return 1.0
        ys = [float(relation.value_at(i, self.rhs)) for i in order]
        best = [1] * n
        for k in range(1, n):
            checkpoint()
            for m in range(k):
                if self.gap.contains(ys[k] - ys[m]) and best[m] + 1 > best[k]:
                    best[k] = best[m] + 1
        return max(best) / n

    # -- family tree -----------------------------------------------------------

    @classmethod
    def from_od(cls, dep: OD) -> "SD":
        """Embed a single-attribute OD as an SD (Fig. 1, Section 4.4.2).

        ``nights^<= -> price^<=`` becomes ``nights ->_[0,∞) price`` and
        ``... -> price^>=`` becomes ``nights ->_(-∞,0] price``.  Only
        ascending single-mark LHS and single-mark RHS ODs have a direct
        SD form (the paper's od1/sd2 example shape).
        """
        if len(dep.rhs) != 1:
            raise DependencyError("SD embedding expects a single RHS mark")
        if any(m.mark not in ("<=", "<") for m in dep.lhs):
            raise DependencyError(
                "SD embedding expects ascending LHS marks (sort order)"
            )
        rhs = dep.rhs[0]
        if rhs.mark in ("<=", "<"):
            gap = Interval(0.0, math.inf, low_open=(rhs.mark == "<"))
        else:
            gap = Interval(-math.inf, 0.0, high_open=(rhs.mark == ">"))
        return cls([m.attribute for m in dep.lhs], rhs.attribute, gap)


class CSD(Dependency):
    """A conditional sequential dependency: an SD with an interval tableau.

    The embedded SD must hold within each interval of the ordered
    attribute listed in the tableau (Section 4.4.5).
    """

    kind = "CSD"

    def __init__(
        self,
        lhs: Attribute | str,
        rhs: Attribute | str,
        gap: object,
        intervals: Sequence[object],
    ) -> None:
        lhs_names = _names(lhs)
        if len(lhs_names) != 1:
            raise DependencyError(
                "CSD conditions intervals of a single ordered attribute"
            )
        self.sd = SD(lhs_names, rhs, gap)
        self.lhs = self.sd.lhs
        self.rhs = self.sd.rhs
        self.gap = self.sd.gap
        self.intervals: tuple[Interval, ...] = tuple(
            _parse_gap(iv) if not isinstance(iv, Interval) else iv
            for iv in intervals
        )
        if not self.intervals:
            raise DependencyError("CSD tableau must be non-empty")

    def __str__(self) -> str:
        tableau = ", ".join(str(iv) for iv in self.intervals)
        return f"{self.sd} on [{tableau}]"

    def __repr__(self) -> str:
        return (
            f"CSD({self.lhs[0]!r}, {self.rhs!r}, gap={self.gap}, "
            f"intervals={list(self.intervals)!r})"
        )

    def attributes(self) -> tuple[str, ...]:
        return self.sd.attributes()

    def _restrict(self, relation: Relation, interval: Interval) -> Relation:
        attr = self.lhs[0]

        def inside(record: dict) -> bool:
            v = record.get(attr)
            return v is not None and interval.contains(float(v))

        return relation.select(inside)

    def holds(self, relation: Relation) -> bool:
        return all(
            self.sd.holds(self._restrict(relation, iv))
            for iv in self.intervals
        )

    def violations(self, relation: Relation) -> ViolationSet:
        """Violations per tableau interval, re-indexed to the full relation."""
        vs = ViolationSet()
        attr = self.lhs[0]
        label = self.label()
        for iv in self.intervals:
            keep = [
                i
                for i in range(len(relation))
                if relation.value_at(i, attr) is not None
                and iv.contains(float(relation.value_at(i, attr)))
            ]
            sub = relation.take(keep)
            for v in self.sd.violations(sub):
                original = tuple(keep[t] for t in v.tuples)
                vs.add(Violation(label, original, f"in {iv}: {v.reason}"))
        return vs

    def confidence(self, relation: Relation) -> float:
        """Tuple-weighted mean confidence across tableau intervals."""
        total = 0
        weighted = 0.0
        for iv in self.intervals:
            sub = self._restrict(relation, iv)
            if len(sub) == 0:
                continue
            total += len(sub)
            weighted += self.sd.confidence(sub) * len(sub)
        return weighted / total if total else 1.0

    @classmethod
    def from_sd(cls, dep: SD) -> "CSD":
        """Embed an SD as the CSD conditioned on the full range."""
        if len(dep.lhs) != 1:
            raise DependencyError("CSD embedding expects single-attribute X")
        return cls(
            dep.lhs[0],
            dep.rhs,
            dep.gap,
            [Interval(-math.inf, math.inf)],
        )
