"""Functional dependencies (FDs) — the root of the family tree.

Section 1.1: an FD ``X -> Y`` over relation ``R`` states that any two
tuples with equal ``X``-values must have identical ``Y``-values.  The
paper's running example is ``fd1: address -> region`` over the hotel
relation of Table 1, where (t3, t4) are a true violation, (t5, t6) are a
false positive caused by format variety, and (t7, t8) are a missed true
violation — the motivating gap the rest of the family tree fills.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ...relation.encoding import Contingency
from ...relation.relation import Relation
from ...relation.schema import Attribute
from ..base import PairwiseDependency, ensure_nonempty, format_attrs
from ..violation import Violation, ViolationSet


def _names(attrs: Iterable[Attribute | str] | Attribute | str) -> tuple[str, ...]:
    if isinstance(attrs, (Attribute, str)):
        attrs = [attrs]
    return tuple(a.name if isinstance(a, Attribute) else a for a in attrs)


class FD(PairwiseDependency):
    """A functional dependency ``X -> Y``.

    ``lhs`` (determinant) and ``rhs`` (dependent) are attribute-name
    tuples; single names are accepted for convenience.
    """

    kind = "FD"

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
    ) -> None:
        self.lhs = ensure_nonempty(_names(lhs), "FD left-hand side")
        self.rhs = ensure_nonempty(_names(rhs), "FD right-hand side")

    # -- identity -----------------------------------------------------------

    def __str__(self) -> str:
        return f"{format_attrs(self.lhs)} -> {format_attrs(self.rhs)}"

    def __repr__(self) -> str:
        return f"FD({self.lhs!r}, {self.rhs!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FD):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.lhs, self.rhs))

    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.lhs + self.rhs))

    def is_trivial(self) -> bool:
        """True iff ``Y ⊆ X`` (implied by reflexivity, always holds)."""
        return set(self.rhs) <= set(self.lhs)

    # -- semantics -----------------------------------------------------------

    def pair_violation(self, relation: Relation, i: int, j: int) -> str | None:
        if relation.values_at(i, self.lhs) != relation.values_at(j, self.lhs):
            return None
        yi = relation.values_at(i, self.rhs)
        yj = relation.values_at(j, self.rhs)
        if yi == yj:
            return None
        return (
            f"equal {format_attrs(self.lhs)} but "
            f"{format_attrs(self.rhs)}: {yi!r} vs {yj!r}"
        )

    def _rhs_columns(self, relation: Relation) -> list[tuple]:
        """The RHS columns, resolved once per scan (not once per cell)."""
        return [relation.column(a) for a in self.rhs]

    def _split_by_y(
        self, indices: Sequence[int], rhs_cols: list[tuple]
    ) -> dict[tuple, list[int]]:
        """Members of one equal-``X`` group split by their ``Y``-value."""
        by_y: dict[tuple, list[int]] = {}
        for t in indices:
            key = tuple(col[t] for col in rhs_cols)
            by_y.setdefault(key, []).append(t)
        return by_y

    def _group_violations(
        self,
        label: str,
        x_value: tuple,
        indices: Sequence[int],
        rhs_cols: list[tuple],
    ) -> Iterator[Violation]:
        """Violations within one equal-``X`` group (the scan kernel)."""
        if len(indices) < 2:
            return
        by_y = self._split_by_y(indices, rhs_cols)
        if len(by_y) < 2:
            return
        subgroups = list(by_y.items())
        for (ya, ta), (yb, tb) in combinations(subgroups, 2):
            for i in ta:
                for j in tb:
                    yield Violation(
                        label,
                        (i, j),
                        f"X={x_value!r}: {ya!r} vs {yb!r}",
                    )

    def group_violations(
        self, relation: Relation, x_value: tuple, indices: Sequence[int]
    ) -> list[Violation]:
        """Violations within one equal-``X`` group — the incremental
        checkers re-examine only touched groups through this hook, with
        reasons identical to a full :meth:`iter_violations` scan."""
        return list(
            self._group_violations(
                self.label(), x_value, indices, self._rhs_columns(relation)
            )
        )

    def group_kept_count(
        self, relation: Relation, indices: Sequence[int]
    ) -> int:
        """Size of the largest single-``Y`` subgroup (the g3 'keep')."""
        if not indices:
            return 0
        by_y = self._split_by_y(indices, self._rhs_columns(relation))
        return max(len(members) for members in by_y.values())

    def table(self, relation: Relation) -> Contingency:
        """The relation's code table of ``(X, Y)`` (memoized on it)."""
        index_of = relation.schema.index_of
        return relation.encoding().contingency(
            tuple(map(index_of, self.lhs)), tuple(map(index_of, self.rhs))
        )

    def iter_violations(self, relation: Relation) -> Iterator[Violation]:
        """Group-based violation scan — O(n + violations), not O(n²).

        Within an equal-``X`` group, tuples split by their ``Y``-value;
        every cross pair between different ``Y``-subgroups violates.
        The code table names the groups holding more than one ``Y``
        code, and only those are split, in first-occurrence order.
        """
        table = self.table(relation)
        split = table.y_counts() > 1
        if not split.any():
            return
        label = self.label()
        index_of = relation.schema.index_of
        codes = relation.encoding().combined_codes(
            tuple(map(index_of, self.lhs))
        )
        bad = codes[np.sort(table.x_first[split])]
        rows = np.flatnonzero(np.isin(codes, bad))
        members: dict[int, list[int]] = {c: [] for c in bad.tolist()}
        for i, c in zip(rows.tolist(), codes[rows].tolist(), strict=True):
            members[c].append(i)
        lhs_cols = [relation.column(a) for a in self.lhs]
        rhs_cols = self._rhs_columns(relation)
        for indices in members.values():
            x_value = tuple(col[indices[0]] for col in lhs_cols)
            yield from self._group_violations(
                label, x_value, indices, rhs_cols
            )

    def violations(self, relation: Relation) -> ViolationSet:
        return ViolationSet(self.iter_violations(relation))

    def violation_count(self, relation: Relation) -> int:
        """``len(self.violations(relation))``, no pair listed.

        A violating pair agrees on ``X`` but not on ``Y``: the pairs
        within ``X`` groups minus those within ``X ∪ Y`` groups, read
        from the code table.
        """
        return self.table(relation).disagreeing_pairs()

    def holds(self, relation: Relation) -> bool:
        """Every ``X`` group holds one ``Y``-value: ``X`` and ``X ∪ Y``
        have equal ranks."""
        table = self.table(relation)
        return table.x_rank == table.xy_rank

    # -- derived quantities ---------------------------------------------------

    def violating_groups(
        self, relation: Relation
    ) -> dict[tuple, list[int]]:
        """Equal-``X`` groups containing more than one ``Y``-value.

        The code table names them (its ``X`` groups in first-occurrence
        order line up with the group dict's); no ``Y``-value is read.
        """
        table = self.table(relation)
        split = (table.y_counts() > 1)[np.argsort(table.x_first)].tolist()
        groups = relation.cached_group_by(self.lhs).items()
        return {
            x_value: list(indices)
            for (x_value, indices), bad in zip(groups, split, strict=True)
            if bad
        }

    def keeps(self, relation: Relation) -> list[int]:
        """A maximum subset of tuple indices on which the FD holds.

        Per X-group, keep the largest single-``Y`` subgroup; this
        realizes the ``max |s|`` of the AFD g3 definition.
        """
        kept: list[int] = []
        rhs_cols = self._rhs_columns(relation)
        for indices in relation.cached_group_by(self.lhs).values():
            by_y: dict[tuple, list[int]] = {}
            for t in indices:
                key = tuple(col[t] for col in rhs_cols)
                by_y.setdefault(key, []).append(t)
            kept.extend(max(by_y.values(), key=len))
        return sorted(kept)


def fd(lhs, rhs) -> FD:
    """Shorthand constructor: ``fd("address", "region")``."""
    return FD(lhs, rhs)
