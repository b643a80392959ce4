"""Conditional functional dependencies (CFDs) — Section 2.5.

A CFD ``(X -> Y, t_p)`` embeds a standard FD that holds only on the
subset of tuples matching the pattern tuple ``t_p``.  Pattern cells are
constants or the unnamed variable ``'_'``.  An all-wildcard pattern
recovers a plain FD (Section 2.5.2).

Semantics (Fan et al. [34]): for tuples ``t1, t2`` *matching t_p on X*
and agreeing on ``X``, they must agree on ``Y`` and both match ``t_p``
on ``Y``.  With constants on the right-hand side this also constrains
single tuples (a tuple matching the LHS pattern whose Y-value differs
from the RHS constant violates on its own).

Worked example (Table 5): ``cfd1: region = "Jackson", name = _ ->
address = _`` is satisfied by t1, t2.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Mapping, Sequence

import numpy as np

from ...relation.encoding import ColumnCodes
from ...relation.relation import Relation
from ...relation.schema import Attribute
from ..base import Dependency, DependencyError, format_attrs
from ..violation import Violation, ViolationSet
from .fd import FD
from .pattern import Pattern, PatternEntry


def _matching_codes(entry: PatternEntry, codes: ColumnCodes) -> list[int]:
    """The codes of a column whose value matches ``entry``, ascending.

    An equality constant is one codebook lookup, and the value found is
    checked with :meth:`PatternEntry.matches`, so ``None``, NaN and
    ``1 == 1.0 == True`` keep their per-row meaning.  An operator
    entry, or a constant that cannot be hashed, tests each distinct
    value once.
    """
    if entry.is_constant:
        try:
            code = codes.codebook.get(entry.constant)
        except TypeError:  # unhashable constant: test every value
            pass
        else:
            if code is None or not entry.matches(codes.values[code]):
                return []
            return [code]
    return [c for c, v in enumerate(codes.values) if entry.matches(v)]


class CFD(Dependency):
    """A conditional functional dependency ``(X -> Y, t_p)``."""

    kind = "CFD"

    #: eCFD subclass flips this to allow operator entries.
    _allow_operators = False

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
        pattern: Pattern | Mapping[str, object] | None = None,
    ) -> None:
        self.embedded = FD(lhs, rhs)
        self.lhs = self.embedded.lhs
        self.rhs = self.embedded.rhs
        self.pattern = pattern if isinstance(pattern, Pattern) else Pattern(pattern)
        scope = set(self.lhs) | set(self.rhs)
        stray = [a for a in self.pattern.entries() if a not in scope]
        if stray:
            raise DependencyError(
                f"pattern mentions attributes outside X ∪ Y: {sorted(stray)}"
            )
        if not self._allow_operators and not self.pattern.uses_only_constants(
            scope
        ):
            raise DependencyError(
                "CFD patterns allow only constants and wildcards; "
                "use ECFD for operator predicates"
            )

    def __str__(self) -> str:
        return (
            f"{format_attrs(self.lhs)} -> {format_attrs(self.rhs)}, "
            f"{self.pattern.render(self.lhs, self.rhs)}"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.lhs!r}, {self.rhs!r}, {self.pattern!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFD):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.pattern == other.pattern
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.lhs, self.rhs, self.pattern))

    def attributes(self) -> tuple[str, ...]:
        return self.embedded.attributes()

    # -- structure ------------------------------------------------------------

    def is_constant_cfd(self) -> bool:
        """True iff every pattern cell (over X and Y) is a constant."""
        return all(
            not self.pattern.entry(a).is_wildcard
            for a in self.lhs + self.rhs
        )

    def is_variable_cfd(self) -> bool:
        """True iff the RHS pattern is a wildcard (variable CFD)."""
        return all(self.pattern.entry(a).is_wildcard for a in self.rhs)

    def _matching_rows(self, relation: Relation):
        """Ascending index vector of the tuples matching ``t_p`` on the
        LHS, read from the columns' codes (a wildcard restricts
        nothing)."""
        enc = relation.encoding()
        rows = None
        for a in self.lhs:
            entry = self.pattern.entry(a)
            if entry.is_wildcard:
                continue
            codes = enc.column_codes(relation.schema.index_of(a))
            hits = _matching_codes(entry, codes)
            if rows is None and len(hits) == 1:
                rows = np.asarray(codes.groups()[hits[0]], dtype=np.int64)
                continue
            mask = np.zeros(codes.n_distinct, dtype=bool)
            mask[hits] = True
            column = codes.array()
            rows = (
                np.flatnonzero(mask[column]) if rows is None
                else rows[mask[column[rows]]]
            )
        return np.arange(len(relation)) if rows is None else rows

    def matching_indices(self, relation: Relation) -> list[int]:
        """Tuples matching ``t_p`` on the LHS — the conditioned subset."""
        return self._matching_rows(relation).tolist()

    def support(self, relation: Relation) -> float:
        """Fraction of tuples the condition covers (Section 2.5.3)."""
        if len(relation) == 0:
            return 0.0
        return len(self._matching_rows(relation)) / len(relation)

    # -- semantics ------------------------------------------------------------

    def matches_lhs(self, relation: Relation, i: int) -> bool:
        """Does tuple ``i`` match ``t_p`` on the LHS (is it conditioned)?

        The incremental checker re-derives changed tuples one by one
        through this; whole-relation scans use :meth:`matching_indices`.
        """
        # Targeted reads: only the LHS columns, so column routing by
        # attributes() stays faithful.
        record = {a: relation.value_at(i, a) for a in self.lhs}
        return self.pattern.matches(record, self.lhs)

    def single_violations(
        self, relation: Relation, i: int, label: str | None = None
    ) -> list[Violation]:
        """RHS-constant violations of one LHS-matching tuple.

        The incremental checker re-derives only changed tuples through
        this hook; reasons match the full :meth:`violations` scan.
        """
        if label is None:
            label = self.label()
        out: list[Violation] = []
        for a in self.rhs:
            entry = self.pattern.entry(a)
            if entry.is_wildcard:
                continue
            value = relation.value_at(i, a)
            if not entry.matches(value):
                out.append(
                    Violation(
                        label,
                        (i,),
                        f"{a} = {value!r} fails pattern {entry}",
                    )
                )
        return out

    def group_violations(
        self,
        relation: Relation,
        x_value: tuple,
        indices: Sequence[int],
        label: str | None = None,
    ) -> list[Violation]:
        """Embedded-FD violations among one equal-``X`` matching group."""
        if label is None:
            label = self.label()
        out: list[Violation] = []
        if len(indices) < 2:
            return out
        by_y: dict[tuple, list[int]] = {}
        for t in indices:
            by_y.setdefault(relation.values_at(t, self.rhs), []).append(t)
        if len(by_y) < 2:
            return out
        for (ya, ta), (yb, tb) in combinations(list(by_y.items()), 2):
            for i in ta:
                for j in tb:
                    out.append(
                        Violation(
                            label,
                            (i, j),
                            f"X={x_value!r} (matching pattern): "
                            f"{ya!r} vs {yb!r}",
                        )
                    )
        return out

    def violations(self, relation: Relation) -> ViolationSet:
        vs = ViolationSet()
        label = self.label()
        matching = self.matching_indices(relation)

        # Single-tuple part: RHS constants must be met by each matching tuple.
        for i in matching:
            vs.extend(self.single_violations(relation, i, label))

        # Pairwise part: the embedded FD on the matching subset.
        groups: dict[tuple, list[int]] = {}
        for i in matching:
            groups.setdefault(relation.values_at(i, self.lhs), []).append(i)
        for x_value, indices in groups.items():
            vs.extend(self.group_violations(relation, x_value, indices, label))
        return vs

    def violation_count(self, relation: Relation) -> int:
        """``len(self.violations(relation))``, no violation listed.

        Read from the relation's ``(X, Y)`` code table.  An ``X`` group
        matches ``t_p`` on the LHS iff its first row does, and an
        ``X ∪ Y`` group fails a constant RHS entry iff its first row
        does: each entry's matching codes come from its column's
        codebook (:func:`_matching_codes`).  The count is the rows of
        the matching groups that fail a constant RHS entry (one
        violation each, however many entries they fail), plus the
        embedded FD's pairs within the matching groups.
        """
        table = self.embedded.table(relation)
        groups = self._lhs_groups(relation, table)
        first, sizes = table.first, table.sizes
        if groups is not None:
            inside = table.subgroups(groups)
            first, sizes = first[inside], sizes[inside]
        meets = self._meets(relation, self.rhs, first)
        failing = 0 if meets is None else int(sizes[~meets].sum())
        return failing + table.disagreeing_pairs(groups)

    def _lhs_groups(self, relation: Relation, table):
        """The ``X`` groups of ``table`` matching ``t_p`` on the LHS, as
        ascending indices (``None``: all of them)."""
        attrs = set(self.lhs)
        if len(attrs) == 1:
            (a,) = attrs
            entry = self.pattern.entry(a)
            if entry.is_wildcard:
                return None
            # A column's codes are dense over its values, so the X
            # groups of one column are its codes: group g is code g.
            codes = relation.encoding().column_codes(
                relation.schema.index_of(a)
            )
            return np.asarray(_matching_codes(entry, codes), dtype=np.int64)
        meets = self._meets(relation, self.lhs, table.x_first)
        return None if meets is None else np.flatnonzero(meets)

    def _meets(self, relation: Relation, attributes, rows):
        """Per index of ``rows``: does that row meet every pattern entry
        over ``attributes``?  ``None`` when every entry is a wildcard."""
        enc = relation.encoding()
        out = None
        for a in attributes:
            entry = self.pattern.entry(a)
            if entry.is_wildcard:
                continue
            codes = enc.column_codes(relation.schema.index_of(a))
            hits = _matching_codes(entry, codes)
            cells = codes.array()[rows]
            if len(hits) == 1:
                meets = cells == hits[0]
            else:
                mask = np.zeros(codes.n_distinct, dtype=bool)
                mask[hits] = True
                meets = mask[cells]
            out = meets if out is None else out & meets
        return out

    def holds(self, relation: Relation) -> bool:
        return self.violation_count(relation) == 0

    # -- family tree -------------------------------------------------------------

    @classmethod
    def from_fd(cls, dep: FD) -> "CFD":
        """Embed an FD as the CFD with the all-wildcard pattern (Fig. 1)."""
        return cls(dep.lhs, dep.rhs, Pattern())


class CFDTableau:
    """A set of pattern tuples sharing one embedded FD.

    CFD practice (and CFD discovery, Section 2.5.3) treats the rule as
    an embedded FD plus a *tableau* of pattern rows; the constraint is
    the conjunction of the per-row CFDs.
    """

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
        patterns: Sequence[Pattern | Mapping[str, object]] = (),
    ) -> None:
        self.embedded = FD(lhs, rhs)
        self.rows: list[CFD] = [
            CFD(self.embedded.lhs, self.embedded.rhs, p) for p in patterns
        ]

    def add(self, pattern: Pattern | Mapping[str, object]) -> None:
        self.rows.append(CFD(self.embedded.lhs, self.embedded.rhs, pattern))

    def holds(self, relation: Relation) -> bool:
        return all(row.holds(relation) for row in self.rows)

    def violations(self, relation: Relation) -> ViolationSet:
        vs = ViolationSet()
        for row in self.rows:
            vs.extend(row.violations(relation))
        return vs

    def support(self, relation: Relation) -> float:
        """Fraction of tuples covered by at least one tableau row."""
        if len(relation) == 0:
            return 0.0
        covered: set[int] = set()
        for row in self.rows:
            covered.update(row.matching_indices(relation))
        return len(covered) / len(relation)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __str__(self) -> str:
        header = f"{format_attrs(self.embedded.lhs)} -> {format_attrs(self.embedded.rhs)}"
        rows = "; ".join(
            r.pattern.render(self.embedded.lhs, self.embedded.rhs)
            for r in self.rows
        )
        return f"{header} with tableau [{rows}]"
