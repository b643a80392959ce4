"""Denial constraints (DCs) — Section 4.3.

A DC ``∀ t_α, t_β: ¬(P1 ∧ ... ∧ Pm)`` forbids any assignment of tuples
to the variables making every predicate true.  Predicates compare a
tuple attribute against another tuple attribute or a constant with an
operator from ``{=, !=, <, <=, >, >=}``.  DCs subsume ODs (Section
4.3.2) and eCFDs (Section 4.3.3), making them the most expressive
notation in the family tree's numerical branch.

Worked example (Table 7)::

    dc1: ∀ tα, tβ ¬(tα.subtotal < tβ.subtotal ∧ tα.taxes > tβ.taxes)

Single-variable DCs (mentioning only ``t_α``) constrain individual
tuples, e.g. ``¬(t.region = "Chicago" ∧ t.price < 200)`` from the
paper's Section 1.6 discussion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

from ...relation.relation import Relation
from ..base import Dependency, DependencyError
from ..violation import ViolationSet

Value = Any

_OPS: dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NEGATION = {
    "=": "!=",
    "==": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

#: Tuple variable names, matching the paper's t_alpha / t_beta.
ALPHA = "a"
BETA = "b"


@dataclass(frozen=True)
class Predicate:
    """One DC atom: ``var1.attr1 op (var2.attr2 | constant)``.

    ``rhs_attribute is None`` makes it a constant predicate with
    ``constant`` as the comparison value.
    """

    lhs_var: str
    lhs_attribute: str
    op: str
    rhs_var: str | None = None
    rhs_attribute: str | None = None
    constant: Value = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise DependencyError(f"unknown DC operator {self.op!r}")
        if self.lhs_var not in (ALPHA, BETA):
            raise DependencyError(
                f"tuple variable must be {ALPHA!r} or {BETA!r}"
            )
        if self.rhs_attribute is not None and self.rhs_var not in (ALPHA, BETA):
            raise DependencyError(
                "attribute comparisons need a tuple variable on the right"
            )

    @property
    def is_constant(self) -> bool:
        return self.rhs_attribute is None

    def variables(self) -> set[str]:
        out = {self.lhs_var}
        if self.rhs_var is not None:
            out.add(self.rhs_var)
        return out

    def evaluate(self, relation: Relation, assignment: dict[str, int]) -> bool:
        """Evaluate under a variable -> tuple-index assignment.

        Comparisons involving ``None`` or incomparable types are false
        (SQL-style), so missing data never triggers a denial.
        """
        left = relation.value_at(
            assignment[self.lhs_var], self.lhs_attribute
        )
        if self.is_constant:
            right = self.constant
        else:
            right = relation.value_at(
                assignment[self.rhs_var], self.rhs_attribute
            )
        if left is None or right is None:
            return False
        try:
            return _OPS[self.op](left, right)
        except TypeError:
            return False

    def negated(self) -> "Predicate":
        """The complement predicate (used by FASTDC's evidence covers)."""
        return Predicate(
            self.lhs_var,
            self.lhs_attribute,
            _NEGATION[self.op],
            self.rhs_var,
            self.rhs_attribute,
            self.constant,
        )

    def attributes(self) -> tuple[str, ...]:
        if self.rhs_attribute is not None and self.rhs_attribute != self.lhs_attribute:
            return (self.lhs_attribute, self.rhs_attribute)
        return (self.lhs_attribute,)

    def __str__(self) -> str:
        left = f"t{self.lhs_var}.{self.lhs_attribute}"
        if self.is_constant:
            return f"{left} {self.op} {self.constant!r}"
        return f"{left} {self.op} t{self.rhs_var}.{self.rhs_attribute}"


def pred2(attr1: str, op: str, attr2: str | None = None) -> Predicate:
    """Two-tuple predicate ``tα.attr1 op tβ.attr2`` (attr2 defaults attr1)."""
    return Predicate(ALPHA, attr1, op, BETA, attr2 if attr2 else attr1)


def predc(attr: str, op: str, constant: Value, var: str = ALPHA) -> Predicate:
    """Constant predicate ``t.attr op c``."""
    return Predicate(var, attr, op, None, None, constant)


class DC(Dependency):
    """A denial constraint ``¬(P1 ∧ ... ∧ Pm)``."""

    kind = "DC"

    def __init__(self, predicates: Sequence[Predicate]) -> None:
        self.predicates = tuple(predicates)
        if not self.predicates:
            raise DependencyError("DC needs at least one predicate")
        self._variables = sorted(
            set().union(*(p.variables() for p in self.predicates))
        )

    def __str__(self) -> str:
        body = " ∧ ".join(str(p) for p in self.predicates)
        return f"¬({body})"

    def __repr__(self) -> str:
        return f"DC({list(self.predicates)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DC):
            return NotImplemented
        return set(self.predicates) == set(other.predicates)

    def __hash__(self) -> int:
        return hash(frozenset(self.predicates))

    def attributes(self) -> tuple[str, ...]:
        names: list[str] = []
        for p in self.predicates:
            names.extend(p.attributes())
        return tuple(dict.fromkeys(names))

    @property
    def is_single_tuple(self) -> bool:
        return self._variables in (["a"], ["b"])

    def width(self) -> int:
        """Number of predicates (the DC's size, used for minimality)."""
        return len(self.predicates)

    # -- semantics ---------------------------------------------------------

    def _assignment_denied(
        self, relation: Relation, assignment: dict[str, int]
    ) -> bool:
        """All predicates true ⇒ the assignment is a violation."""
        return all(p.evaluate(relation, assignment) for p in self.predicates)

    def violations(self, relation: Relation) -> ViolationSet:
        from ...plan import denial_violations

        return ViolationSet(denial_violations(self, relation))

    def holds(self, relation: Relation) -> bool:
        from ...plan import denial_violations

        return not denial_violations(self, relation, first_only=True)

    def g3_error(self, relation: Relation) -> float:
        """Greedy fraction of tuples to drop so the DC holds (A-FASTDC)."""
        pairs = {
            tuple(sorted(v.tuples)) for v in self.violations(relation)
        }
        if not pairs:
            return 0.0
        singles = {p[0] for p in pairs if len(p) == 1}
        duos = {p for p in pairs if len(p) == 2}
        removed = set(singles)
        duos = {p for p in duos if not (set(p) & removed)}
        while duos:
            counts: dict[int, int] = {}
            for x, y in duos:
                counts[x] = counts.get(x, 0) + 1
                counts[y] = counts.get(y, 0) + 1
            worst = max(counts, key=counts.get)
            removed.add(worst)
            duos = {p for p in duos if worst not in p}
        return len(removed) / len(relation)

    # -- family tree ---------------------------------------------------------

    @classmethod
    def from_fd(cls, dep) -> "DC":
        """Embed an FD ``X -> Y`` as ``¬(⋀ tα.X = tβ.X ∧ tα.A != tβ.A)``.

        One DC per dependent attribute would be minimal; for a
        multi-attribute RHS this builds the disjunction-free safe form
        over the first attribute only when |Y| = 1, else raises.
        """
        from ..categorical.fd import FD

        if not isinstance(dep, FD):
            raise DependencyError(f"expected an FD, got {type(dep).__name__}")
        if len(dep.rhs) != 1:
            raise DependencyError(
                "embed multi-RHS FDs one attribute at a time"
            )
        atoms = [pred2(a, "=") for a in dep.lhs]
        atoms.append(pred2(dep.rhs[0], "!="))
        return cls(atoms)

    @classmethod
    def from_od(cls, dep: "object") -> "DC":
        """Embed an OD as a DC (Fig. 1 edge, Section 4.3.2).

        The OD ``X -> Y`` (marked) is violated by a pair satisfying the
        X-marks whose Y-marks fail for some attribute.  For a
        single-mark RHS this is exactly one DC:
        ``¬(tα.X mark tβ.X ∧ tα.Y ¬mark tβ.Y)``.  Multi-mark RHS ODs
        need one DC per RHS attribute (their conjunction); this builds
        that list via :meth:`from_od_all`.
        """
        dcs = cls.from_od_all(dep)
        if len(dcs) != 1:
            raise DependencyError(
                "OD has several RHS marks; use from_od_all"
            )
        return dcs[0]

    @classmethod
    def from_od_all(cls, dep: "object") -> list["DC"]:
        """All DCs jointly equivalent to an OD (one per RHS mark).

        Subtlety: a pair violates the OD when the *conjunction* of RHS
        marks fails, i.e. at least one mark fails, which is precisely
        the union of the per-mark DCs' violations.
        """
        from .od import OD, _NEG_MARK

        if not isinstance(dep, OD):
            raise DependencyError(f"expected an OD, got {type(dep).__name__}")
        lhs_atoms = [
            Predicate(ALPHA, m.attribute, m.mark, BETA, m.attribute)
            for m in dep.lhs
        ]
        out: list[DC] = []
        for m in dep.rhs:
            atoms = list(lhs_atoms)
            atoms.append(
                Predicate(ALPHA, m.attribute, _NEG_MARK[m.mark], BETA, m.attribute)
            )
            out.append(cls(atoms))
        return out

    @classmethod
    def from_ecfd(cls, dep: "object") -> "DC":
        """Embed an eCFD as a DC (Fig. 1 edge, Section 4.3.3).

        Pattern predicates become constant atoms on ``t_α`` (and for
        LHS cells also on ``t_β``), equality on X and inequality on the
        single RHS attribute become two-tuple atoms — exactly the dc3
        construction of the paper.  Constant RHS cells additionally
        yield a single-tuple DC; this method returns the pairwise DC
        and raises for constant-RHS patterns (use
        :meth:`from_ecfd_all`).
        """
        dcs = cls.from_ecfd_all(dep)
        if len(dcs) != 1:
            raise DependencyError(
                "eCFD has RHS pattern predicates; use from_ecfd_all"
            )
        return dcs[0]

    @classmethod
    def from_ecfd_all(cls, dep: "object") -> list["DC"]:
        """All DCs jointly equivalent to an eCFD."""
        from ..categorical.cfd import CFD

        if not isinstance(dep, CFD):
            raise DependencyError(
                f"expected a CFD/eCFD, got {type(dep).__name__}"
            )
        if len(dep.rhs) != 1:
            raise DependencyError("embed multi-RHS eCFDs one RHS at a time")
        rhs_attr = dep.rhs[0]

        lhs_pattern_atoms: list[Predicate] = []
        for a in dep.lhs:
            entry = dep.pattern.entry(a)
            if not entry.is_wildcard:
                lhs_pattern_atoms.append(predc(a, entry.op, entry.constant, ALPHA))
                lhs_pattern_atoms.append(predc(a, entry.op, entry.constant, BETA))

        out: list[DC] = []
        # Pairwise part: matching pattern + equal X + different Y.
        atoms = list(lhs_pattern_atoms)
        atoms.extend(pred2(a, "=") for a in dep.lhs)
        atoms.append(pred2(rhs_attr, "!="))
        out.append(cls(atoms))

        # Single-tuple part for a constant/predicate RHS cell: a tuple
        # matching the LHS pattern must satisfy the RHS predicate.
        rhs_entry = dep.pattern.entry(rhs_attr)
        if not rhs_entry.is_wildcard:
            single_atoms = [
                predc(a, dep.pattern.entry(a).op, dep.pattern.entry(a).constant, ALPHA)
                for a in dep.lhs
                if not dep.pattern.entry(a).is_wildcard
            ]
            negated = Predicate(
                ALPHA, rhs_attr, _NEGATION[rhs_entry.op], None, None,
                rhs_entry.constant,
            )
            single_atoms.append(negated)
            out.append(cls(single_atoms))
        return out
