"""The uniform dependency interface shared by the whole family tree.

Every notation surveyed by the paper — from plain FDs to DCs — is a
:class:`Dependency`:

* :meth:`~Dependency.holds` — does the constraint hold on a relation?
* :meth:`~Dependency.violations` — evidence of why not;
* :meth:`~Dependency.violation_count` — how much evidence, which the
  FD family counts without listing it;
* :attr:`~Dependency.kind` — the notation's short name ("FD", "CFD", …),
  matching the survey's Table 2 vocabulary.

Two structured sub-bases cover the recurring shapes:

* :class:`PairwiseDependency` — constraints universally quantified over
  tuple *pairs* (FDs, MFDs, NEDs, DDs, CDs, FFDs, MDs, OFDs, ODs,
  two-tuple DCs, …).  Subclasses implement one method,
  :meth:`~PairwiseDependency.pair_violation`, and inherit a checker
  that runs their compiled plan through the pruned kernels of
  :mod:`repro.plan`; subclasses with a cheaper engine of their own
  (FD's group scan) override :meth:`violations`.
* :class:`MeasuredDependency` — statistical extensions that hold when a
  satisfaction *measure* clears a threshold (SFDs, PFDs, AFDs, PACs,
  AMVDs, approximate DCs).  Subclasses implement
  :meth:`~MeasuredDependency.measure` and declare the comparison
  direction.
"""

from __future__ import annotations

import abc
import itertools
from collections.abc import Iterable, Iterator

from ..relation.relation import Relation
from ..relation.schema import Schema
from .violation import ViolationSet


class DependencyError(ValueError):
    """Raised for ill-formed dependencies (bad thresholds, empty sides)."""


class Dependency(abc.ABC):
    """Base class of every dependency notation in the family tree."""

    #: Short notation name as used in the survey's Table 2 ("FD", "SFD", ...).
    kind: str = "dependency"

    #: True when evaluation inherently reads every column (MVD-style
    #: complements over the rest of the schema), so column routing by
    #: :meth:`attributes` is not applicable to this notation.
    reads_whole_relation: bool = False

    @abc.abstractmethod
    def violations(self, relation: Relation) -> ViolationSet:
        """All violation evidence for this dependency on ``relation``."""

    def holds(self, relation: Relation) -> bool:
        """True iff the dependency is satisfied by ``relation``.

        Default: no violations.  Measured dependencies override this to
        compare their measure against the threshold instead.
        """
        return not self.violations(relation)

    def violation_count(self, relation: Relation) -> int:
        """``len(self.violations(relation))``.

        Default: list the violations and count them.  The FD family
        (FD, AFD, SFD, CFD, eCFD) counts from the relation's code
        groups instead, without listing a pair.
        """
        return len(self.violations(relation))

    def attributes(self) -> tuple[str, ...]:
        """Names of all attributes the dependency mentions (for routing)."""
        return ()

    def validate_schema(self, schema: Schema) -> None:
        """Raise if the dependency mentions attributes outside ``schema``."""
        schema.resolve(self.attributes())

    def label(self) -> str:
        """Display label, e.g. ``FD: address -> region``."""
        return f"{self.kind}: {self}"


class PairwiseDependency(Dependency):
    """A dependency universally quantified over unordered tuple pairs."""

    @abc.abstractmethod
    def pair_violation(
        self, relation: Relation, i: int, j: int
    ) -> str | None:
        """A violation reason if tuples ``i, j`` jointly violate, else None.

        ``i < j`` is guaranteed by the plan kernels; implementations
        that are order-sensitive (ODs, DCs) must check both orientations.
        """

    def violations(self, relation: Relation) -> ViolationSet:
        from ..plan import pairwise_violations

        return ViolationSet(pairwise_violations(self, relation))

    def holds(self, relation: Relation) -> bool:
        # Short-circuit on first violation rather than materializing all.
        from ..plan import pairwise_violations

        return not pairwise_violations(self, relation, first_only=True)

    def violating_pairs(self, relation: Relation) -> set[tuple[int, int]]:
        """The set of violating (i, j) pairs, i < j."""
        return {
            (v.tuples[0], v.tuples[1]) for v in self.violations(relation)
        }


class MeasuredDependency(Dependency):
    """A dependency that holds when a measure clears a threshold.

    Subclasses define :meth:`measure` plus the class attribute
    ``measure_direction``: ``">="`` means "holds iff measure >= threshold"
    (SFD strength, PFD probability, PAC confidence), ``"<="`` means
    "holds iff measure <= threshold" (AFD g3 error, AMVD epsilon).
    """

    measure_direction: str = ">="

    @property
    @abc.abstractmethod
    def threshold(self) -> float:
        """The declared threshold (s, p, epsilon, delta, ...)."""

    @abc.abstractmethod
    def measure(self, relation: Relation) -> float:
        """The satisfaction measure evaluated on ``relation``."""

    def holds(self, relation: Relation) -> bool:
        value = self.measure(relation)
        if self.measure_direction == ">=":
            return value >= self.threshold
        if self.measure_direction == "<=":
            return value <= self.threshold
        raise DependencyError(
            f"bad measure_direction {self.measure_direction!r}"
        )


class Conjunction(Dependency):
    """A conjunction of dependencies, itself a dependency.

    Some family-tree embeddings produce several constraints in the
    target formalism whose *conjunction* equals the source (an OD with
    several RHS marks becomes one DC per mark; an eCFD with a constant
    RHS cell becomes a pairwise DC plus a single-tuple DC).
    """

    kind = "AND"

    def __init__(self, parts: Iterable[Dependency]) -> None:
        self.parts: tuple[Dependency, ...] = tuple(parts)
        if not self.parts:
            raise DependencyError("conjunction of zero dependencies")

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.parts)

    def violations(self, relation: Relation) -> ViolationSet:
        vs = ViolationSet()
        for p in self.parts:
            vs.extend(p.violations(relation))
        return vs

    def holds(self, relation: Relation) -> bool:
        return all(p.holds(relation) for p in self.parts)

    def attributes(self) -> tuple[str, ...]:
        names: list[str] = []
        for p in self.parts:
            names.extend(p.attributes())
        return tuple(dict.fromkeys(names))


def ensure_nonempty(side: Iterable[str], what: str) -> tuple[str, ...]:
    """Validate a dependency side is non-empty; return it as a tuple."""
    out = tuple(side)
    if not out:
        raise DependencyError(f"{what} must be non-empty")
    return out


def format_attrs(attrs: Iterable[str]) -> str:
    """Comma-join attribute names for labels."""
    return ", ".join(attrs)


def brute_force_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All index pairs i < j below n (testing helper)."""
    return itertools.combinations(range(n), 2)
