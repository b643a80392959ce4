"""Stripped partitions (position list indexes) — TANE's structure.

A partition ``π_X`` of a relation groups tuple indices by equal
``X``-values.  The *stripped* partition drops singleton groups, which is
the representation TANE [53, 54] uses.  Its rank ``|π_X|`` is the
number of distinct ``X``-values, so an FD ``X -> A`` holds iff
``π_X`` and ``π_{X ∪ {A}}`` have equal ranks.

Discovery reads those ranks, and ``g3``, from the encoding's code
tables (:meth:`~repro.relation.encoding.RelationEncoding.contingency`);
this value type lists the member rows, built from the encoding's group
table.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .relation import Relation
from .schema import Attribute


class StrippedPartition:
    """A stripped partition: equivalence classes of size >= 2.

    ``n`` is the total number of tuples in the underlying relation;
    singleton classes are implicit (any index not in a listed class).
    """

    __slots__ = ("n", "classes")

    def __init__(self, n: int, classes: Iterable[Sequence[int]]) -> None:
        self.n = n
        self.classes: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(c)) for c in classes if len(c) >= 2
        )

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_relation(
        cls, relation: Relation, attributes: Sequence[Attribute | str]
    ) -> "StrippedPartition":
        """π_X for attribute list X, directly from the relation.

        The classes come from the encoding's group table: ascending
        members, first-occurrence order, keys never decoded.
        """
        idxs = relation._column_indices(attributes)
        out = cls.__new__(cls)
        out.n = n = len(relation)
        if idxs and n:
            out.classes = relation.encoding().stripped_classes(idxs)
        else:  # no attributes (every row in one class) or no rows
            out.classes = (tuple(range(n)),) if n >= 2 else ()
        return out

    # -- core quantities ----------------------------------------------------

    @property
    def num_classes(self) -> int:
        """Number of non-singleton equivalence classes."""
        return len(self.classes)

    @property
    def stripped_size(self) -> int:
        """``||π||`` — number of tuples inside non-singleton classes."""
        return sum(len(c) for c in self.classes)

    @property
    def rank(self) -> int:
        """Total number of equivalence classes, counting singletons.

        ``|π_X|`` equals the number of distinct X-values.
        """
        return self.n - self.stripped_size + self.num_classes

    def error(self) -> int:
        """TANE's e(π) numerator: ``||π|| - |classes|``.

        Interpreted as the minimum number of tuples to delete so that the
        attribute set becomes a key within the stripped classes.
        """
        return self.stripped_size - self.num_classes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrippedPartition):
            return NotImplemented
        return self.n == other.n and sorted(self.classes) == sorted(other.classes)

    def __hash__(self) -> int:
        # Structural, order-insensitive (classes are disjoint, so the
        # frozenset view agrees with the sorted-list comparison of
        # ``__eq__``).  Defining ``__eq__`` alone had silently removed
        # the inherited hash, making partitions unusable in sets and as
        # cache values deduplicated by identity sets.
        return hash((self.n, frozenset(self.classes)))

    def __repr__(self) -> str:
        return (
            f"StrippedPartition(n={self.n}, classes={self.num_classes}, "
            f"||pi||={self.stripped_size})"
        )
