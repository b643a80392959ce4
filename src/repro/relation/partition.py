"""Stripped partitions (position list indexes) — TANE's core structure.

A partition ``π_X`` of a relation groups tuple indices by equal
``X``-values.  The *stripped* partition drops singleton groups, which is
the representation TANE [53, 54] uses:

* an FD ``X -> A`` holds iff ``π_X`` refines ``π_{X ∪ {A}}``, which via
  error counts reduces to ``|π_X| + stripped sizes`` arithmetic;
* the AFD ``g3`` error is computed from the stripped partition in one
  pass (``g3 = (||π|| - groups' max subcluster sum) / n``);
* partition *product* composes ``π_X · π_Y = π_{XY}`` in O(n).

The same structure also serves CFD discovery (pattern partitions) and
the equivalence-class repair engine.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .relation import Relation
from .schema import Attribute


class _Scratch:
    """A reusable stamped lookup table (tuple index -> small int).

    The classic per-call ``[-1] * n`` probe table of TANE's partition
    product is replaced by one shared table that grows monotonically;
    a stamp per slot says whether the entry belongs to the current
    operation, so no O(n) reset is ever paid.  Single-threaded by
    design, like the rest of the substrate.
    """

    __slots__ = ("value", "stamp", "counter")

    def __init__(self) -> None:
        self.value: list[int] = []
        self.stamp: list[int] = []
        self.counter = 0

    def acquire(self, n: int) -> tuple[list[int], list[int], int]:
        """Grow to ``n`` slots and hand out a fresh stamp."""
        grow = n - len(self.value)
        if grow > 0:
            self.value.extend([0] * grow)
            self.stamp.extend([0] * grow)
        self.counter += 1
        return self.value, self.stamp, self.counter

    def tick(self) -> int:
        """A fresh stamp over the already-acquired slots."""
        self.counter += 1
        return self.counter


#: Probe table keyed by tuple index (size: number of tuples).
_PROBE = _Scratch()
#: Bucket table keyed by class id (size: number of classes).
_BUCKETS = _Scratch()


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

        Uses the dictionary-encoded grouping kernel — the group keys
        are never materialized, only the index classes.
        ``_grouped_indices`` guarantees ascending members and the
        ``min_size=2`` filter, so the normalizing constructor work is
        skipped.
        """
        grouped = relation._grouped_indices(attributes, min_size=2)
        out = cls.__new__(cls)
        out.n = len(relation)
        out.classes = (
            grouped
            if type(grouped) is tuple
            else tuple(tuple(c) for c in grouped)
        )
        return out

    @classmethod
    def single(cls, relation: Relation, attribute: Attribute | str) -> "StrippedPartition":
        """π_A for a single attribute (the level-1 partitions of TANE)."""
        return cls.from_relation(relation, [attribute])

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

    # -- composition ---------------------------------------------------------

    def product(self, other: "StrippedPartition") -> "StrippedPartition":
        """``π_X · π_Y = π_{X ∪ Y}`` in linear time.

        Standard TANE probe-table algorithm: intersect every class of
        ``self`` with the classes of ``other`` via a tuple->class lookup.
        """
        if self.n != other.n:
            raise ValueError("partitions over different relations")
        cid_of, cid_stamp, stamp = _PROBE.acquire(self.n)
        for cid, cls_ in enumerate(other.classes):
            for t in cls_:
                cid_of[t] = cid
                cid_stamp[t] = stamp
        slot_of, slot_stamp, __ = _BUCKETS.acquire(len(other.classes))
        new_classes: list[list[int]] = []
        for cls_ in self.classes:
            tick = _BUCKETS.tick()
            buckets: list[list[int]] = []
            for t in cls_:
                if cid_stamp[t] != stamp:
                    continue  # singleton in `other`
                cid = cid_of[t]
                if slot_stamp[cid] != tick:
                    slot_stamp[cid] = tick
                    slot_of[cid] = len(buckets)
                    buckets.append([t])
                else:
                    buckets[slot_of[cid]].append(t)
            for bucket in buckets:
                if len(bucket) >= 2:
                    new_classes.append(bucket)
        return StrippedPartition(self.n, new_classes)

    def refines(self, other: "StrippedPartition") -> bool:
        """True iff every class of ``self`` is inside one class of ``other``.

        The FD ``X -> Y`` holds iff ``π_X`` refines ``π_Y`` — equivalently
        iff ``rank(π_{XY}) == rank(π_X)``, which is how TANE tests validity.
        """
        if self.n != other.n:
            raise ValueError("partitions over different relations")
        cid_of, cid_stamp, stamp = _PROBE.acquire(self.n)
        for cid, cls_ in enumerate(other.classes):
            for t in cls_:
                cid_of[t] = cid
                cid_stamp[t] = stamp
        for cls_ in self.classes:
            # All members must map to the same class of `other`; a tuple
            # missing from `other`'s stripped classes is a singleton there
            # and can't absorb a class of size >= 2.
            if cid_stamp[cls_[0]] != stamp:
                return False
            first = cid_of[cls_[0]]
            for t in cls_[1:]:
                if cid_stamp[t] != stamp or cid_of[t] != first:
                    return False
        return True

    def g3_error(self, joint: "StrippedPartition") -> float:
        """``g3(X -> Y)`` from π_X (self) and π_{XY} (joint).

        For each non-singleton X-class, the kept tuples are the largest
        XY-subclass inside it; everything else must be removed.  Tuples in
        singleton X-classes never violate.  Returns a fraction in [0, 1].
        """
        if self.n == 0:
            return 0.0
        # Map each tuple to the size of its XY-class (singletons -> 1).
        size_of, size_stamp, stamp = _PROBE.acquire(self.n)
        for cls_ in joint.classes:
            size = len(cls_)
            for t in cls_:
                size_of[t] = size
                size_stamp[t] = stamp
        removed = 0
        for cls_ in self.classes:
            # Largest XY-subclass within this X-class: since XY refines X,
            # each XY-class is entirely inside one X-class, so the max of
            # per-tuple class sizes is the max subclass size.
            best = 1
            for t in cls_:
                if size_stamp[t] == stamp and size_of[t] > best:
                    best = size_of[t]
            removed += len(cls_) - best
        return removed / self.n

    def violating_classes(self, joint: "StrippedPartition") -> list[tuple[int, ...]]:
        """X-classes that split into >1 XY-class (the FD violations)."""
        class_of: dict[int, int] = {}
        for cid, cls_ in enumerate(joint.classes):
            for t in cls_:
                class_of[t] = cid
        bad: list[tuple[int, ...]] = []
        for cls_ in self.classes:
            # Tuples absent from joint's stripped classes are singletons
            # in π_XY; two of them (or one plus any other class) split the
            # X-class.
            ids = {class_of.get(t, ("s", t)) for t in cls_}
            if len(ids) > 1:
                bad.append(cls_)
        return bad

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
