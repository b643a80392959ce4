"""A relation-level cache of stripped partitions and group tables.

Discovery no longer builds partitions: TANE, CORDS and CFDMiner read
ranks and group counts from the encoding's code tables
(:meth:`~repro.relation.encoding.RelationEncoding.contingency`), which
are memoized per relation the same way.  This cache keeps the
row-listing forms for the callers that need member rows: CFDMiner's
LHS patterns, the repair engine's violating groups, the plan's group
slabs, and the partition-based TANE reference in the tests.

:class:`PartitionCache` memoizes, per relation instance:

* ``partition(X)`` — the stripped partition ``π_X``, keyed by the
  *sorted* attribute-name tuple (partitions are order-insensitive);
* ``groups(X)`` — the full ``group_by`` dict, keyed by the attribute
  list *as given* (the key tuples are order-sensitive).

Relations are immutable, so entries never invalidate; derived relations
(``with_value``, ``take``, ...) start with a fresh, empty cache.  The
cache lives on the relation (``Relation._cache``), so any two
algorithms handed the same relation object automatically share it.  It
refers back to its relation only weakly: a strong back-reference would
make every cached relation a reference cycle, freed only by the cyclic
collector instead of the moment its last user drops it.

Returned partitions and group dicts are shared: callers must treat
them as read-only.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

from .encoding import CacheStats
from .partition import StrippedPartition
from .relation import Relation, Row
from .schema import Attribute, as_attribute_names


class PartitionCache:
    """Memoized stripped partitions and group tables for one relation."""

    __slots__ = ("_relation", "_partitions", "_groups", "stats")

    def __init__(self, relation: Relation) -> None:
        self._relation = weakref.ref(relation)
        self._partitions: dict[tuple[str, ...], StrippedPartition] = {}
        self._groups: dict[tuple[str, ...], dict[Row, list[int]]] = {}
        self.stats = CacheStats()

    def partition(
        self, attributes: Sequence[Attribute | str]
    ) -> StrippedPartition:
        """``π_X``, built on first use and shared afterwards.

        Single attributes build directly from the dictionary codes;
        multi-attribute partitions compose incrementally via the
        (cached) sub-partitions' stamped ``product``, as classic TANE
        does.
        """
        key = tuple(sorted(as_attribute_names(attributes)))
        pi = self._partitions.get(key)
        if pi is not None:
            self.stats.hits += 1
            return pi
        self.stats.misses += 1
        if len(key) > 1:
            pi = self.partition(key[:-1]).product(self.partition(key[-1:]))
        else:
            pi = StrippedPartition.from_relation(self._source(), key)
        self._partitions[key] = pi
        return pi

    def groups(
        self, attributes: Sequence[Attribute | str]
    ) -> dict[Row, list[int]]:
        """Memoized ``relation.group_by(attributes)`` (read-only!)."""
        key = as_attribute_names(attributes)
        table = self._groups.get(key)
        if table is not None:
            self.stats.hits += 1
            return table
        self.stats.misses += 1
        table = self._source().group_by(key)
        self._groups[key] = table
        return table

    def _source(self) -> Relation:
        relation = self._relation()
        if relation is None:
            raise ReferenceError("the cached relation no longer exists")
        return relation

    def __len__(self) -> int:
        return len(self._partitions) + len(self._groups)

    def clear(self) -> None:
        """Drop all cached entries (the stats survive)."""
        self._partitions.clear()
        self._groups.clear()


def cache_for(relation: Relation) -> PartitionCache:
    """The relation's shared :class:`PartitionCache` (created lazily)."""
    cache = relation._cache
    if cache is None:
        cache = PartitionCache(relation)
        relation._cache = cache
    return cache
