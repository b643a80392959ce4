"""Shared machinery for dependency discovery algorithms.

Level-wise lattice traversal (TANE-family), minimality filtering, and
the uniform :class:`DiscoveryResult` container that every discovery
entry point returns (discovered dependencies + search statistics, so
the benchmark harness can report work done, not just wall-clock).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

from ..core.base import Dependency

D = TypeVar("D", bound=Dependency)


@dataclass
class DiscoveryStats:
    """Work counters common across discovery algorithms."""

    candidates_checked: int = 0
    candidates_pruned: int = 0
    levels: int = 0
    #: Code tables built (``RelationEncoding.contingency`` misses).
    partitions_built: int = 0
    #: Code tables and group dicts served from the relation's memos
    #: instead of being rebuilt (``RelationEncoding.contingency`` and
    #: ``repro.relation.partition_cache``).
    partition_cache_hits: int = 0
    #: ``False`` when the run stopped on a resource budget: the result
    #: is an honest partial answer, not the full minimal set.
    complete: bool = True
    #: ``""`` while complete; the :class:`~repro.runtime.errors.
    #: BudgetExhausted` reason (``"deadline"``, ``"candidates"``, ...)
    #: otherwise.
    exhausted: str = ""
    #: Dependencies admitted via sampled verification after budget
    #: exhaustion (degraded FASTDC/Hydra-style fallback) — these were
    #: checked on a row sample only, never on the full relation.
    sampled_verified: int = 0

    def merge(self, other: "DiscoveryStats") -> None:
        self.candidates_checked += other.candidates_checked
        self.candidates_pruned += other.candidates_pruned
        self.levels = max(self.levels, other.levels)
        self.partitions_built += other.partitions_built
        self.partition_cache_hits += other.partition_cache_hits
        self.complete = self.complete and other.complete
        self.exhausted = self.exhausted or other.exhausted
        self.sampled_verified += other.sampled_verified

    def mark_exhausted(self, reason: str) -> None:
        """Flag this run as budget-limited (partial result)."""
        self.complete = False
        self.exhausted = reason


@dataclass
class DiscoveryResult:
    """Dependencies found by one discovery run, with statistics."""

    dependencies: list
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)
    algorithm: str = ""

    def __iter__(self):
        return iter(self.dependencies)

    def __len__(self) -> int:
        return len(self.dependencies)

    def __contains__(self, dep) -> bool:
        return dep in self.dependencies

    @property
    def complete(self) -> bool:
        """Whether the search ran to completion (no budget exhaustion)."""
        return self.stats.complete

    def summary(self) -> str:
        text = (
            f"{self.algorithm}: {len(self.dependencies)} dependencies, "
            f"{self.stats.candidates_checked} candidates checked, "
            f"{self.stats.candidates_pruned} pruned"
        )
        if not self.stats.complete:
            text += f" [partial: budget exhausted ({self.stats.exhausted})]"
        return text


def match_evidence(rule, relation) -> set[tuple[int, int]]:
    """The LHS-selected (i, j) pairs of a matching-style rule.

    ``rule.matches`` is plan-backed (guard-plan pruning); collecting
    the full match set once lets greedy cover selection intersect sets
    instead of re-evaluating similarity per (candidate, pair).
    """
    return set(rule.matches(relation))


def subsets_of_size(
    items: Sequence[str], size: int
) -> Iterator[tuple[str, ...]]:
    """All ``size``-subsets in deterministic order."""
    return itertools.combinations(items, size)


def proper_subsets(items: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """All immediate (size-1) subsets of an attribute combination."""
    for drop in range(len(items)):
        yield items[:drop] + items[drop + 1:]


def is_superset_of_any(
    candidate: tuple[str, ...], found: Iterable[tuple[str, ...]]
) -> bool:
    """Whether ``candidate`` ⊇ some already-found LHS (minimality prune)."""
    cset = set(candidate)
    return any(cset >= set(f) for f in found)


def generate_next_level(
    level: list[tuple[str, ...]]
) -> list[tuple[str, ...]]:
    """Apriori-style candidate generation: join k-sets sharing a prefix.

    Keeps only candidates all of whose k-subsets are present in the
    current level — the standard level-wise pruning of TANE [53, 54].
    """
    present = set(level)
    next_level: list[tuple[str, ...]] = []
    by_prefix: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for combo in level:
        by_prefix.setdefault(combo[:-1], []).append(combo)
    for group in by_prefix.values():
        for a, b in itertools.combinations(sorted(group), 2):
            candidate = tuple(sorted(set(a) | set(b)))
            if len(candidate) != len(a) + 1:
                continue
            if all(sub in present for sub in proper_subsets(candidate)):
                next_level.append(candidate)
    return sorted(set(next_level))
