"""Per-family incremental checkers: violation state under mutation.

Each checker owns one rule's violation dictionary (keyed by the sorted
tuple-index tuple — the same identity :class:`~repro.core.violation.
ViolationSet` dedupes on) and advances it by one :class:`~repro.
incremental.delta.Delta` at a time.  The contract, pinned by the
hypothesis parity suite, is that after any batch sequence the key set,
``holds()`` verdict, and (for measured rules) the measure all equal a
cold recompute on the final relation.

Three evaluation strategies cover the family tree:

* :class:`GroupKeyedChecker` (FD, AFD, CFD, MFD) — maintains the
  equal-``X`` groups and re-examines only groups a changed tuple left
  or entered, via the per-group hooks on the rule classes;
* :class:`PairProbeChecker` (DD, CDD, MD, CMD, NED, OD, CD, FFD, OFD,
  and any other vanilla pairwise notation) plus :class:`DCChecker` —
  drops violations involving changed tuples and re-probes each changed
  tuple against all others, O(changed · n) instead of O(n²);
* :class:`SDChecker` — keeps the ``X``-sorted order as a list, patches
  it by seam (removals splice, insertions bisect) and re-validates only
  the adjacencies that changed.

Everything else — MVD-family, eCFD, CSD, conjunctions, unknown rules —
transparently falls back to :class:`FullRecomputeChecker`, which is
slow but always right.  :func:`checker_for` is the dispatch table.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, insort
from collections.abc import Sequence

from ..core.base import MeasuredDependency, PairwiseDependency
from ..core.categorical.afd import AFD
from ..core.categorical.cfd import CFD
from ..core.categorical.fd import FD
from ..core.heterogeneous.mfd import MFD
from ..core.numerical.dc import ALPHA, BETA, DC
from ..core.numerical.sd import SD
from ..core.violation import Violation, ViolationSet
from ..relation.relation import Relation
from .delta import Delta

#: Violation identity used throughout: the (sorted) tuple-index tuple.
ViolKey = tuple


def _remap_key(key: ViolKey, remap: list[int | None] | None) -> ViolKey | None:
    """Translate a violation key across a batch; ``None`` if any tuple died."""
    if remap is None:
        return key
    out = []
    for t in key:
        nt = remap[t]
        if nt is None:
            return None
        out.append(nt)
    return tuple(out)


def _touched_rows(delta: Delta, attrs: set[str]) -> set[int]:
    """Pre-batch rows whose update assigns an attribute the rule reads."""
    return {
        row
        for row, assignment in delta.updates
        if any(a in attrs for a, __ in assignment)
    }


class IncrementalChecker(abc.ABC):
    """Maintains one rule's violations across mutation batches."""

    def __init__(self, rule, relation: Relation) -> None:
        self.rule = rule
        self.label = rule.label()
        self._viols: dict[ViolKey, Violation] = {}
        self._cold_start(relation)

    @abc.abstractmethod
    def _cold_start(self, relation: Relation) -> None:
        """Populate ``_viols`` (and any index state) from scratch."""

    @abc.abstractmethod
    def _apply(
        self,
        old: Relation,
        delta: Delta,
        new: Relation,
        remap: list[int | None] | None,
    ) -> None:
        """Advance the internal state by one batch."""

    def apply(
        self,
        old: Relation,
        delta: Delta,
        new: Relation,
        remap: list[int | None] | None,
    ) -> tuple[list[Violation], list[Violation]]:
        """One batch step; returns ``(added, resolved)`` violations.

        ``added`` uses post-batch indices; ``resolved`` reports the old
        violations with their pre-batch indices (the tuples may no
        longer exist).  A violation whose tuples merely shifted under a
        delete is neither added nor resolved.
        """
        before = dict(self._viols)
        self._apply(old, delta, new, remap)
        after = self._viols
        surviving: set[ViolKey] = set()
        resolved: list[Violation] = []
        for key, v in before.items():
            mapped = _remap_key(key, remap)
            if mapped is not None and mapped in after:
                surviving.add(mapped)
            else:
                resolved.append(v)
        added = [v for key, v in after.items() if key not in surviving]
        return added, resolved

    def violations(self) -> ViolationSet:
        return ViolationSet(self._viols.values())

    def violation_count(self) -> int:
        """Current violation count without materializing the set."""
        return len(self._viols)

    def holds(self, relation: Relation) -> bool:
        """Rule satisfaction on the current relation (measured rules
        and fallback checkers override)."""
        return not self._viols


class FullRecomputeChecker(IncrementalChecker):
    """Transparent fallback: recompute the rule on every batch."""

    def _cold_start(self, relation: Relation) -> None:
        self._viols = {v.tuples: v for v in self.rule.violations(relation)}

    def _apply(self, old, delta, new, remap) -> None:
        self._cold_start(new)

    def holds(self, relation: Relation) -> bool:
        return self.rule.holds(relation)


# -- group-keyed family (FD, AFD, CFD, MFD) ----------------------------


class GroupKeyedChecker(IncrementalChecker):
    """Equal-``X``-group maintenance: re-examine only touched groups.

    Subclasses provide :meth:`_row_key` (``None`` = row out of scope,
    e.g. a tuple not matching a CFD pattern), :meth:`_examine` (the
    per-group violation kernel), and optionally :meth:`_row_examine`
    (single-tuple violations, for CFD RHS constants) and
    :meth:`_group_changed` (bookkeeping hook, for the AFD measure).
    """

    def _cold_start(self, relation: Relation) -> None:
        self._groups: dict[tuple, list[int]] = {}
        self._group_viols: dict[tuple, list[ViolKey]] = {}
        self._row_viols: dict[int, list[ViolKey]] = {}
        for i in range(len(relation)):
            key = self._row_key(relation, i)
            if key is None:
                continue
            self._groups.setdefault(key, []).append(i)
            self._add_row_viols(relation, i)
        for key in list(self._groups):
            self._refresh_group(relation, key)

    @abc.abstractmethod
    def _row_key(self, relation: Relation, i: int) -> tuple | None:
        """Group key of row ``i``, or ``None`` if out of scope."""

    @abc.abstractmethod
    def _examine(
        self, relation: Relation, key: tuple, members: Sequence[int]
    ) -> list[Violation]:
        """Violations among one group (called only when ``len >= 2``)."""

    def _row_examine(self, relation: Relation, i: int) -> list[Violation]:
        return []

    def _group_changed(
        self, relation: Relation, key: tuple, members: Sequence[int]
    ) -> None:
        pass

    def _add_row_viols(self, relation: Relation, i: int) -> None:
        keys: list[ViolKey] = []
        for v in self._row_examine(relation, i):
            if v.tuples not in self._viols:  # ViolationSet keeps first
                self._viols[v.tuples] = v
                keys.append(v.tuples)
        if keys:
            self._row_viols[i] = keys

    def _refresh_group(self, relation: Relation, key: tuple) -> None:
        for vk in self._group_viols.pop(key, ()):
            self._viols.pop(vk, None)
        members = self._groups.get(key, ())
        if len(members) >= 2:
            vs = self._examine(relation, key, members)
            if vs:
                keys = []
                for v in vs:
                    self._viols[v.tuples] = v
                    keys.append(v.tuples)
                self._group_viols[key] = keys
        self._group_changed(relation, key, members)

    def _remap_state(self, remap: list[int | None]) -> None:
        # Deleted rows were already evicted, so every index survives.
        self._groups = {
            k: [remap[t] for t in members]
            for k, members in self._groups.items()
        }
        self._group_viols = {
            gk: [_remap_key(vk, remap) for vk in vks]
            for gk, vks in self._group_viols.items()
        }
        self._row_viols = {
            remap[i]: [_remap_key(vk, remap) for vk in vks]
            for i, vks in self._row_viols.items()
        }
        fresh: dict[ViolKey, Violation] = {}
        for vk, v in self._viols.items():
            nk = _remap_key(vk, remap)
            fresh[nk] = Violation(v.dependency, nk, v.reason)
        self._viols = fresh

    def _apply(self, old, delta, new, remap) -> None:
        attrs = set(self.rule.attributes())
        touched = _touched_rows(delta, attrs)
        deleted = set(delta.deletes)
        dirty: set[tuple] = set()
        for row in touched | deleted:
            # The groups index ``old``, so its row values give the key.
            key = self._row_key(old, row)
            if key is not None:
                members = self._groups[key]
                members.remove(row)
                if not members:
                    del self._groups[key]
                dirty.add(key)
            for vk in self._row_viols.pop(row, ()):
                self._viols.pop(vk, None)
        # Clear dirty groups' stored violations while keys are still in
        # the old index space (they may reference deleted rows).
        for key in dirty:
            for vk in self._group_viols.pop(key, ()):
                self._viols.pop(vk, None)
        if remap is not None:
            self._remap_state(remap)
        changed_new = [
            remap[row] if remap is not None else row
            for row in touched
            if row not in deleted
        ]
        changed_new.extend(range(len(new) - len(delta.inserts), len(new)))
        for nrow in sorted(changed_new):
            key = self._row_key(new, nrow)
            if key is None:
                continue
            insort(self._groups.setdefault(key, []), nrow)
            dirty.add(key)
            self._add_row_viols(new, nrow)
        for key in dirty:
            self._refresh_group(new, key)


class FDChecker(GroupKeyedChecker):
    """FD via partition deltas: only touched ``X``-groups re-examined."""

    def __init__(self, rule: FD, relation: Relation) -> None:
        self._fd = rule
        super().__init__(rule, relation)

    def _row_key(self, relation, i):
        return relation.values_at(i, self._fd.lhs)

    def _examine(self, relation, key, members):
        return self._fd.group_violations(relation, key, list(members))


class AFDChecker(FDChecker):
    """AFD: FD evidence plus an incrementally maintained g3 error.

    Per group we track the size of the largest single-``Y`` subgroup
    (the g3 "keep"); the measure is ``(n - Σ keeps) / n``, updated only
    for dirty groups.
    """

    def __init__(self, rule: AFD, relation: Relation) -> None:
        self._kept: dict[tuple, int] = {}
        self._kept_total = 0
        self._n = len(relation)
        self._fd = rule.embedded
        GroupKeyedChecker.__init__(self, rule, relation)

    def _group_changed(self, relation, key, members):
        old = self._kept.pop(key, 0)
        new = (
            self._fd.group_kept_count(relation, list(members))
            if members
            else 0
        )
        if new:
            self._kept[key] = new
        self._kept_total += new - old

    def _apply(self, old, delta, new, remap) -> None:
        super()._apply(old, delta, new, remap)
        self._n = len(new)

    def measure(self) -> float:
        """The g3 error of the current relation, maintained in O(change)."""
        if self._n == 0:
            return 0.0
        return (self._n - self._kept_total) / self._n

    def holds(self, relation: Relation) -> bool:
        return self.measure() <= self.rule.threshold


class CFDChecker(GroupKeyedChecker):
    """CFD: pattern-matching rows grouped by LHS, plus RHS-constant rows."""

    def _row_key(self, relation, i):
        if not self.rule.matches_lhs(relation, i):
            return None
        return relation.values_at(i, self.rule.lhs)

    def _examine(self, relation, key, members):
        return self.rule.group_violations(relation, key, list(members), self.label)

    def _row_examine(self, relation, i):
        return self.rule.single_violations(relation, i, self.label)


class MFDChecker(GroupKeyedChecker):
    """MFD: metric re-probe within touched equal-``X`` groups."""

    def _row_key(self, relation, i):
        return relation.values_at(i, self.rule.lhs)

    def _examine(self, relation, key, members):
        out: list[Violation] = []
        rule = self.rule
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                reason = rule.pair_violation(relation, i, j)
                if reason is not None:
                    out.append(Violation(self.label, (i, j), reason))
        return out


# -- pair-probe family (DD, MD, OD, NED, ... and DC) -------------------


class PairProbeChecker(IncrementalChecker):
    """Neighborhood re-probe: each changed tuple vs. all other tuples.

    Sound for any :class:`PairwiseDependency` whose violation set is the
    generic pair scan (a pair's verdict depends only on the two tuples'
    values): pairs of unchanged tuples cannot change verdict, so only
    changed-tuple pairs are re-probed — O(changed · n) per batch.
    """

    def _cold_start(self, relation: Relation) -> None:
        self._viols = {v.tuples: v for v in self.rule.violations(relation)}

    def _probe(self, relation: Relation, i: int, j: int) -> str | None:
        return self.rule.pair_violation(relation, i, j)

    def _store_probe(self, relation: Relation, i: int, j: int) -> None:
        reason = self._probe(relation, i, j)
        if reason is not None:
            v = Violation(self.label, (i, j), reason)
            self._viols[v.tuples] = v

    def _drop_involving(self, rows: set[int]) -> None:
        if not rows:
            return
        for vk in [
            vk for vk in self._viols if any(t in rows for t in vk)
        ]:
            del self._viols[vk]

    def _changed_new_rows(self, delta, new, touched, deleted, remap) -> list[int]:
        changed = [
            remap[row] if remap is not None else row
            for row in touched
            if row not in deleted
        ]
        changed.extend(range(len(new) - len(delta.inserts), len(new)))
        return sorted(set(changed))

    def _apply(self, old, delta, new, remap) -> None:
        attrs = set(self.rule.attributes())
        touched = _touched_rows(delta, attrs)
        deleted = set(delta.deletes)
        self._drop_involving(touched | deleted)
        if remap is not None:
            # Surviving pairs keep their verdict but indices shift; the
            # re-probe regenerates index-bearing reasons (ODs) too.
            old_keys = list(self._viols)
            self._viols = {}
            for vk in old_keys:
                nk = _remap_key(vk, remap)
                self._store_probe(new, nk[0], nk[1])
        changed = set(
            self._changed_new_rows(delta, new, touched, deleted, remap)
        )
        if not changed:
            return
        # The plan kernels prune the changed × all probe space the same
        # way they prune the cold scan, restricted to pairs touching a
        # changed row.
        for v in self._plan_probe(new, changed):
            self._viols[v.tuples] = v

    def _plan_probe(self, relation: Relation, restrict: set[int]):
        from ..plan import pairwise_violations

        return pairwise_violations(self.rule, relation, restrict=restrict)


class DCChecker(PairProbeChecker):
    """DC: re-validate predicate assignments involving changed tuples.

    Two-variable DCs probe both (α, β) orientations per pair — α = the
    lower index first, matching the cold scan's dedupe order.  Single-
    tuple DCs just re-check the changed tuples.
    """

    def _probe(self, relation, i, j):
        rule = self.rule
        if rule._assignment_denied(relation, {ALPHA: i, BETA: j}):
            return f"(tα=t{i}, tβ=t{j}) satisfies all atoms"
        if rule._assignment_denied(relation, {ALPHA: j, BETA: i}):
            return f"(tα=t{j}, tβ=t{i}) satisfies all atoms"
        return None

    def _plan_probe(self, relation, restrict):
        from ..plan import denial_violations

        return denial_violations(self.rule, relation, restrict=restrict)

    def _apply(self, old, delta, new, remap) -> None:
        if not self.rule.is_single_tuple:
            super()._apply(old, delta, new, remap)
            return
        attrs = set(self.rule.attributes())
        touched = _touched_rows(delta, attrs)
        deleted = set(delta.deletes)
        self._drop_involving(touched | deleted)
        if remap is not None:
            fresh: dict[ViolKey, Violation] = {}
            for vk, v in self._viols.items():
                nk = _remap_key(vk, remap)
                fresh[nk] = Violation(v.dependency, nk, v.reason)
            self._viols = fresh
        var = self.rule._variables[0]
        for i in self._changed_new_rows(delta, new, touched, deleted, remap):
            if self.rule._assignment_denied(new, {var: i}):
                self._viols[(i,)] = Violation(
                    self.label, (i,), "tuple satisfies all atoms"
                )


# -- order family (SD) -------------------------------------------------


class SDChecker(IncrementalChecker):
    """SD: maintain the ``X``-sorted order, re-validate changed seams.

    The order is a list of ``(x_key, index)`` entries — exactly the
    stable sort the cold path uses (ties break by index).  Removals
    splice and mark the seam survivors dirty; insertions bisect in and
    mark their new neighbors dirty; only adjacencies involving a dirty
    row are re-checked.
    """

    def _cold_start(self, relation: Relation) -> None:
        rule = self.rule
        self._entries: list[tuple[tuple, int]] = []
        self._y: dict[int, float] = {}
        for i in rule.sorted_indices(relation):
            self._entries.append((relation.values_at(i, rule.lhs), i))
            self._y[i] = float(relation.value_at(i, rule.rhs))
        for pos in range(1, len(self._entries)):
            self._check_adjacent(
                self._entries[pos - 1][1], self._entries[pos][1]
            )

    def _usable(self, relation: Relation, i: int) -> bool:
        rule = self.rule
        return all(
            relation.value_at(i, a) is not None for a in rule.lhs
        ) and relation.value_at(i, rule.rhs) is not None

    def _check_adjacent(self, a: int, b: int) -> None:
        """Validate the gap of the order-adjacent pair ``a`` before ``b``."""
        delta_y = self._y[b] - self._y[a]
        if not self.rule.gap.contains(delta_y):
            v = Violation(
                self.label,
                (a, b),
                f"consecutive {self.rule.rhs} gap {delta_y:g} ∉ {self.rule.gap}",
            )
            self._viols[v.tuples] = v

    def _apply(self, old, delta, new, remap) -> None:
        rule = self.rule
        attrs = set(rule.attributes())
        touched = _touched_rows(delta, attrs)
        deleted = set(delta.deletes)
        removed = {r for r in touched | deleted if r in self._y}
        dirty: set[int] = set()
        if removed:
            for vk in [
                vk for vk in self._viols if any(t in removed for t in vk)
            ]:
                del self._viols[vk]
            entries: list[tuple[tuple, int]] = []
            seam_open = False
            for key, i in self._entries:
                if i in removed:
                    seam_open = True
                    continue
                if seam_open and entries:
                    dirty.add(entries[-1][1])
                    dirty.add(i)
                seam_open = False
                entries.append((key, i))
            self._entries = entries
            for i in removed:
                del self._y[i]
        if remap is not None:
            self._entries = [(k, remap[i]) for k, i in self._entries]
            self._y = {remap[i]: y for i, y in self._y.items()}
            dirty = {remap[i] for i in dirty}
            fresh: dict[ViolKey, Violation] = {}
            for vk, v in self._viols.items():
                nk = _remap_key(vk, remap)
                fresh[nk] = Violation(v.dependency, nk, v.reason)
            self._viols = fresh
        changed = [
            remap[row] if remap is not None else row
            for row in touched
            if row not in deleted
        ]
        changed.extend(range(len(new) - len(delta.inserts), len(new)))
        for i in sorted(set(changed)):
            if not self._usable(new, i):
                continue
            entry = (new.values_at(i, rule.lhs), i)
            pos = bisect_left(self._entries, entry)
            if pos > 0:
                dirty.add(self._entries[pos - 1][1])
            if pos < len(self._entries):
                dirty.add(self._entries[pos][1])
            self._entries.insert(pos, entry)
            self._y[i] = float(new.value_at(i, rule.rhs))
            dirty.add(i)
        dirty = {i for i in dirty if i in self._y}
        if not dirty:
            return
        for vk in [vk for vk in self._viols if any(t in dirty for t in vk)]:
            del self._viols[vk]
        for i in dirty:
            pos = bisect_left(self._entries, (new.values_at(i, rule.lhs), i))
            if pos > 0:
                self._check_adjacent(self._entries[pos - 1][1], i)
            if pos + 1 < len(self._entries):
                self._check_adjacent(i, self._entries[pos + 1][1])


# -- dispatch ----------------------------------------------------------

#: Exact-kind registry of specialized checkers (Table 2 vocabulary).
CHECKER_REGISTRY: dict[str, tuple[type, type]] = {
    "FD": (FDChecker, FD),
    "AFD": (AFDChecker, AFD),
    "CFD": (CFDChecker, CFD),
    "MFD": (MFDChecker, MFD),
    "DC": (DCChecker, DC),
    "SD": (SDChecker, SD),
}


def checker_for(rule, relation: Relation) -> IncrementalChecker:
    """Pick the incremental strategy for ``rule`` (fallback: recompute).

    Dispatch is by exact ``kind`` (so subclassed notations like eCFD do
    not inherit a checker whose assumptions they may break), then by the
    generic pair-probe for vanilla pairwise notations, then the full-
    recompute fallback — which is always available, so *every* rule the
    :class:`~repro.quality.detection.Detector` accepts is watchable.
    """
    entry = CHECKER_REGISTRY.get(getattr(rule, "kind", None))
    if entry is not None:
        cls, expected = entry
        if isinstance(rule, expected) and type(rule).kind == expected.kind:
            return cls(rule, relation)
    if (
        isinstance(rule, PairwiseDependency)
        and not isinstance(rule, MeasuredDependency)
        and type(rule).violations is PairwiseDependency.violations
    ):
        return PairProbeChecker(rule, relation)
    return FullRecomputeChecker(rule, relation)
