"""The incremental detector: a violation changefeed over mutating data.

:class:`IncrementalDetector` wraps the same rule set the batch
:class:`~repro.quality.detection.Detector` takes, but consumes a
*stream* of :class:`~repro.incremental.delta.Delta` batches.  Each
:meth:`~IncrementalDetector.apply` advances every rule's incremental
checker (see :mod:`repro.incremental.checkers`) and emits a
:class:`BatchChange` — the violations *added* and *resolved* by that
batch — instead of re-deriving the full violation set.

The detector's cumulative state is always equal to a cold
``Detector(rules).detect(current_relation)`` (the hypothesis parity
suite pins this), so downstream consumers can treat :meth:`report` as a
drop-in for batch detection while paying only for what changed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from ..core.violation import ViolationSet
from ..quality.detection import DetectionReport
from ..relation.relation import Relation
from ..runtime.budget import Budget, checkpoint, governed
from ..runtime.errors import BudgetExhausted
from .checkers import IncrementalChecker, checker_for
from .delta import Delta


@dataclass
class BatchChange:
    """The changefeed entry for one applied batch."""

    seq: int
    delta: Delta
    added: ViolationSet
    resolved: ViolationSet
    total: int
    #: Rules whose checker raised on this batch (``"label: error"``).
    #: Each was cold-rebuilt against the post-batch relation (or
    #: deactivated when the rebuild itself failed) — never silently
    #: dropped.  Their per-batch added/resolved feed is unavailable,
    #: but the cumulative violation state stays exact.
    quarantined: list[str] = field(default_factory=list)
    #: False when a budget deadline cut the batch short; the remaining
    #: checkers were cold-rebuilt so cumulative state is still exact.
    complete: bool = True
    exhausted: str = ""

    def summary(self) -> str:
        out = (
            f"batch {self.seq}: +{len(self.added)} -{len(self.resolved)} "
            f"| total {self.total}"
        )
        if self.quarantined:
            out += f" | quarantined {len(self.quarantined)}"
        if not self.complete:
            out += f" [partial: budget exhausted ({self.exhausted})]"
        return out

    def render(self, limit: int = 10) -> str:
        """Multi-line changefeed rendering (the ``repro watch`` output)."""
        lines = [self.summary()]
        shown = 0
        for v in self.added:
            if shown >= limit:
                break
            lines.append(f"  + {v}")
            shown += 1
        for v in self.resolved:
            if shown >= limit:
                break
            lines.append(f"  - {v}")
            shown += 1
        hidden = len(self.added) + len(self.resolved) - shown
        if hidden > 0:
            lines.append(f"  ... and {hidden} more changes")
        for q in self.quarantined:
            lines.append(f"  ! quarantined {q}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


class IncrementalDetector:
    """Delta-maintained dependency checking over a mutating relation.

    Concurrency contract: one detector is a **single-writer** object —
    each :meth:`apply` mutates checker state, the current relation, and
    the batch counter as one logical transaction.  A per-detector lock
    *enforces* that contract: concurrent :meth:`apply` calls (e.g. two
    server requests racing on the same tenant changefeed) serialize in
    arrival order instead of interleaving half-advanced checker state.
    Distinct detectors share nothing and run fully in parallel — the
    multi-tenant server runs one detector per tenant on a thread pool.
    Reads (:meth:`violations`, :meth:`report`, :meth:`holds`) take the
    same lock so they always observe a batch boundary, never a
    mid-apply snapshot.
    """

    def __init__(self, rules: Iterable, relation: Relation) -> None:
        """Wrap ``rules`` over ``relation``, one checker per rule.

        Every rule gets a checker: screening a rule set (the skip
        decision of :func:`repro.analysis.screen_rules`) is the
        caller's step, as ``repro watch`` and the server's rule install
        do before they build a detector over the rules they keep.
        """
        self.rules = list(rules)
        self._relation = relation
        self._checkers: list[IncrementalChecker] = [
            checker_for(rule, relation) for rule in self.rules
        ]
        #: Batches applied so far; the last :attr:`BatchChange.seq`.
        self.batches = 0
        #: (seq, rule label, error) for every quarantined checker fault.
        self.quarantine: list[tuple[int, str, str]] = []
        #: Rule labels deactivated because their cold rebuild failed too.
        self.dead_rules: list[str] = []
        #: Rule label -> rule, for rules an operator (or the server's
        #: circuit breaker) suspended; they get no checker until resumed.
        self._suspended: dict[str, Any] = {}
        #: Serializes apply() (and state reads) — see the class docs.
        self._lock = threading.Lock()

    @property
    def relation(self) -> Relation:
        """The current (post-batch) relation."""
        return self._relation

    def checker_strategy(self) -> dict[str, str]:
        """Rule label -> incremental strategy class name (introspection)."""
        return {
            c.rule.label(): type(c).__name__ for c in self._checkers
        }

    # -- suspension (circuit breaking) ---------------------------------

    @property
    def suspended_rules(self) -> list[str]:
        """Labels of rules currently suspended (no checker, no report)."""
        with self._lock:
            return sorted(self._suspended)

    def suspend_rule(self, label: str) -> bool:
        """Take ``label`` out of evaluation until :meth:`resume_rule`.

        The rule's checker is dropped (its state would go stale anyway)
        and the rule disappears from :meth:`violations`/:meth:`report`
        while suspended — callers such as the server's circuit breaker
        must surface the suspension honestly rather than present the
        narrowed report as complete.  Returns ``False`` for an unknown
        or already-suspended label.
        """
        with self._lock:
            keep: list[IncrementalChecker] = []
            found = None
            for checker in self._checkers:
                if found is None and checker.rule.label() == label:
                    found = checker.rule
                else:
                    keep.append(checker)
            if found is None:
                return False
            self._suspended[label] = found
            self._checkers = keep
            return True

    def resume_rule(self, label: str) -> bool:
        """Reactivate a suspended rule with a cold-built checker.

        The checker is rebuilt against the *current* relation, so the
        cumulative state is exact from the first post-resume batch.  A
        rebuild failure deactivates the rule (recorded in
        :attr:`dead_rules` and :attr:`quarantine`) instead of raising.
        Returns ``False`` for a label that is not suspended.
        """
        with self._lock:
            rule = self._suspended.pop(label, None)
            if rule is None:
                return False
            try:
                # Fresh unlimited budget: the rebuild must complete even
                # when the ambient (caller) budget is already exhausted
                # — a deadline is not a reason to deactivate a rule.
                with governed(Budget()):
                    self._checkers.append(
                        checker_for(rule, self._relation)
                    )
            except BudgetExhausted:
                raise  # impossible under the fresh budget; never a death
            except Exception as exc:  # noqa: BLE001 - mirror _rebuild
                message = f"resume rebuild failed: {exc}"
                self.quarantine.append((self.batches, label, message))
                self.dead_rules.append(label)
            return True

    def _rebuild(
        self,
        checker: IncrementalChecker,
        relation: Relation,
        quarantined: list[str],
    ) -> IncrementalChecker | None:
        """Cold-rebuild a checker against ``relation``.

        Returns the fresh checker, or ``None`` (and records the rule as
        dead) when even the rebuild raises.
        """
        label = checker.rule.label()
        try:
            # Fresh unlimited budget: rebuilds happen precisely when the
            # ambient budget just ran out mid-batch, and a cold build
            # through the plan kernels would otherwise die on the first
            # checkpoint — deactivating healthy rules on every deadline.
            with governed(Budget()):
                return checker_for(checker.rule, relation)
        except BudgetExhausted:
            raise  # impossible under the fresh budget; never a death
        except Exception as exc:  # noqa: BLE001 - must never crash apply
            quarantined.append(f"{label}: rebuild failed: {exc}")
            self.dead_rules.append(label)
            return None

    def apply(self, delta: Delta | Mapping[str, Any]) -> BatchChange:
        """Apply one mutation batch; return what changed.

        A checker that raises is *quarantined*: the fault is recorded
        on the returned :class:`BatchChange` (and in
        :attr:`quarantine`), the checker is cold-rebuilt against the
        post-batch relation so cumulative state stays exact, and — when
        the rebuild itself fails — the rule is deactivated and listed
        in :attr:`dead_rules`.  Faulty rules are never silently
        dropped from the report.

        Thread-safe: concurrent calls serialize on the detector's
        single-writer lock (see the class docs).
        """
        with self._lock:
            return self._apply_locked(delta)

    def _apply_locked(self, delta: Delta | Mapping[str, Any]) -> BatchChange:
        if not isinstance(delta, Delta):
            delta = Delta.from_json(delta, self._relation.schema)
        seq = self.batches + 1
        old = self._relation
        new = old.apply_delta(delta)
        remap = delta.remap(len(old)) if delta.deletes else None
        added = ViolationSet()
        resolved = ViolationSet()
        quarantined: list[str] = []
        exhausted = ""
        surviving: list[IncrementalChecker | None] = []
        pending = list(self._checkers)
        while pending:
            checker = pending.pop(0)
            label = checker.rule.label()
            try:
                checkpoint()
                a, r = checker.apply(old, delta, new, remap)
            except BudgetExhausted as exc:
                # Deadline mid-batch: this checker's internal state may
                # be half-advanced, so cold-rebuild it and every
                # not-yet-advanced checker against the post-batch
                # relation.  Cumulative state stays exact; only the
                # per-batch added/resolved feed for these rules is
                # lost, and the change is flagged partial.
                exhausted = exc.reason
                for c in (checker, *pending):
                    surviving.append(self._rebuild(c, new, quarantined))
                break
            except Exception as exc:  # noqa: BLE001 - quarantine faults
                message = f"{type(exc).__name__}: {exc}"
                quarantined.append(f"{label}: {message}")
                self.quarantine.append((seq, label, message))
                surviving.append(
                    self._rebuild(checker, new, quarantined)
                )
                continue
            surviving.append(checker)
            added.extend(a)
            resolved.extend(r)
        self._checkers = [c for c in surviving if c is not None]
        self._relation = new
        self.batches = seq
        return BatchChange(
            seq=seq,
            delta=delta,
            added=added,
            resolved=resolved,
            total=sum(c.violation_count() for c in self._checkers),
            quarantined=quarantined,
            complete=not exhausted,
            exhausted=exhausted,
        )

    def replay(
        self, deltas: Iterable[Delta | Mapping[str, Any]]
    ) -> Iterator[BatchChange]:
        """Lazily apply a stream of batches, yielding each change."""
        for delta in deltas:
            yield self.apply(delta)

    # -- cumulative state ----------------------------------------------

    def violations(self) -> ViolationSet:
        """All current violations (equals a cold recompute's set)."""
        with self._lock:
            total = ViolationSet()
            for checker in self._checkers:
                total.extend(checker.violations())
            return total

    def holds(self) -> bool:
        """Do all rules hold on the current relation?"""
        with self._lock:
            return all(c.holds(self._relation) for c in self._checkers)

    def report(self) -> DetectionReport:
        """A :class:`DetectionReport` shaped like ``Detector.detect``."""
        with self._lock:
            per_rule: dict[str, ViolationSet] = {}
            total = ViolationSet()
            for checker in self._checkers:
                vs = checker.violations()
                per_rule[checker.rule.label()] = vs
                total.extend(vs)
            return DetectionReport(violations=total, per_rule=per_rule)
