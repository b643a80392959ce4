"""One-call data profiling: discover rules, report violations.

The survey's practical pitch ("guides users to select proper data
dependencies with sufficient expressive power and reasonable discovery
cost") condensed into a single entry point: hand
:func:`profile_relation` a relation (or the CLI a CSV) and receive a
structured report —

* exact and approximate FDs (TANE);
* soft FDs / column correlations (CORDS);
* constant CFDs (CFDMiner);
* order dependencies and fitted sequential dependencies on the
  numerical columns;
* per-rule violation counts against the data itself
  (:meth:`~repro.core.base.Dependency.violation_count`: the FD family
  counts from code groups, without listing a pair).

The report is a plain dataclass so applications can consume it, plus a
``render()`` for terminals; :mod:`repro.cli` wraps it for the shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .core.base import Dependency
from .discovery import (
    cords,
    discover_constant_cfds,
    discover_pairwise_ods,
    discover_sds,
    tane,
)
from .relation.partition_cache import cache_for
from .relation.relation import Relation
from .runtime.budget import Budget, checkpoint, governed, resolve_budget
from .runtime.errors import BudgetExhausted
from .runtime.execution import execution


@dataclass
class RuleReport:
    """One discovered rule with its evidence on the profiled data."""

    rule: Dependency
    category: str
    violations: int

    def render(self) -> str:
        status = "holds" if self.violations == 0 else (
            f"{self.violations} violations"
        )
        return f"[{self.category}] {self.rule}  ({status})"


@dataclass
class ProfileReport:
    """Everything :func:`profile_relation` found."""

    relation: Relation
    rules: list[RuleReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def by_category(self) -> dict[str, list[RuleReport]]:
        out: dict[str, list[RuleReport]] = {}
        for r in self.rules:
            out.setdefault(r.category, []).append(r)
        return out

    def render(self, max_per_category: int = 10) -> str:
        lines = [
            f"profiled {len(self.relation)} tuples x "
            f"{len(self.relation.schema)} attributes "
            f"({', '.join(self.relation.schema.names())})",
        ]
        for category, rules in self.by_category().items():
            lines.append(f"\n{category} — {len(rules)} found:")
            for r in rules[:max_per_category]:
                lines.append(f"  {r.render()}")
            if len(rules) > max_per_category:
                lines.append(
                    f"  ... and {len(rules) - max_per_category} more"
                )
        if self.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def profile_relation(
    relation: Relation,
    *,
    epsilon: float = 0.05,
    max_lhs_size: int = 2,
    sfd_strength: float = 0.9,
    cfd_min_support: int = 3,
    max_rows_for_pairwise: int = 2000,
    budget: Budget | None = None,
) -> ProfileReport:
    """Profile a relation with the survey's discovery toolbox.

    ``epsilon`` controls the AFD pass; FDs come from the exact pass.
    Pairwise-quadratic passes are skipped (with a note) past
    ``max_rows_for_pairwise`` tuples.

    ``budget`` governs the *whole* multi-pass run ambiently: each
    discovery pass inherits it, returns whatever it found when it runs
    out, and the report gains a note naming the partial passes —
    profiling under a deadline degrades to fewer rules, not an error.
    """
    report = ProfileReport(relation)
    if len(relation) == 0:
        report.notes.append("empty relation: nothing to profile")
        return report

    def add(category: str, deps, result=None) -> None:
        stats = getattr(result if result is not None else deps, "stats", None)
        if stats is not None and not stats.complete:
            report.notes.append(
                f"{category}: partial — budget exhausted "
                f"({stats.exhausted})"
            )
        for dep in deps:
            checkpoint()
            count = dep.violation_count(relation)
            report.rules.append(RuleReport(dep, category, count))

    budget = resolve_budget(budget)
    with governed(budget), execution() as scope:
        try:
            # Exact FDs.
            exact = tane(relation, max_lhs_size=max_lhs_size)
            add("exact FDs (TANE)", exact)

            # Approximate FDs, minus those already exact.
            if epsilon > 0:
                exact_strs = {str(d) for d in exact}
                approx_result = tane(
                    relation, max_lhs_size=max_lhs_size, epsilon=epsilon
                )
                approx = [
                    d
                    for d in approx_result
                    if f"{', '.join(d.lhs)} -> {', '.join(d.rhs)}"
                    not in exact_strs
                ]
                add(
                    f"approximate FDs (g3 <= {epsilon:g})",
                    approx,
                    result=approx_result,
                )

            # Soft FDs / correlations from a sample.
            soft = cords(relation, strength_threshold=sfd_strength)
            exact_pairs = {
                (d.lhs, d.rhs) for d in exact if len(d.lhs) == 1
            }
            add(
                f"soft FDs (CORDS, strength >= {sfd_strength:g})",
                [d for d in soft if (d.lhs, d.rhs) not in exact_pairs],
            )

            # Constant CFDs.
            add(
                f"constant CFDs (support >= {cfd_min_support})",
                discover_constant_cfds(
                    relation, min_support=cfd_min_support, max_lhs_size=1
                ),
            )

            # Order and sequential rules on numerical columns.
            if len(relation) <= max_rows_for_pairwise:
                add("order dependencies", discover_pairwise_ods(relation))
            else:
                report.notes.append(
                    f"skipped OD discovery (> {max_rows_for_pairwise} rows)"
                )
            add(
                "sequential dependencies (fitted gaps)",
                discover_sds(relation),
            )
        except BudgetExhausted as exc:
            report.notes.append(
                f"budget exhausted ({exc.reason}): later discovery "
                "passes skipped; the report is partial"
            )

    # Pairwise rule evaluation runs through the compiled plan kernels;
    # surface how much of the O(n²) pair space they skipped.  The
    # passes ran in a scope of their own: no other thread's work counts.
    counters = scope.counters
    if counters.pairs_total > 0:
        report.notes.append(
            f"plan kernels: examined {counters.pairs_examined} of "
            f"{counters.pairs_total} candidate pairs "
            f"({counters.pruned_fraction():.0%} pruned)"
        )

    # Both TANE passes, CORDS, CFDMiner and the per-rule violation
    # counts share the relation's code tables (CFDMiner also its group
    # dicts); surface their reuse.
    tables = relation.encoding().stats
    groups = cache_for(relation).stats
    hits = tables.hits + groups.hits
    if hits:
        report.notes.append(
            f"partition cache: {hits} hits / "
            f"{tables.misses + groups.misses} builds across discovery passes"
        )

    return report
