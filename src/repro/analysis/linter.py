"""The rule linter: every static diagnostic for a rule set, in one pass.

:func:`lint_entries` runs the full pipeline over parsed
:class:`~repro.rules_io.RuleEntry` objects (``lint_rules`` wraps bare
dependencies):

1. **schema checks** (optional, when a schema is supplied) — DD001
   unknown attributes, DD002 type-incompatible atoms;
2. **per-rule plan analysis** — structural triviality (DD004) first,
   then clause satisfiability over the compiled plan: all clauses dead
   is DD003 unsatisfiable, some dead is DD005, redundant atoms inside
   live clauses are DD006.  The linter analyzes the *raw* compiled
   plan (not the simplified one the kernels run) under assume-clean
   semantics — these are diagnostics about intent, never about
   evaluation;
3. **cross-rule analysis** — DD007 implied, DD008 duplicate, DD009
   conflicting (:mod:`repro.analysis.cross_rule`).

DD004, DD007 and DD008 report the skip decision that every evaluation
path takes through :func:`screen_rules` — ``repro check``, ``repro
watch``, the server's rule install and the discovery job's minimize
stage.  ``repro lint --fix`` writes :meth:`LintReport.minimized` back
out: the rule set without those rules and without DD003 rules.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..core.base import Dependency
from ..plan.compile import compile_dependency
from ..plan.ir import PlanCompileError
from ..relation.schema import Schema
from ..rules_io import RuleEntry
from .cross_rule import _redundant_rules, conflicts
from .diagnostics import (
    DEAD_ATOM,
    DEAD_CLAUSE,
    DUPLICATE_RULE,
    IMPLIED_RULE,
    TRIVIAL_RULE,
    UNSATISFIABLE_RULE,
    Diagnostic,
    Severity,
    make,
)
from .satisfy import analyze_plan
from .schema_check import check_schema


@dataclass
class LintReport:
    """Everything the static analyzer found about one rule set."""

    entries: list[RuleEntry]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Entry index -> reason for the rules ``--fix`` drops: the skip
    #: decision's trivial, duplicate and implied rules, plus DD003
    #: unsatisfiable ones.  Evaluation screens with screen_rules.
    skippable: dict[int, str] = field(default_factory=dict)

    @property
    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def minimized(self) -> list[RuleEntry]:
        """The rule set without skippable rules (``repro lint --fix``)."""
        return [
            e for i, e in enumerate(self.entries) if i not in self.skippable
        ]

    def minimized_payload(self) -> dict[str, list[Any]]:
        """The minimized set as a rule-file JSON document."""
        return {"rules": [dict(e.raw) for e in self.minimized()]}


def lint_entries(
    entries: Sequence[RuleEntry],
    schema: Schema | None = None,
) -> LintReport:
    """Run every static check over a parsed rule set."""
    report = LintReport(entries=list(entries))
    redundancy = _redundant_rules([e.dependency for e in entries])
    unsatisfiable: dict[int, str] = {}

    for index, entry in enumerate(entries):
        dep = entry.dependency
        if schema is not None:
            report.diagnostics.extend(
                check_schema(
                    dep, schema, rule=entry.name, location=entry.location
                )
            )

        trivial = redundancy.trivial.get(index)
        if trivial is not None:
            report.diagnostics.append(
                make(
                    TRIVIAL_RULE,
                    entry.name,
                    f"rule can never be violated: {trivial}",
                    location=entry.location,
                )
            )
            continue

        try:
            plan = compile_dependency(dep)
        except PlanCompileError:
            continue
        facts = analyze_plan(plan, assume_clean=True)
        dead = [f for f in facts if f.dead]
        if dead and len(dead) == len(facts):
            report.diagnostics.append(
                make(
                    UNSATISFIABLE_RULE,
                    entry.name,
                    "every deny clause is statically contradictory "
                    f"({dead[0].contradiction}); the rule can never "
                    "report a violation",
                    location=entry.location,
                )
            )
            unsatisfiable[index] = "unsatisfiable"
            continue
        for clause_idx, f in enumerate(facts):
            if f.dead:
                report.diagnostics.append(
                    make(
                        DEAD_CLAUSE,
                        entry.name,
                        f"deny clause {clause_idx + 1} can never fire: "
                        f"{f.contradiction}",
                        location=entry.location,
                    )
                )
            else:
                for atom_idx, reason in f.redundant:
                    atom = plan.clauses[clause_idx].atoms[atom_idx]
                    report.diagnostics.append(
                        make(
                            DEAD_ATOM,
                            entry.name,
                            f"atom {atom} in clause {clause_idx + 1} "
                            f"is redundant: {reason}",
                            location=entry.location,
                        )
                    )

    for i, j in redundancy.duplicate_of.items():
        report.diagnostics.append(
            make(
                DUPLICATE_RULE,
                entries[i].name,
                f"duplicates rule {entries[j].name!r}",
                location=entries[i].location,
                related=(entries[j].location,),
            )
        )
    for i, witnesses in redundancy.implied_by.items():
        names = [entries[j].name for j in witnesses]
        report.diagnostics.append(
            make(
                IMPLIED_RULE,
                entries[i].name,
                "implied by "
                + (
                    f"rule {names[0]!r}"
                    if len(names) == 1
                    else f"the rules {', '.join(repr(n) for n in names)}"
                ),
                location=entries[i].location,
                related=tuple(entries[j].location for j in witnesses),
            )
        )
    report.diagnostics.extend(conflicts(entries))
    # A trivial rule is never DD003, and DD003 outranks the rest.
    report.skippable = redundancy.skips() | unsatisfiable
    return report


def lint_rules(
    rules: Sequence[Dependency] | Sequence[RuleEntry],
    schema: Schema | None = None,
) -> LintReport:
    """Lint dependencies that did not come from a rule file."""
    entries: list[RuleEntry] = []
    for index, rule in enumerate(rules):
        if isinstance(rule, RuleEntry):
            entries.append(rule)
        else:
            raw: Mapping[str, Any] = {"kind": rule.kind}
            entries.append(RuleEntry(dependency=rule, raw=raw, index=index))
    return lint_entries(entries, schema=schema)


def screen_rules(rules: Sequence[Dependency]) -> dict[int, str]:
    """The pre-evaluation screen: fail fast, then the skip decision.

    Every evaluation path takes its skip set from here: ``repro
    check``, ``repro watch``, the server's rule install (upload and WAL
    replay) and the discovery job's minimize stage.  Returns index ->
    reason (``trivial``, ``duplicate`` or ``implied``) for the rules
    evaluation may skip, after raising
    :class:`~repro.runtime.errors.InputError` for any kept rule whose
    compiled plan is *strictly* unsatisfiable (dead on every relation —
    the rule can never report a violation, which is virtually always a
    declaration mistake).  Run ``repro lint`` on the rule file for the
    full diagnosis.

    A skipped rule holds whenever the kept rules hold, so the pass/fail
    verdict is unchanged; only a skipped rule's own violation listing
    is not produced (``--no-analyze`` restores it on the CLI).
    """
    from ..runtime.errors import InputError

    skip = _redundant_rules(rules).skips()
    for i, dep in enumerate(rules):
        if i in skip:
            continue
        try:
            plan = compile_dependency(dep)
        except PlanCompileError:
            continue
        facts = analyze_plan(plan)
        if facts and all(f.dead for f in facts):
            raise InputError(
                f"rule {dep.label()} is statically unsatisfiable "
                f"({facts[0].contradiction}) and can never report a "
                "violation; fix or remove it (see 'repro lint')"
            )
    return skip
