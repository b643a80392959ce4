"""Static rule analysis: lint, simplify, and cross-rule implication.

The paper's family tree is a set of subsumption claims — "every P is a
special Q" with explicit parameter instantiations — and this package
turns those claims into a *static analyzer* that runs with zero data
access, in the tableau-minimization spirit of CFD reasoning (Fan et
al.) and FASTDC's predicate-space analysis (Chu et al.).  Three layers:

* **per-rule diagnostics** — schema checks, unsatisfiable deny clauses
  (contradiction closure + interval arithmetic), trivial rules, dead
  atoms (:mod:`~repro.analysis.schema_check`,
  :mod:`~repro.analysis.satisfy`);
* **plan simplification** — equivalence-preserving rewrites of compiled
  plans that the kernels then execute
  (:mod:`~repro.analysis.simplify`);
* **cross-rule analysis** — pairwise implication via family-tree
  embeddings, duplicate detection and conflicts
  (:mod:`~repro.analysis.cross_rule`).

Every finding is a structured :class:`~repro.analysis.diagnostics.Diagnostic`
with a stable ``DD0xx`` code; the CLI surface is ``repro lint``.
:func:`screen_rules` is the one skip decision every evaluation path
takes (trivial, duplicate and implied rules), behind a fail-fast gate
for strictly unsatisfiable rules.
"""

from .diagnostics import CODES, Diagnostic, Severity
from .linter import LintReport, lint_entries, lint_rules, screen_rules
from .simplify import simplify_plan

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "Severity",
    "lint_entries",
    "lint_rules",
    "screen_rules",
    "simplify_plan",
]
