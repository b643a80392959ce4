"""Source-level invariant analyzer (``repro staticcheck``).

PR 5 turned static analysis on the *rules* users hand us (DD001–DD009);
this package turns the same machinery on the codebase itself.  The
system's correctness rests on cross-cutting invariants no unit test can
pin exhaustively — every kernel candidate loop reaches a budget
``checkpoint()``, kernels never touch a ``Relation``, lock
acquisition stays acyclic, process pools fork only from the main
thread and run only module-level work, the WAL
append dominates the ack, async handlers never block the loop, and
broad exception handlers never swallow ``BudgetExhausted``.  Each is an
AST pass (stdlib ``ast``, no dependencies) emitting stable ``SC0xx``
findings; ``# staticcheck: disable=SC0xx — reason`` comments waive a
finding with a mandatory written reason.  The CI gate runs
``repro staticcheck src/`` and fails on any unsuppressed finding.
"""

from .base import CheckPass
from .findings import SC_CODES, CheckCode, Finding, make_finding
from .kernels_passes import BudgetCheckpointPass, EngineNeutralityPass
from .model import SourceModule, Suppression, load_source
from .runner import (
    CheckReport,
    collect_files,
    default_passes,
    load_baseline,
    render_json,
    render_text,
    run_paths,
)

__all__ = [
    "SC_CODES",
    "BudgetCheckpointPass",
    "CheckCode",
    "CheckPass",
    "CheckReport",
    "EngineNeutralityPass",
    "Finding",
    "SourceModule",
    "Suppression",
    "collect_files",
    "default_passes",
    "load_baseline",
    "load_source",
    "make_finding",
    "render_json",
    "render_text",
    "run_paths",
]
