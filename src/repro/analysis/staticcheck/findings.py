"""The SC-coded finding vocabulary of the source-level analyzer.

PR 5's ``DD0xx`` codes lint the *rules* the user hands us; the ``SC0xx``
codes lint the *codebase itself* — the cross-cutting invariants the
concurrent system rests on (budget checkpoints, engine neutrality,
lock ordering, fork safety, WAL-before-ack, async hygiene, exception
discipline).  Codes are stable and must never be renumbered, and a
retired code is never reused; the catalog lives in
``docs/staticcheck.md``:

===== ========================== ========
code  name                       severity
===== ========================== ========
SC000 bad-suppression            error
SC001 missing-checkpoint         error
SC002 engine-neutrality          error
SC003 leaked-shared-memory       retired
SC004 lock-order                 error
SC005 fork-safety                error
SC006 ack-before-wal             error
SC007 blocking-in-async          error
SC008 swallowed-exception        error
===== ========================== ========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..diagnostics import Severity

__all__ = [
    "RETIRED_CODES",
    "SC_CODES",
    "CheckCode",
    "Finding",
    "make_finding",
]


@dataclass(frozen=True)
class CheckCode:
    """One registered source-invariant check: stable id, name, severity."""

    code: str
    name: str
    severity: Severity
    summary: str


BAD_SUPPRESSION = CheckCode(
    "SC000", "bad-suppression", Severity.ERROR,
    "a staticcheck suppression comment is malformed or missing its "
    "written reason",
)
MISSING_CHECKPOINT = CheckCode(
    "SC001", "missing-checkpoint", Severity.ERROR,
    "a kernel candidate loop can run unboundedly without reaching a "
    "budget checkpoint()",
)
ENGINE_NEUTRALITY = CheckCode(
    "SC002", "engine-neutrality", Severity.ERROR,
    "a kernel module references the Relation substrate it must stay "
    "neutral of",
)
LOCK_ORDER = CheckCode(
    "SC004", "lock-order", Severity.ERROR,
    "lock acquisition order admits a cycle, or a lock is held across "
    "an await point",
)
FORK_SAFETY = CheckCode(
    "SC005", "fork-safety", Severity.ERROR,
    "process-pool usage that breaks under fork: non-module-level "
    "submit target or pool creation off the main thread",
)
ACK_BEFORE_WAL = CheckCode(
    "SC006", "ack-before-wal", Severity.ERROR,
    "an ingest path mutates acknowledged state before the WAL append "
    "that makes it durable",
)
BLOCKING_IN_ASYNC = CheckCode(
    "SC007", "blocking-in-async", Severity.ERROR,
    "a blocking call (file I/O, fsync, engine entry point) runs "
    "directly inside an async def instead of via run_sync",
)
SWALLOWED_EXCEPTION = CheckCode(
    "SC008", "swallowed-exception", Severity.ERROR,
    "a broad exception handler can swallow BudgetExhausted/EngineFault "
    "without re-raise, quarantine, or a written reason",
)

#: Stable code -> registration, in numbering order.
SC_CODES: dict[str, CheckCode] = {
    c.code: c
    for c in (
        BAD_SUPPRESSION,
        MISSING_CHECKPOINT,
        ENGINE_NEUTRALITY,
        LOCK_ORDER,
        FORK_SAFETY,
        ACK_BEFORE_WAL,
        BLOCKING_IN_ASYNC,
        SWALLOWED_EXCEPTION,
    )
}

#: Retired code -> why; a retired number is never registered again.
RETIRED_CODES: dict[str, str] = {
    "SC003": "leaked-shared-memory: no code creates a named "
    "shared-memory segment any more",
}


@dataclass(frozen=True)
class Finding:
    """One source-level finding, anchored to a file and line."""

    code: str
    severity: Severity
    path: str
    line: int
    message: str
    #: Dotted context — module, class, function — for stable baselines.
    context: str = ""

    @property
    def name(self) -> str:
        return SC_CODES[self.code].name

    @property
    def fingerprint(self) -> str:
        """Line-insensitive identity used by ``--baseline`` files."""
        return f"{self.code}:{self.path}:{self.context}:{self.message}"

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        ctx = f" [{self.context}]" if self.context else ""
        return f"{where}: {self.code} [{self.severity}]{ctx} {self.message}"

    def to_json(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "name": self.name,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "message": self.message,
        }

    def __str__(self) -> str:
        return self.render()


def make_finding(
    code: CheckCode,
    path: str,
    line: int,
    message: str,
    context: str = "",
) -> Finding:
    """Build a finding with the code's registered severity."""
    return Finding(
        code=code.code,
        severity=code.severity,
        path=path,
        line=line,
        message=message,
        context=context,
    )
