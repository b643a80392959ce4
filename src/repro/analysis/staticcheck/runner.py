"""Pass orchestration: collect files, run passes, apply suppressions.

The runner is what both surfaces use: ``repro staticcheck`` (the CLI
and CI gate) and the test suite (which points it at fixture trees).
Local passes run per module; whole-program passes (lock ordering)
see every module at once.  Suppression comments silence findings of
the named codes on their line; suppressed findings are retained on the
report (with their reasons) so ``--format json`` artifacts show what
was waived, not just what fired.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..diagnostics import Severity
from .base import CheckPass
from .concurrency_passes import AsyncBlockingPass, LockOrderPass
from .findings import BAD_SUPPRESSION, Finding, make_finding
from .kernels_passes import BudgetCheckpointPass, EngineNeutralityPass
from .memory_passes import ForkSafetyPass
from .model import SourceModule, Suppression, load_source
from .reliability_passes import ExceptionDisciplinePass, WalBeforeAckPass

__all__ = [
    "CheckReport",
    "collect_files",
    "default_passes",
    "render_json",
    "render_text",
    "run_paths",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def default_passes() -> list[CheckPass]:
    """All registered passes, in SC-code order."""
    return [
        BudgetCheckpointPass(),
        EngineNeutralityPass(),
        LockOrderPass(),
        ForkSafetyPass(),
        WalBeforeAckPass(),
        AsyncBlockingPass(),
        ExceptionDisciplinePass(),
    ]


def collect_files(paths: list[str]) -> list[str]:
    """Every ``.py`` file under the given paths, sorted."""
    out: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.add(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = [
                d for d in dirs
                if d not in _SKIP_DIRS and not d.startswith(".")
            ]
            for name in files:
                if name.endswith(".py"):
                    out.add(os.path.join(root, name))
    return sorted(out)


@dataclass
class CheckReport:
    """Everything one analyzer run produced."""

    files: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: Findings waived by an inline suppression, with the reasons.
    suppressed: list[tuple[Finding, Suppression]] = field(
        default_factory=list
    )
    #: Findings waived by the ``--baseline`` file.
    baselined: list[Finding] = field(default_factory=list)

    @property
    def has_findings(self) -> bool:
        return bool(self.findings)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out


def load_baseline(path: str) -> set[str]:
    """Fingerprints from a ``--baseline`` JSON report."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload.get("findings", payload) if isinstance(
        payload, dict
    ) else payload
    prints: set[str] = set()
    for entry in entries:
        if isinstance(entry, str):
            prints.add(entry)
            continue
        finding = Finding(
            code=entry["code"],
            severity=Severity.ERROR,
            path=entry["path"],
            line=int(entry.get("line", 0)),
            message=entry["message"],
            context=entry.get("context", ""),
        )
        prints.add(finding.fingerprint)
    return prints


def run_paths(
    paths: list[str],
    *,
    passes: list[CheckPass] | None = None,
    baseline: set[str] | None = None,
) -> CheckReport:
    """Run the analyzer over ``paths`` and return the report."""
    if passes is None:
        passes = default_passes()
    report = CheckReport()
    modules: list[SourceModule] = []
    raw: list[tuple[SourceModule | None, Finding]] = []
    for path in collect_files(paths):
        try:
            module = load_source(path)
        except SyntaxError as exc:
            raw.append((None, make_finding(
                BAD_SUPPRESSION, path, exc.lineno or 1,
                f"file does not parse: {exc.msg}; nothing here is "
                "analyzable",
            )))
            continue
        modules.append(module)
        for error in module.suppression_errors:
            raw.append((module, error))
    report.files = len(modules)
    by_path = {m.path: m for m in modules}
    for check in passes:
        for module in modules:
            for finding in check.run(module):
                raw.append((module, finding))
        for finding in check.run_project(modules):
            raw.append((by_path.get(finding.path), finding))
    seen: set[tuple[str, int, str, str]] = set()
    for module, finding in raw:
        key = (finding.path, finding.line, finding.code, finding.message)
        if key in seen:
            continue
        seen.add(key)
        if baseline and finding.fingerprint in baseline:
            report.baselined.append(finding)
            continue
        sup = (
            module.suppressed(finding.code, finding.line)
            if module is not None and finding.code != "SC000"
            else None
        )
        if sup is not None:
            report.suppressed.append((finding, sup))
        else:
            report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.code))
    report.suppressed.sort(key=lambda p: (p[0].path, p[0].line))
    return report


def render_text(report: CheckReport) -> str:
    lines = [f.render() for f in report.findings]
    total = len(report.findings)
    lines.append(
        f"{total} finding(s) in {report.files} file(s); "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined"
    )
    return "\n".join(lines)


def render_json(report: CheckReport) -> dict[str, Any]:
    return {
        "files": report.files,
        "counts": report.counts(),
        "findings": [f.to_json() for f in report.findings],
        "suppressed": [
            {**f.to_json(), "reason": sup.reason}
            for f, sup in report.suppressed
        ],
        "baselined": [f.to_json() for f in report.baselined],
    }
