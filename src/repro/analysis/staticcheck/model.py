"""Parsed source modules and inline suppression comments.

A :class:`SourceModule` is one parsed file: the AST, a parent map (the
passes navigate upward for dominance questions), and the parsed
``# staticcheck: disable=SC00x — reason`` comments.  A suppression
covers findings of the named codes on its own line; a comment that is
the only thing on its line covers the *next* source line instead, so
wide expressions keep their annotations readable.  The reason text is
mandatory — a suppression without one is itself reported (SC000), so
every silenced finding carries a written justification into review.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO

from .findings import BAD_SUPPRESSION, Finding, make_finding

__all__ = [
    "SourceModule",
    "Suppression",
    "load_source",
    "parse_suppressions",
]

#: ``# staticcheck: disable=SC001,SC004 — why this is fine``
_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*disable=(?P<codes>[A-Z0-9,\s]+?)"
    r"(?:\s*[—–-]+\s*(?P<reason>.*))?$"
)
_CODE_RE = re.compile(r"^SC\d{3}$")


@dataclass(frozen=True)
class Suppression:
    """One inline suppression: the codes it silences and the reason."""

    line: int
    codes: tuple[str, ...]
    reason: str


@dataclass
class SourceModule:
    """One file the analyzer reasons about."""

    path: str
    text: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)
    #: Malformed suppression comments, reported as SC000.
    suppression_errors: list[Finding] = field(default_factory=list)
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str:
        """Best-effort dotted module name (from the path tail)."""
        parts = self.path.replace("\\", "/").rstrip("/").split("/")
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        anchor = parts.index("repro") if "repro" in parts else len(parts) - 1
        return ".".join(parts[anchor:])

    def parent(self, node: ast.AST) -> ast.AST | None:
        if not self._parents:
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[child] = outer
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        """Chain of enclosing nodes, innermost first."""
        out: list[ast.AST] = []
        cur = self.parent(node)
        while cur is not None:
            out.append(cur)
            cur = self.parent(cur)
        return out

    def context_of(self, node: ast.AST) -> str:
        """Dotted ``Class.function`` context for a node, if any."""
        names = [
            a.name
            for a in self.ancestors(node)
            if isinstance(
                a, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        return ".".join(reversed(names))

    def suppressed(self, code: str, line: int) -> Suppression | None:
        for sup in self.suppressions:
            if code in sup.codes and line == sup.line:
                return sup
        return None


def parse_suppressions(
    path: str, text: str
) -> tuple[list[Suppression], list[Finding]]:
    """All well-formed suppressions in ``text``, plus SC000 findings.

    Uses :mod:`tokenize` so string literals that merely *look* like
    comments never register, and so a comment's own line number is
    exact even inside parenthesized expressions.
    """
    suppressions: list[Suppression] = []
    errors: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(StringIO(text).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return [], []
    lines = text.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        if "staticcheck" not in tok.string:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        line = tok.start[0]
        if match is None:
            errors.append(make_finding(
                BAD_SUPPRESSION, path, line,
                "unparseable staticcheck comment; expected "
                "'# staticcheck: disable=SC0xx — reason'",
            ))
            continue
        codes = tuple(
            c.strip() for c in match.group("codes").split(",") if c.strip()
        )
        bad = [c for c in codes if not _CODE_RE.match(c)]
        if bad or not codes:
            errors.append(make_finding(
                BAD_SUPPRESSION, path, line,
                f"suppression names invalid code(s): {bad or ['<none>']}",
            ))
            continue
        reason = (match.group("reason") or "").strip()
        if not reason:
            errors.append(make_finding(
                BAD_SUPPRESSION, path, line,
                f"suppression of {', '.join(codes)} has no written "
                "reason; append '— why it is safe'",
            ))
            continue
        # A comment alone on its line annotates the next *code* line;
        # continuation comment lines (a wrapped reason) are skipped.
        own_line = lines[line - 1] if line <= len(lines) else ""
        if own_line.strip().startswith("#"):
            line += 1
            while (
                line <= len(lines)
                and lines[line - 1].strip().startswith("#")
            ):
                line += 1
        suppressions.append(Suppression(line=line, codes=codes, reason=reason))
    return suppressions, errors


def load_source(path: str, text: str | None = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule`.

    Raises :class:`SyntaxError` for files the compiler itself rejects —
    the runner reports those rather than analyzing half a tree.
    """
    if text is None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    tree = ast.parse(text, filename=path)
    suppressions, errors = parse_suppressions(path, text)
    return SourceModule(
        path=path,
        text=text,
        tree=tree,
        suppressions=suppressions,
        suppression_errors=errors,
    )
