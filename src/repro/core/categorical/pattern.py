"""Pattern tuples ``t_p`` for conditional dependencies (CFDs, eCFDs, ...).

Table 4 of the paper introduces the pattern tuple notation: for each
attribute ``B`` of the embedded FD, ``t_p[B]`` is either a constant from
``dom(B)`` or the unnamed variable ``'_'``.  eCFDs (Section 2.5.5)
generalize entries to ``op a`` with ``op ∈ {=, ≠, <, <=, >, >=}``.

:class:`PatternEntry` covers both: a wildcard, or an operator-constant
predicate; :class:`Pattern` is the mapping attribute -> entry.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping
from typing import Any

Value = Any

WILDCARD = "_"

_OPERATORS: dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Unicode aliases accepted on input for readability.
_ALIASES = {"==": "=", "≠": "!=", "≤": "<=", "≥": ">="}


@dataclass(frozen=True)
class PatternEntry:
    """One cell of a pattern tuple: wildcard, or ``op constant``."""

    op: str
    constant: Value = None

    def __post_init__(self) -> None:
        op = _ALIASES.get(self.op, self.op)
        object.__setattr__(self, "op", op)
        if op != WILDCARD and op not in _OPERATORS:
            raise ValueError(f"unknown pattern operator {self.op!r}")

    @property
    def is_wildcard(self) -> bool:
        return self.op == WILDCARD

    @property
    def is_constant(self) -> bool:
        """True for plain equality constants (the CFD case)."""
        return self.op == "="

    def matches(self, value: Value) -> bool:
        """Whether a tuple value matches this entry.

        Wildcards match anything (including ``None``); predicates never
        match ``None`` (SQL-style: comparisons with missing data are
        not satisfied).
        """
        if self.is_wildcard:
            return True
        if value is None:
            return False
        try:
            return _OPERATORS[self.op](value, self.constant)
        except TypeError:
            # Incomparable types (e.g. '<' between str and int) don't match.
            return False

    def __str__(self) -> str:
        if self.is_wildcard:
            return "_"
        if self.op == "=":
            return repr(self.constant)
        return f"{self.op} {self.constant!r}"


#: The entry of every attribute a pattern does not mention (immutable,
#: so one instance serves them all).
_ANY = PatternEntry(WILDCARD)


def wildcard() -> PatternEntry:
    return PatternEntry(WILDCARD)


def const(value: Value) -> PatternEntry:
    """Equality constant entry — the only non-wildcard CFDs allow."""
    return PatternEntry("=", value)


def pred(op: str, value: Value) -> PatternEntry:
    """Operator entry for eCFDs, e.g. ``pred("<=", 200)``."""
    return PatternEntry(op, value)


def coerce_entry(raw: object) -> PatternEntry:
    """Lenient conversion used by the CFD/eCFD constructors.

    Accepts a :class:`PatternEntry`, the literal ``'_'``, an
    ``(op, constant)`` pair, or any other value treated as an equality
    constant.
    """
    if isinstance(raw, PatternEntry):
        return raw
    if raw == WILDCARD:
        return wildcard()
    if (
        isinstance(raw, tuple)
        and len(raw) == 2
        and isinstance(raw[0], str)
        and (_ALIASES.get(raw[0], raw[0]) in _OPERATORS)
    ):
        return pred(raw[0], raw[1])
    return const(raw)


class Pattern:
    """A pattern tuple ``t_p``: attribute name -> :class:`PatternEntry`.

    Attributes not mentioned default to wildcards, so a pattern may be
    declared sparsely (only the conditioned attributes).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, object] | None = None) -> None:
        self._entries: dict[str, PatternEntry] = {
            name: coerce_entry(e) for name, e in (entries or {}).items()
        }

    def entry(self, attribute: str) -> PatternEntry:
        return self._entries.get(attribute, _ANY)

    def entries(self) -> dict[str, PatternEntry]:
        return dict(self._entries)

    def constants(self) -> dict[str, Value]:
        """The equality-constant bindings (CFD tableau cell values)."""
        return {
            a: e.constant for a, e in self._entries.items() if e.is_constant
        }

    def matches(self, record: Mapping[str, Value], attributes: Iterable[str]) -> bool:
        """Whether a tuple (as dict) matches the pattern on ``attributes``."""
        return all(self.entry(a).matches(record.get(a)) for a in attributes)

    def is_pure_wildcard(self, attributes: Iterable[str]) -> bool:
        """True iff every entry over ``attributes`` is a wildcard."""
        return all(self.entry(a).is_wildcard for a in attributes)

    def uses_only_constants(self, attributes: Iterable[str]) -> bool:
        """True iff no entry uses an eCFD operator (only ``=`` / ``_``)."""
        return all(self.entry(a).op in (WILDCARD, "=") for a in attributes)

    def render(self, lhs: Iterable[str], rhs: Iterable[str]) -> str:
        """The paper's ``(a, b || c)`` tableau-row rendering."""
        left = ", ".join(str(self.entry(a)) for a in lhs)
        right = ", ".join(str(self.entry(a)) for a in rhs)
        return f"({left} || {right})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        # Wildcards are defaults, so drop them before comparing.
        mine = {a: e for a, e in self._entries.items() if not e.is_wildcard}
        theirs = {a: e for a, e in other._entries.items() if not e.is_wildcard}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(
            frozenset(
                (a, e) for a, e in self._entries.items() if not e.is_wildcard
            )
        )

    def __repr__(self) -> str:
        return f"Pattern({{{', '.join(f'{a}: {e}' for a, e in self._entries.items())}}})"
