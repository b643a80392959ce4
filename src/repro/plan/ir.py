"""The shared predicate-plan IR every notation lowers into.

The survey's thesis is that the family tree's notations are instances
of one predicate formalism (FD = SFD with s = 1, OD = SD with g = [0, ∞),
most notations embed into DCs).  This module makes that subsumption
executable: a :class:`Plan` is a *deny-form* formula over tuple-pair
predicates —

    violation(tα, tβ)  ⇔  ∃ clause: every atom of the clause holds

— mirroring the DC reading ``¬(P1 ∧ ... ∧ Pm)``.  An implication-shaped
notation ``guards ⇒ consequents`` lowers to one clause per consequent:
``guards ∧ ¬consequent_k`` (the paper's Section 4.3 embeddings, applied
uniformly).

Atom vocabulary (Table 2's comparison column, executable):

* :class:`CmpAtom` — order/equality comparison between the two tuples'
  cells (FDs, OFDs, ODs, DCs);
* :class:`ConstAtom` — one tuple's cell against a constant (constant
  DC predicates, eCFD-style constants);
* :class:`PatternAtom` — one tuple's cell against a CFD/CDD/CMD
  pattern entry;
* :class:`MetricAtom` — the pair's metric distance against an
  :class:`~repro.core.heterogeneous.constraints.Interval` (MFDs, NEDs,
  DDs, MDs);
* :class:`ThetaAtom` — a CD similarity function θ(Ai, Aj);
* :class:`ResemblanceAtom` — the FFD fuzzy-resemblance comparison;
* :class:`NotNullAtom` — missing-value guard (OFD semantics skip pairs
  with any ``None``);
* :class:`FnAtom` — opaque escape hatch for notations whose semantics
  do not decompose (lexicographic OFDs, unknown pairwise subclasses).

Two comparison semantics coexist, and conflating them is the classic
source of subtle parity bugs:

* ``"sql"`` — ``None`` or incomparable types make the comparison
  *false* (DC predicates, OD marks); with ``negated=True`` the flip
  happens **after** that rule, so an undefined comparison makes the
  negated atom *true* (matching ``not _ordered(...)`` in the legacy
  scans);
* ``"py"`` — plain Python equality with the identity shortcut tuples
  use (``NaN`` equals itself when it is the same object), exactly the
  ``values_at(i, X) == values_at(j, X)`` tests of FDs/MFDs/MDs.

Plans are *evaluated* by :mod:`repro.plan.kernels`; the kernels use the
atom structure for candidate-pair pruning and re-verify every candidate
against the source notation's own predicate, so a plan is always a
sound over-approximation and never changes reported semantics.

Plans are the only evaluation path for pairwise checks; the parity
suites compare them against the all-pairs reference scans in
``tests/oracles.py``.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from typing import Any

from ..runtime.execution import current_scope

Value = Any


class PlanCompileError(ValueError):
    """Raised when a dependency has no pair-plan lowering (MVDs, ...)."""


#: Tuple variable names, matching the DC module's t_alpha / t_beta.
ALPHA = "a"
BETA = "b"

_OPS: dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

ORDER_OPS = ("<", "<=", ">", ">=")


def _sql_compare(op: str, left: Value, right: Value) -> bool:
    """SQL-style comparison: ``None``/incomparable is false."""
    if left is None or right is None:
        return False
    try:
        return _OPS[op](left, right)
    except TypeError:
        return False


class PredicateAtom:
    """Base class of plan atoms.

    ``eval(relation, i, j)`` evaluates with tuple ``i`` bound to t_α and
    tuple ``j`` to t_β.  ``symmetric`` atoms satisfy
    ``eval(i, j) == eval(j, i)`` for all pairs, which lets kernels probe
    a single orientation.  ``vectorizable`` atoms have a batch-array
    evaluation in :mod:`repro.plan.kernels_vec`; the flag is *static*
    eligibility — the vectorized backend still falls back per relation
    when, e.g., a column is not numerically representable.
    """

    symmetric: bool = False
    vectorizable: bool = False

    def eval(self, relation, i: int, j: int) -> bool:
        raise NotImplementedError

    def attributes(self) -> tuple[str, ...]:
        return ()


def _var_row(var: str, i: int, j: int) -> int:
    return i if var == ALPHA else j


class CmpAtom(PredicateAtom):
    """``tα.A op tβ.B`` under ``"sql"`` or ``"py"`` semantics.

    ``negated`` flips the result *after* the semantics rule, so an
    undefined SQL comparison makes the negated atom true — the behavior
    of ``not leq(...)`` / ``not mark.compare(...)`` in the legacy scans.
    ``"py"`` semantics support only ``"="`` and evaluate the identity-
    shortcut equality of 1-tuples, matching ``values_at`` comparisons.
    """

    vectorizable = True

    __slots__ = ("lhs_var", "lhs_attr", "op", "rhs_var", "rhs_attr",
                 "semantics", "negated", "symmetric")

    def __init__(
        self,
        lhs_var: str,
        lhs_attr: str,
        op: str,
        rhs_var: str,
        rhs_attr: str,
        semantics: str = "sql",
        negated: bool = False,
    ) -> None:
        if op not in _OPS:
            raise PlanCompileError(f"unknown comparison operator {op!r}")
        if semantics not in ("sql", "py"):
            raise PlanCompileError(f"unknown semantics {semantics!r}")
        if semantics == "py" and op != "=":
            raise PlanCompileError("py semantics only support equality")
        # Normalize β-first atoms so kernels can assume α on the left.
        if lhs_var == BETA and rhs_var == ALPHA:
            lhs_var, rhs_var = ALPHA, BETA
            lhs_attr, rhs_attr = rhs_attr, lhs_attr
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        self.lhs_var = lhs_var
        self.lhs_attr = lhs_attr
        self.op = op
        self.rhs_var = rhs_var
        self.rhs_attr = rhs_attr
        self.semantics = semantics
        self.negated = negated
        self.symmetric = (
            op in ("=", "!=")
            and lhs_attr == rhs_attr
            and lhs_var != rhs_var
        )

    @property
    def cross_tuple(self) -> bool:
        return self.lhs_var != self.rhs_var

    def eval(self, relation, i: int, j: int) -> bool:
        left = relation.value_at(_var_row(self.lhs_var, i, j), self.lhs_attr)
        right = relation.value_at(_var_row(self.rhs_var, i, j), self.rhs_attr)
        if self.semantics == "py":
            # 1-tuple wrap: the identity-shortcut equality of values_at.
            result = (left,) == (right,)
        else:
            result = _sql_compare(self.op, left, right)
        return not result if self.negated else result

    def attributes(self) -> tuple[str, ...]:
        if self.lhs_attr == self.rhs_attr:
            return (self.lhs_attr,)
        return (self.lhs_attr, self.rhs_attr)

    def __str__(self) -> str:
        body = (
            f"t{'α' if self.lhs_var == ALPHA else 'β'}.{self.lhs_attr} "
            f"{self.op} "
            f"t{'α' if self.rhs_var == ALPHA else 'β'}.{self.rhs_attr}"
        )
        if self.semantics == "py":
            body += " [py]"
        return f"¬({body})" if self.negated else body


class ConstAtom(PredicateAtom):
    """``t.A op constant`` (SQL semantics)."""

    vectorizable = True

    __slots__ = ("var", "attr", "op", "constant", "negated")

    def __init__(
        self, var: str, attr: str, op: str, constant: Value,
        negated: bool = False,
    ) -> None:
        if op not in _OPS:
            raise PlanCompileError(f"unknown comparison operator {op!r}")
        self.var = var
        self.attr = attr
        self.op = op
        self.constant = constant
        self.negated = negated

    def eval(self, relation, i: int, j: int) -> bool:
        left = relation.value_at(_var_row(self.var, i, j), self.attr)
        result = _sql_compare(self.op, left, self.constant)
        return not result if self.negated else result

    def attributes(self) -> tuple[str, ...]:
        return (self.attr,)

    def __str__(self) -> str:
        body = (
            f"t{'α' if self.var == ALPHA else 'β'}.{self.attr} "
            f"{self.op} {self.constant!r}"
        )
        return f"¬({body})" if self.negated else body


class PatternAtom(PredicateAtom):
    """``t.A matches <pattern entry>`` (CFD/CDD/CMD conditions)."""

    vectorizable = True

    __slots__ = ("var", "attr", "entry")

    def __init__(self, var: str, attr: str, entry) -> None:
        self.var = var
        self.attr = attr
        self.entry = entry

    def eval(self, relation, i: int, j: int) -> bool:
        value = relation.value_at(_var_row(self.var, i, j), self.attr)
        return self.entry.matches(value)

    def attributes(self) -> tuple[str, ...]:
        return (self.attr,)

    def __str__(self) -> str:
        return (
            f"t{'α' if self.var == ALPHA else 'β'}.{self.attr} "
            f"matches {self.entry}"
        )


class MetricAtom(PredicateAtom):
    """``d_A(tα.A, tβ.A) ∈ interval`` — the heterogeneous-branch atom.

    ``semantics`` mirrors the two legacy evaluation idioms:

    * ``"interval"`` — :meth:`Interval.contains` (DD/MFD ranges); a NaN
      distance falls *inside* every interval (all comparisons false),
      matching the legacy max-combine behavior;
    * ``"within"`` — ``distance <= interval.high`` (SimilarityPredicate
      / ``Metric.within``); a NaN distance is *not* within, matching
      the legacy similarity tests.
    """

    symmetric = True
    vectorizable = True

    __slots__ = ("attribute", "interval", "semantics", "negated",
                 "metric", "registry")

    def __init__(
        self,
        attribute: str,
        interval,
        semantics: str = "interval",
        negated: bool = False,
        metric=None,
        registry=None,
    ) -> None:
        if semantics not in ("interval", "within"):
            raise PlanCompileError(f"unknown metric semantics {semantics!r}")
        self.attribute = attribute
        self.interval = interval
        self.semantics = semantics
        self.negated = negated
        self.metric = metric
        self.registry = registry

    def resolve_metric(self, relation):
        if self.metric is not None:
            return self.metric
        from ..metrics.registry import DEFAULT_REGISTRY

        registry = self.registry if self.registry is not None else (
            DEFAULT_REGISTRY
        )
        return registry.metric_for(relation.schema[self.attribute])

    def accepts_distance(self, d: float) -> bool:
        """The un-negated interval test on a precomputed distance."""
        if self.semantics == "within":
            return d <= self.interval.high
        return self.interval.contains(d)

    def eval(self, relation, i: int, j: int) -> bool:
        metric = self.resolve_metric(relation)
        d = metric.distance(
            relation.value_at(i, self.attribute),
            relation.value_at(j, self.attribute),
        )
        result = self.accepts_distance(d)
        return not result if self.negated else result

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def __str__(self) -> str:
        body = f"d({self.attribute}) ∈ {self.interval}"
        return f"¬({body})" if self.negated else body


class ThetaAtom(PredicateAtom):
    """A CD similarity function ``θ(Ai, Aj)`` on the pair (symmetric)."""

    symmetric = True

    __slots__ = ("fn", "registry", "negated")

    def __init__(self, fn, registry, negated: bool = False) -> None:
        self.fn = fn
        self.registry = registry
        self.negated = negated

    def eval(self, relation, i: int, j: int) -> bool:
        result = self.fn.similar(relation, i, j, self.registry)
        return not result if self.negated else result

    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((self.fn.attr_i, self.fn.attr_j)))

    def __str__(self) -> str:
        body = f"θ({self.fn.attr_i}, {self.fn.attr_j})"
        return f"¬({body})" if self.negated else body


class ResemblanceAtom(PredicateAtom):
    """``mu_EQ(X) > mu_EQ(Y)`` — the FFD violation condition."""

    symmetric = True

    __slots__ = ("ffd",)

    def __init__(self, ffd) -> None:
        self.ffd = ffd

    def eval(self, relation, i: int, j: int) -> bool:
        mu_x = self.ffd.mu_set(relation, i, j, self.ffd.lhs)
        mu_y = self.ffd.mu_set(relation, i, j, self.ffd.rhs)
        return mu_x > mu_y

    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.ffd.lhs + self.ffd.rhs))

    def __str__(self) -> str:
        x = ", ".join(self.ffd.lhs)
        y = ", ".join(self.ffd.rhs)
        return f"mu_EQ({x}) > mu_EQ({y})"


class NotNullAtom(PredicateAtom):
    """Every listed attribute is non-``None`` on *both* tuples."""

    symmetric = True
    vectorizable = True

    __slots__ = ("attrs",)

    def __init__(self, attrs: Sequence[str]) -> None:
        self.attrs = tuple(attrs)

    def eval(self, relation, i: int, j: int) -> bool:
        for a in self.attrs:
            col = relation.column(a)
            if col[i] is None or col[j] is None:
                return False
        return True

    def attributes(self) -> tuple[str, ...]:
        return self.attrs

    def __str__(self) -> str:
        return f"notnull({', '.join(self.attrs)})"


class FnAtom(PredicateAtom):
    """Opaque predicate over an ordered pair (escape hatch)."""

    __slots__ = ("fn", "attrs", "symmetric", "text")

    def __init__(
        self,
        fn: Callable,
        attrs: Sequence[str],
        symmetric: bool = False,
        text: str = "<fn>",
    ) -> None:
        self.fn = fn
        self.attrs = tuple(attrs)
        self.symmetric = symmetric
        self.text = text

    def eval(self, relation, i: int, j: int) -> bool:
        return bool(self.fn(relation, i, j))

    def attributes(self) -> tuple[str, ...]:
        return self.attrs

    def __str__(self) -> str:
        return self.text


class Clause:
    """A conjunction of atoms; the clause *fires* when all atoms hold."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Sequence[PredicateAtom]) -> None:
        self.atoms = tuple(atoms)
        if not self.atoms:
            raise PlanCompileError("empty plan clause")

    def fires(self, relation, i: int, j: int) -> bool:
        return all(a.eval(relation, i, j) for a in self.atoms)

    def attributes(self) -> tuple[str, ...]:
        out: list[str] = []
        for a in self.atoms:
            out.extend(a.attributes())
        return tuple(dict.fromkeys(out))

    def __str__(self) -> str:
        return " ∧ ".join(str(a) for a in self.atoms)


class Plan:
    """A compiled evaluation plan in deny form.

    ``style`` controls reporting: ``"pair"`` plans (compiled from
    pairwise notations) report each unordered violating pair once with
    the notation's own ``pair_violation`` reason; ``"ordered"`` plans
    (DCs) report the first denied (α, β) orientation in row-major
    order, matching the legacy ordered scan's dedupe behavior.
    """

    __slots__ = ("label", "clauses", "arity", "style", "source", "note",
                 "never")

    def __init__(
        self,
        label: str,
        clauses: Sequence[Clause],
        arity: int = 2,
        style: str = "pair",
        source: Any = None,
        note: str = "",
        never: bool = False,
    ) -> None:
        if arity not in (1, 2):
            raise PlanCompileError(f"plan arity must be 1 or 2, got {arity}")
        if style not in ("pair", "ordered"):
            raise PlanCompileError(f"unknown plan style {style!r}")
        self.label = label
        self.clauses = tuple(clauses)
        if not self.clauses:
            raise PlanCompileError("plan needs at least one clause")
        self.arity = arity
        self.style = style
        self.source = source
        self.note = note
        #: True when static analysis proved no clause can ever fire
        #: (see :func:`repro.analysis.simplify.simplify_plan`); kernels
        #: then skip evaluation entirely.
        self.never = never

    def denies(self, relation: Any, i: int, j: int) -> bool:
        """Whether the ordered assignment (α=i, β=j) is a violation."""
        if self.never:
            return False
        return any(c.fires(relation, i, j) for c in self.clauses)

    @property
    def symmetric(self) -> bool:
        """True when one orientation per unordered pair suffices."""
        return all(a.symmetric for c in self.clauses for a in c.atoms)

    @property
    def vector_eligible(self) -> bool:
        """True when every atom has a batch-array evaluation (static).

        The vectorized backend still re-checks per relation (column
        representability, metric kind); this flag is the static half of
        that decision, used by ``repro plan`` and the backend selector.
        """
        return all(a.vectorizable for c in self.clauses for a in c.atoms)

    def shared_atoms(self) -> tuple[PredicateAtom, ...]:
        """Atoms present (by identity) in every clause — the guards."""
        first = self.clauses[0].atoms
        rest = [set(map(id, c.atoms)) for c in self.clauses[1:]]
        return tuple(
            a for a in first if all(id(a) in ids for ids in rest)
        )

    def attributes(self) -> tuple[str, ...]:
        out: list[str] = []
        for c in self.clauses:
            out.extend(c.attributes())
        return tuple(dict.fromkeys(out))

    def describe(self) -> str:
        """Multi-line rendering for ``repro plan`` and docs."""
        from .kernels import strategy_hint

        shape = "single-tuple" if self.arity == 1 else self.style
        kernel = "skipped (never fires)" if self.never else strategy_hint(self)
        mode = current_scope().backend
        if self.never:
            backend = "none"
        elif mode == "scalar":
            backend = "scalar (forced)"
        elif self.vector_eligible:
            backend = "vectorized" if mode == "vector" else (
                "vectorized (auto)"
            )
        else:
            backend = "scalar (non-vectorizable atoms)"
        lines = [
            f"{self.label}",
            f"  plan ({shape}, {len(self.clauses)} clause"
            f"{'s' if len(self.clauses) != 1 else ''})"
            f" [kernel: {kernel}, backend: {backend}]",
        ]
        for k, clause in enumerate(self.clauses, 1):
            lines.append(f"    clause {k}: {clause}")
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return " ∨ ".join(f"({c})" for c in self.clauses)

    def __repr__(self) -> str:
        return (
            f"Plan({self.label!r}, {len(self.clauses)} clauses, "
            f"arity={self.arity}, style={self.style!r})"
        )
