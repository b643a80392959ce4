"""Property tests: plan simplification never changes results.

The static simplifier (:func:`repro.analysis.simplify.simplify_plan`)
claims its rewrites are equivalence-preserving on *any* relation —
including ``None`` cells, NaN, and mixed incomparable types.  This
suite pins that claim two ways, over the same hostile value pool as
``test_plan_parity``:

* **deny-set identity** — for every notation and every ordered pair,
  the simplified plan's ``denies`` agrees with the raw compiled plan;
* **violation-output identity** — ``violations()`` through the kernels
  is order-identical (same pairs, same reasons) with simplification on
  (the default) and off (the raw compiled plan pre-seeded into the
  dependency's plan cache).

The dependency list is seeded with rules the simplifier actually
rewrites: duplicate atoms, subsumed clauses, mergeable metric
intervals, statically dead clauses, and fully unsatisfiable plans.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.simplify import simplify_plan
from repro.core.categorical.fd import FD
from repro.core.heterogeneous.dd import CDD, DD
from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.mfd import MFD
from repro.core.heterogeneous.ned import NED
from repro.core.numerical.dc import DC, pred2, predc
from repro.core.numerical.od import OD
from repro.plan.compile import compile_dependency
from repro.relation import Attribute, AttributeType, Relation, Schema

NAN = float("nan")

MIXED = st.sampled_from(
    [None, 0, 1, 2, 3, True, False, 1.0, 2.5, -1, "x", "y", "", NAN]
)


@st.composite
def relations(draw, max_cols=3, max_rows=12):
    n_cols = draw(st.integers(min_value=3, max_value=max_cols))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    schema = Schema(
        [
            Attribute(f"A{c}", AttributeType.CATEGORICAL)
            for c in range(n_cols)
        ]
    )
    rows = [
        tuple(draw(MIXED) for __ in range(n_cols)) for __ in range(n_rows)
    ]
    return Relation.from_rows(schema, rows)


def make_dependencies():
    """Rules chosen so the simplifier has real rewrites to perform."""
    return [
        # Plain rules (simplifier should mostly leave these alone).
        FD(["A0"], ["A1"]),
        MD({"A0": 2.0}, ["A1"]),
        NED({"A0": 2.0}, {"A1": 1.0}),
        OD([("A0", "<=")], [("A1", "<=")]),
        DC([pred2("A0", "<", "A1")]),
        # Duplicate-atom / subsumed-clause fodder.
        FD(["A0", "A0"], ["A1"]),
        FD(["A0"], ["A1", "A1"]),
        DC([pred2("A0", "<="), pred2("A0", "<="), pred2("A1", ">")]),
        # Same-term-pair subsumption: < implies <= and !=.
        DC([pred2("A0", "<"), pred2("A0", "<="), pred2("A0", "!=")]),
        # Mergeable metric intervals on one measure.
        DD({"A0": (0.0, 5.0), "A1": (0.0, 9.0)}, {"A2": (0.0, 1.0)}),
        CDD({"A0": (0.0, 5.0)}, {"A1": (0.0, 1.0)}, {"A2": "x"}),
        MFD(["A0"], ["A1"], 1.0),
        # Statically dead: strict cycle, twin negation, empty constants.
        DC([pred2("A0", "<"), pred2("A0", ">")]),
        DC([pred2("A0", "<", "A1"), pred2("A1", "<", "A0")]),
        DC([predc("A0", ">", 5.0), predc("A0", "<", 3.0)]),
        DC([predc("A0", "=", "x"), predc("A0", "!=", "x")]),
        # Trivial (consequent contradicts a guard -> every clause dead).
        FD(["A0", "A1"], ["A0"]),
        OD([("A0", "<")], [("A0", "<")]),
        # Partially dead: one live clause, one dead.
        FD(["A0"], ["A1", "A0"]),
        # Constant atoms against None (never hold under SQL semantics).
        DC([predc("A0", "=", None)]),
        DC([pred2("A0", "="), predc("A1", "<", 2.0)]),
    ]


def _deny_sets_equal(raw, simplified, relation) -> bool:
    n = len(relation)
    if raw.arity == 1:
        pairs = [(i, i) for i in range(n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return all(
        raw.denies(relation, i, j) == simplified.denies(relation, i, j)
        for i, j in pairs
    )


@given(relations())
@settings(max_examples=60, deadline=None)
def test_simplified_deny_set_identical(relation):
    for dep in make_dependencies():
        raw = compile_dependency(dep)
        simplified = simplify_plan(raw)
        assert _deny_sets_equal(raw, simplified, relation), (
            f"simplification changed the deny-set of {dep.label()}"
        )


def test_simplify_is_idempotent_and_source_preserving():
    for dep in make_dependencies():
        raw = compile_dependency(dep)
        once = simplify_plan(raw)
        twice = simplify_plan(once)
        assert twice is once
        assert once.source is dep
        assert once.arity == raw.arity
        assert once.style == raw.style


def test_simplifier_shrinks_seeded_rules():
    def size(plan):
        return sum(len(c.atoms) for c in plan.clauses)

    # Duplicate guard atom: one of the two X-equality atoms must go.
    raw = compile_dependency(FD(["A0", "A0"], ["A1"]))
    assert size(simplify_plan(raw)) < size(raw)
    # Duplicate clause (duplicated RHS attribute).
    raw = compile_dependency(FD(["A0"], ["A1", "A1"]))
    assert len(simplify_plan(raw).clauses) < len(raw.clauses)
    # Mergeable LHS intervals (two guards collapse into one).
    raw = compile_dependency(
        DD({"A0": (0.0, 5.0)}, {"A0": (0.0, 1.0), "A1": (0.0, 2.0)})
    )
    simplified = simplify_plan(raw)
    assert size(simplified) <= size(raw)
    # Fully dead plans get the never flag (kernels skip the scan).
    raw = compile_dependency(DC([pred2("A0", "<"), pred2("A0", ">")]))
    assert simplify_plan(raw).never
    raw = compile_dependency(FD(["A0", "A1"], ["A0"]))
    assert simplify_plan(raw).never


def _snapshot(dep, relation):
    return [(v.tuples, v.reason) for v in dep.violations(relation)]


@given(relations(max_rows=10))
@settings(max_examples=40, deadline=None)
def test_kernel_output_with_and_without_simplification(relation):
    # Fresh dependency objects per pass: each carries its own cached
    # plan.  ``plan_for`` returns a cached plan whose source is the
    # dependency itself, so pre-seeding the raw compiled plan makes the
    # first pass run it unsimplified.
    expected = []
    for dep in make_dependencies():
        dep._repro_plan = compile_dependency(dep)
        expected.append(_snapshot(dep, relation))
    got = [_snapshot(dep, relation) for dep in make_dependencies()]
    labels = [dep.label() for dep in make_dependencies()]
    for label, want, have in zip(labels, expected, got, strict=True):
        assert have == want, (
            f"simplification changed kernel output for {label}"
        )


def test_never_plan_reports_no_violations():
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.CATEGORICAL) for c in range(3)]
    )
    relation = Relation.from_rows(
        schema, [(1, 2, 3), (1, 5, 3), (2, 2, 2), (None, NAN, "x")]
    )
    for dep in (
        DC([pred2("A0", "<"), pred2("A0", ">")]),
        FD(["A0", "A1"], ["A0"]),
        OD([("A0", "<")], [("A0", "<")]),
    ):
        assert dep.holds(relation)
        assert len(dep.violations(relation)) == 0
