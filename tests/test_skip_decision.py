"""One skip decision, taken everywhere, and sound wherever it is taken.

:func:`repro.analysis.screen_rules` decides which rules evaluation may
skip (trivial, duplicate, implied).  Two properties over generated rule
sets of mixed notations:

* **one skip set** — ``repro lint`` reports exactly that decision as
  DD004/DD008/DD007, and the server's rule install skips exactly it;
* **every skip is sound** — on any relation where every kept rule
  holds, every skipped rule holds too.  The relations carry hostile
  cells (``None``, NaN, ints next to equal floats), where a family-tree
  edge that only holds on clean data would show.

The decision itself compares a rule only with the rules that could
duplicate or imply it (an equal rule of its type, the FD pool, its
family); it must equal the all-pairs oracle in ``tests/oracles.py``,
witnesses included, on rule sets with repeats and in any order.

The generator leans toward repeated rules and FDs with a widened LHS,
the two ways real rule files grow redundant.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import lint_rules, screen_rules
from repro.analysis.cross_rule import _redundant_rules
from repro.core.categorical.afd import AFD
from repro.core.categorical.cfd import CFD
from repro.core.categorical.fd import FD
from repro.core.heterogeneous.dd import DD
from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.mfd import MFD
from repro.core.numerical.dc import DC, pred2
from repro.core.numerical.od import OD
from repro.core.numerical.sd import SD
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime import InputError
from repro.server.state import Tenant

from . import oracles

COLUMNS = ("a", "b", "c", "d")
SCHEMA = Schema([Attribute(c, AttributeType.NUMERICAL) for c in COLUMNS])

#: One shared NaN object, so repeated occurrences group together.
NAN = float("nan")
CELLS = st.sampled_from([None, NAN, 0, 1, 1.0, 2, 2.5, 3.0])

#: The lint codes of the skip decision, in its precedence order.
SKIP_CODES = (
    ("DD004", "trivial"), ("DD008", "duplicate"), ("DD007", "implied")
)

attrs = st.sampled_from(COLUMNS)
lhs_sets = st.lists(attrs, min_size=1, max_size=2, unique=True)
bounds = st.sampled_from([0.5, 1.0, 2.0])
marks = st.sampled_from(["<", "<=", ">", ">="])
ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
KINDS = (
    "FD", "AFD", "CFD", "constant CFD", "DD", "MD", "MFD", "OD", "SD", "DC"
)


def notation(kind, lhs, rhs):
    """Rules of one kind over LHS ``lhs`` and RHS attribute ``rhs``."""
    x = lhs[0]
    if kind == "FD":
        return st.just(FD(lhs, [rhs]))
    if kind == "AFD":
        errors = st.sampled_from([0.0, 0.2, 0.5])
        return errors.map(lambda e: AFD(lhs, [rhs], e))
    if kind == "CFD":
        return st.just(CFD(lhs, [rhs], {}))
    if kind == "constant CFD":
        constants = st.sampled_from([0, 1, 2.5])
        return st.fixed_dictionaries(
            {a: constants for a in (*lhs, rhs)}
        ).map(lambda pattern: CFD(lhs, [rhs], pattern))
    if kind == "DD":
        return st.builds(
            lambda p, q: DD({x: ("<=", p)}, {rhs: ("<=", q)}), bounds, bounds
        )
    if kind == "MD":
        return bounds.map(lambda t: MD({x: t}, [rhs]))
    if kind == "MFD":
        return bounds.map(lambda t: MFD([x], [rhs], t))
    if kind == "OD":
        return st.builds(lambda m, n: OD([(x, m)], [(rhs, n)]), marks, marks)
    if kind == "SD":
        gaps = st.sampled_from([(0.0, 1.0), (0.0, 5.0), (1.0, 2.0)])
        return gaps.map(lambda g: SD([x], rhs, g))
    # Predicates on two distinct attributes never contradict each other.
    return st.builds(
        lambda p, q: DC([pred2(x, p), *([pred2(rhs, q)] if rhs != x else [])]),
        ops, ops,
    )


@st.composite
def rule_sets(draw):
    """2-6 rules; a step may add a rule, repeat one, redraw one's
    parameters over the same sides, or widen an FD's LHS."""
    n = draw(st.integers(min_value=2, max_value=6))
    specs, rules = [], []

    def add(kind, lhs, rhs):
        specs.append((kind, lhs, rhs))
        rules.append(draw(notation(kind, lhs, rhs)))

    add(draw(st.sampled_from(KINDS)), draw(lhs_sets), draw(attrs))
    while len(rules) < n:
        step = draw(
            st.sampled_from(["new", "repeat", "vary", "vary", "widen"])
        )
        if step == "repeat":
            i = draw(st.integers(min_value=0, max_value=len(rules) - 1))
            specs.append(specs[i])
            rules.append(rules[i])
        elif step == "vary":
            add(*draw(st.sampled_from(specs)))
        elif step == "widen":
            fds = [spec for spec in specs if spec[0] == "FD"]
            if not fds:
                add("FD", draw(lhs_sets), draw(attrs))
                fds = specs[-1:]
            __, lhs, rhs = draw(st.sampled_from(fds))
            extra = draw(st.sampled_from([a for a in COLUMNS if a != rhs]))
            add("FD", list(dict.fromkeys((*lhs, extra))), rhs)
        else:
            add(draw(st.sampled_from(KINDS)), draw(lhs_sets), draw(attrs))
    return rules[:n]


@st.composite
def relations(draw):
    """Up to 5 rows over a few cells, so rules often hold."""
    cells = st.sampled_from(draw(st.lists(CELLS, min_size=1, max_size=3)))
    rows = draw(
        st.lists(st.tuples(*[cells] * len(COLUMNS)), min_size=0, max_size=5)
    )
    return Relation.from_rows(SCHEMA, rows)


@given(rule_sets())
@example([DC([pred2("a", "="), pred2("b", "!=")])] * 2)
@settings(max_examples=150, deadline=None)
def test_check_lint_and_server_skip_the_same_rules(rules):
    report = lint_rules(rules)
    tenant = Tenant("t", SCHEMA, Relation.empty(SCHEMA))
    try:
        skipped = screen_rules(rules)
    except InputError:
        # The gate's strictly unsatisfiable rule is a DD003 error.
        assert "DD003" in {d.code for d in report.diagnostics}
        with pytest.raises(InputError):
            tenant.install_rules(report.entries, None)
        return

    index_of = {e.location: i for i, e in enumerate(report.entries)}
    codes: dict[int, set[str]] = {}
    for diag in report.diagnostics:
        codes.setdefault(index_of[diag.location], set()).add(diag.code)
    linted = {}
    for i, found in sorted(codes.items()):
        reasons = [why for code, why in SKIP_CODES if code in found]
        if reasons:
            linted[i] = reasons[0]
    assert skipped == linted

    tenant.install_rules(report.entries, None)
    assert tenant.skipped == skipped


@given(rule_sets(), st.lists(relations(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_every_skip_is_sound(rules, samples):
    try:
        skipped = screen_rules(rules)
    except InputError:
        return
    kept = [r for i, r in enumerate(rules) if i not in skipped]
    for relation in samples:
        if not all(r.holds(relation) for r in kept):
            continue
        for i, why in skipped.items():
            assert rules[i].holds(relation), (
                f"{rules[i].label()} skipped as {why} but violated while "
                f"every kept rule holds on rows {list(relation.rows())}"
            )


@st.composite
def crowded_rule_sets(draw):
    """Several rule sets run together, with repeats, rules that cannot
    be hashed (a CFD over a list constant), and a shuffle."""
    rules = [r for part in draw(st.lists(rule_sets(), min_size=1, max_size=4))
             for r in part]
    for __ in range(draw(st.integers(min_value=0, max_value=2))):
        x, y = draw(attrs), draw(attrs)
        rules.append(CFD([x], [y], {x: [draw(st.sampled_from([0, 1]))]}))
    repeats = draw(st.lists(st.sampled_from(rules), max_size=6))
    return draw(st.permutations(rules + repeats))


@given(crowded_rule_sets())
@settings(max_examples=200, deadline=None)
def test_bucketed_decision_equals_the_all_pairs_oracle(rules):
    assert _redundant_rules(rules) == oracles.redundant_rules(rules)


def test_witnesses_follow_the_active_sets_iteration_order():
    """Rule 0 is implied by rules 3 and 8 alike; the witness is the
    first candidate in ``active``'s own iteration order ({0, 3, 8}
    iterates 0, 8, 3), as in the all-pairs oracle."""
    wide, low, high = (SD(["a"], "b", g) for g in [(0, 10), (0, 1), (2, 3)])
    rules = [wide, wide, wide, low, wide, wide, wide, wide, high]
    assert list({0, 3, 8}) == [0, 8, 3]
    decided = _redundant_rules(rules)
    assert decided.implied_by == {0: (8,)}
    assert decided == oracles.redundant_rules(rules)
