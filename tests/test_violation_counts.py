"""Counting without listing: ``violation_count`` against the listings.

FD, AFD, SFD, CFD and eCFD count their violations from the relation's
code groups (``Dependency.violation_count``), and a CFD finds its
pattern-matching tuples through the columns' codebooks.  These tests
hold both to their definitions on hostile cells: ``None``, one shared
NaN object next to fresh NaNs, ``1``/``1.0``/``True``, ``0.0``/``-0.0``
and strings.  Patterns draw constants from the same pool, plus
``None``, a NaN, an unhashable list and eCFD operator entries.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.categorical import AFD, CFD, ECFD, FD, SFD
from repro.discovery import discover_sds
from repro.relation import Attribute, AttributeType, Relation, Schema

from . import oracles

COLUMNS = ("a", "b", "c")
SCHEMA = Schema([Attribute(c) for c in COLUMNS])

#: One NaN object shared by every draw: its cells share a code.
NAN = float("nan")
SHARED = [None, NAN, 1, 1.0, True, 0, 0.0, -0.0, 2, "x", "y"]
#: A new NaN object per draw: unequal to every other cell.
FRESH_NAN = st.builds(float, st.just("nan"))
CELLS = st.sampled_from(SHARED) | FRESH_NAN

attrs = st.sampled_from(COLUMNS)
sides = st.lists(attrs, min_size=1, max_size=2, unique=True)
constants = st.sampled_from(SHARED) | FRESH_NAN | st.just([1])
ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def relations(draw):
    # A few distinct cells per relation, so groups repeat.
    cells = st.sampled_from(draw(st.lists(CELLS, min_size=1, max_size=4)))
    rows = draw(st.lists(st.tuples(cells, cells, cells), max_size=12))
    return Relation.from_rows(SCHEMA, rows)


@st.composite
def cfds(draw, operators=False):
    lhs, rhs = draw(sides), draw(sides)
    entry = constants | st.just("_")
    if operators:
        entry = entry | st.tuples(ops, constants)
    pattern = draw(st.fixed_dictionaries(
        {}, optional={a: entry for a in dict.fromkeys(lhs + rhs)}
    ))
    return (ECFD if operators else CFD)(lhs, rhs, pattern)


@st.composite
def fd_family(draw):
    lhs, rhs = draw(sides), draw(sides)
    kind = draw(st.sampled_from(["FD", "AFD", "SFD"]))
    if kind == "FD":
        return FD(lhs, rhs)
    if kind == "AFD":
        return AFD(lhs, rhs, 0.25)
    return SFD(lhs, rhs, 0.5)


@settings(max_examples=200, deadline=None)
@given(relations(), fd_family())
def test_fd_family_counts_equal_the_listing(r, dep):
    assert dep.violation_count(r) == len(dep.violations(r))


@settings(max_examples=300, deadline=None)
@given(relations(), cfds() | cfds(operators=True))
def test_cfd_counts_and_matches_equal_the_row_scan(r, dep):
    assert dep.matching_indices(r) == oracles.cfd_matching_indices(dep, r)
    count = dep.violation_count(r)
    assert count == len(dep.violations(r))
    assert dep.holds(r) == (count == 0)


def test_pattern_constants_keep_their_row_meaning():
    """``None`` and NaN constants match nothing (not even the shared
    NaN's own rows); ``1`` matches ``1.0`` and ``True``; an unhashable
    constant matches nothing; an operator entry skips ``None`` and
    incomparable cells."""
    r = Relation.from_rows(
        SCHEMA,
        [(NAN, 1, "x"), (None, 2, "x"), (True, 2, "y"), (1.0, 3, "y"),
         (0, 3, "y"), ("s", 3, "z")],
    )
    for constant, rows in [
        (None, []), (NAN, []), (1, [2, 3]), (-0.0, [4]), ([1], []),
    ]:
        dep = CFD(["a"], ["b"], {"a": constant})
        assert dep.matching_indices(r) == rows
        assert oracles.cfd_matching_indices(dep, r) == rows
    dep = ECFD(["a"], ["c"], {"a": ("<", 1)})
    assert dep.matching_indices(r) == [4] == oracles.cfd_matching_indices(dep, r)
    # Rows 2 and 3 match a = 1 and share a code there, but b is 2 vs 3.
    dep = CFD(["a"], ["b"], {"a": 1})
    assert dep.violation_count(r) == len(dep.violations(r)) == 1


def test_a_row_failing_several_constants_counts_once():
    r = Relation.from_rows(SCHEMA, [(1, "p", "q"), (1, "b", "c")])
    dep = CFD(["a"], ["b", "c"], {"a": 1, "b": "b", "c": "c"})
    # Row 0 fails both RHS constants (one violation); rows 0 and 1
    # agree on a and differ on (b, c) (one more).
    assert dep.violation_count(r) == len(dep.violations(r)) == 2


def test_sd_discovery_fits_around_nan_cells():
    """A NaN cell makes NaN consecutive gaps; they are left out of the
    fit and out of the span, so no SD with NaN bounds is reported."""
    schema = Schema([Attribute(c, AttributeType.NUMERICAL) for c in "xy"])
    r = Relation.from_rows(schema, [(0, NAN), (1, 0), (2, 1), (3, 5)])
    found = discover_sds(r)
    assert all(
        not math.isnan(sd.gap.low) and not math.isnan(sd.gap.high)
        for sd in found
    )
    assert [str(sd) for sd in found] == ["y ->_=1 x"]
