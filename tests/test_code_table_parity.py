"""The code tables against the value-group and partition references.

TANE, CORDS, CFDMiner, FD listing, ``holds``, g3 and CFD counts read
the relation's ``(X, Y)`` code tables
(``RelationEncoding.contingency``).  These tests hold each to its
reference in ``tests/oracles.py`` on the hostile cells of
``tests/test_violation_counts.py``: ``None``, one shared NaN object next
to fresh NaNs, ``1``/``1.0``/``True``, ``0.0``/``-0.0`` and strings.
Equal means equal lists in equal order, and for CORDS equal floats bit
for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.categorical import AFD, ECFD, FD
from repro.discovery import cords, discover_constant_cfds, tane
from repro.discovery.cords import chi_square_statistic
from repro.relation import Attribute, Relation, Schema
from repro.relation.encoding import Contingency
from repro.runtime import EngineFault, inject

from . import oracles
from .test_violation_counts import CELLS, cfds

COLUMNS = ("a", "b", "c", "d")
SCHEMA = Schema([Attribute(c) for c in COLUMNS])

sides = st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2, unique=True)


@st.composite
def relations(draw, max_rows=14):
    # A few distinct cells per relation, so groups repeat.
    cells = st.sampled_from(draw(st.lists(CELLS, min_size=1, max_size=4)))
    row = st.tuples(*(cells for __ in COLUMNS))
    return Relation.from_rows(SCHEMA, draw(st.lists(row, max_size=max_rows)))


def _show(deps) -> list[str]:
    return [repr(d) for d in deps]


@settings(max_examples=200, deadline=None)
@given(relations(), st.sampled_from([0.0, 0.05, 0.25]), st.sampled_from([1, 2, 3]))
def test_tane_equals_tane_on_partitions(r, epsilon, max_lhs):
    got = tane(r, max_lhs_size=max_lhs, epsilon=epsilon).dependencies
    assert _show(got) == _show(oracles.tane(r, max_lhs, epsilon))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
def test_counted_and_sorted_tables_agree(rows):
    """Both ways of building a table give the same table, and it groups
    the rows as a dict does."""
    x = np.array([a for a, __ in rows], dtype=np.int64)
    xy = x * 6 + np.array([b for __, b in rows], dtype=np.int64)
    counted = Contingency(x, xy, 36)
    ordered = Contingency(x, xy, 1 << 40)  # too wide to count: sorted
    for name in ("n", "x_rank", "xy_rank", "kept"):
        assert getattr(counted, name) == getattr(ordered, name)
    for name in ("sizes", "first", "x_of", "x_first"):
        assert getattr(counted, name).tolist() == getattr(ordered, name).tolist()
    groups: dict[tuple[int, int], list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row, []).append(i)
    assert sorted(zip(counted.first.tolist(), counted.sizes.tolist())) == sorted(
        (m[0], len(m)) for m in groups.values()
    )


def test_tane_admits_an_afd_at_exactly_epsilon():
    # g3(a -> b) = 1/4: one of the four rows must go.
    r = Relation.from_rows(
        SCHEMA, [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 3, 3), (2, 3, 4, 4)]
    )
    found = [str(d) for d in tane(r, max_lhs_size=1, epsilon=0.25)]
    assert "a ->_0.25 b (g3)" in found
    assert found == [str(d) for d in oracles.tane(r, 1, 0.25)]


@settings(max_examples=200, deadline=None)
@given(relations())
def test_cords_analyses_are_bit_identical(r):
    for a in cords(r).analyses:
        dom_x = oracles.distinct_count(r, [a.determinant])
        dom_xy = oracles.distinct_count(r, [a.determinant, a.dependent])
        strength = dom_x / dom_xy if len(r) else 1.0
        chi, dof = oracles.chi_square_statistic(r, a.determinant, a.dependent)
        assert a.strength.hex() == strength.hex()
        assert a.chi_square.hex() == chi.hex()
        assert a.degrees_of_freedom == dof


@settings(max_examples=100, deadline=None)
@given(relations(max_rows=40), st.integers(1, 6))
def test_chi_square_pools_the_infrequent_values(r, k):
    got = chi_square_statistic(r, "a", "b", max_categories=k)
    want = oracles.chi_square_statistic(r, "a", "b", max_categories=k)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


@settings(max_examples=200, deadline=None)
@given(relations(), st.sampled_from([1, 2]), st.sampled_from([1, 2, 3]))
def test_cfdminer_equals_the_linear_scan(r, max_lhs, support):
    got = discover_constant_cfds(r, min_support=support, max_lhs_size=max_lhs)
    want = oracles.discover_constant_cfds(r, support, max_lhs)
    assert _show(got) == _show(want)
    # Constants are the cells at the group's first row, type included.
    for g, w in zip(got, want, strict=True):
        assert [type(v) for v in g.pattern.entries().values()] == [
            type(v) for v in w.pattern.entries().values()
        ]


@settings(max_examples=300, deadline=None)
@given(relations(), cfds() | cfds(operators=True))
def test_cfd_counts_equal_the_row_scan(r, dep):
    count = dep.violation_count(r)
    assert count == oracles.cfd_violation_count(dep, r)
    assert count == len(dep.violations(r))


def test_ecfd_counts_every_group_its_operator_selects():
    r = Relation.from_rows(SCHEMA, [
        (1, "x", 0, 0), (1, "y", 0, 0), (2, "x", 0, 0), (2, "y", 0, 0),
        (5, "x", 0, 0), (5, "y", 0, 0),
    ])
    dep = ECFD(["a"], ["b"], {"a": ("<", 3)})
    assert dep.violation_count(r) == len(dep.violations(r)) == 2
    assert dep.violation_count(r) == oracles.cfd_violation_count(dep, r)


@settings(max_examples=300, deadline=None)
@given(relations(), sides, sides)
def test_fd_listing_holds_and_g3_equal_the_group_walk(r, lhs, rhs):
    dep = FD(lhs, rhs)
    got = [(v.tuples, v.reason) for v in dep.violations(r)]
    want = [(v.tuples, v.reason) for v in oracles.fd_violations(dep, r)]
    assert got == want
    assert dep.holds(r) == oracles.fd_holds(dep, r) == (not want)
    assert dep.violation_count(r) == len(want)
    g3 = AFD(lhs, rhs, 0.5).measure(r)
    assert g3.hex() == oracles.g3_error(dep, r).hex()


def test_fd_listing_follows_first_occurrence_of_two_attribute_groups():
    # Group (y, q) occurs before (x, q), though x's codes sort first.
    r = Relation.from_rows(SCHEMA, [
        ("x", "p", 1, 0), ("y", "q", 1, 0), ("x", "q", 1, 0),
        ("y", "q", 2, 0), ("x", "q", 2, 0),
    ])
    dep = FD(["a", "b"], ["c"])
    got = [v.tuples for v in dep.violations(r)]
    assert got == [v.tuples for v in oracles.fd_violations(dep, r)]
    assert got == [(1, 3), (2, 4)]


def test_second_tane_pass_reads_memoized_tables():
    r = Relation.from_rows(
        SCHEMA, [(i % 3, i % 2, i % 5, i // 4) for i in range(20)]
    )
    first = tane(r, max_lhs_size=2)
    second = tane(r, max_lhs_size=2)
    assert _show(first) == _show(second)
    assert first.stats.partitions_built > 0
    assert second.stats.partitions_built == 0
    assert second.stats.partition_cache_hits == (
        first.stats.partitions_built + first.stats.partition_cache_hits
    )


def test_cfdminer_table_fault_is_typed():
    r = Relation.from_rows(SCHEMA, [(1, 2, 3, 4), (1, 2, 3, 5)])
    with inject("partition", "exception", message="table lost"):
        with pytest.raises(EngineFault, match="table lost") as exc:
            discover_constant_cfds(r, min_support=2, max_lhs_size=1)
    assert exc.value.site == "partition"
