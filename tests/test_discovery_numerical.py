"""Tests for OD, DC, SD/CSD discovery."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CSD, DC, OD, SD
from repro.datasets import ordered_workload
from repro.discovery import (
    build_predicate_space,
    discover_constant_dcs,
    discover_csd_tableau,
    discover_dcs,
    discover_dcs_approximate,
    discover_ods,
    discover_pairwise_ods,
    discover_sds,
    evidence_sets,
    fit_gap_interval,
    sd_confidence,
)
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime.budget import Budget, governed
from repro.runtime.errors import BudgetExhausted

from . import oracles


def numeric_relation(rows, names=("x", "y")):
    schema = Schema([Attribute(n, AttributeType.NUMERICAL) for n in names])
    return Relation.from_rows(schema, rows)


class TestODDiscovery:
    def test_pairwise_on_r7(self, r7):
        found = {str(d) for d in discover_pairwise_ods(r7)}
        assert "nights^<= -> avg/night^>=" in found
        assert "nights^<= -> subtotal^<=" in found

    def test_all_results_hold(self, r7):
        for dep in discover_pairwise_ods(r7):
            assert dep.holds(r7)
        for dep in discover_ods(r7):
            assert dep.holds(r7)

    def test_levelwise_minimality(self):
        r = numeric_relation(
            [(1, 1, 1), (2, 2, 2), (3, 3, 3)], names=("a", "b", "c")
        )
        found = discover_ods(r, max_lhs_size=2)
        # a^<= -> b^<= holds, so (a, c)^<= -> b^<= must not be emitted.
        lhss = {
            tuple(m.attribute for m in d.lhs)
            for d in found
            if d.rhs[0].attribute == "b" and d.rhs[0].mark == "<="
        }
        assert ("a",) in lhss
        assert ("a", "c") not in lhss

    def test_untyped_numeric_columns_detected(self):
        r = Relation.from_rows(["x", "y"], [(1, 2), (2, 3)])
        assert len(discover_pairwise_ods(r)) > 0


class TestDCDiscovery:
    def test_predicate_space_operators(self, r7):
        space = build_predicate_space(r7)
        ops = {p.op for p in space}
        assert ops == {"=", "!=", "<", "<=", ">", ">="}

    def test_evidence_sets_count_pairs(self, r7):
        space = build_predicate_space(r7)
        ev = evidence_sets(r7, space)
        assert sum(ev.values()) == len(r7) * (len(r7) - 1)

    def test_discovered_dcs_hold(self, r7):
        res = discover_dcs(r7, max_predicates=2)
        assert len(res) > 0
        for dc in res:
            assert dc.holds(r7)

    def test_paper_dc1_is_implied(self, r7):
        """dc1's predicate set must be (a superset of) a discovered
        minimal DC — FASTDC returns minimal covers only."""
        found = discover_dcs(r7, max_predicates=2)
        target = {("subtotal", "<"), ("taxes", ">")}
        assert any(
            {(p.lhs_attribute, p.op) for p in dc.predicates} <= target
            for dc in found
        )

    def test_minimality(self, r7):
        found = list(discover_dcs(r7, max_predicates=3))
        sets = [frozenset(dc.predicates) for dc in found]
        for a in sets:
            for b in sets:
                assert a is b or not (a < b)

    def test_approximate_admits_noisy_rules(self):
        rows = [(k, 10 * k) for k in range(10)]
        rows[3] = (3, 9999)  # one glitch
        r = numeric_relation(rows)
        exact = discover_dcs(r, max_predicates=2)
        target = {("x", "<"), ("y", ">=")}

        def contains_target(result):
            return any(
                {(p.lhs_attribute, p.op) for p in dc.predicates}
                <= target
                for dc in result
            )

        approx = discover_dcs_approximate(r, epsilon=0.1, max_predicates=2)
        assert contains_target(approx)
        assert not contains_target(exact)

    def test_constant_dcs(self):
        r = Relation.from_rows(
            ["region", "tier"],
            [("NY", "gold"), ("NY", "gold"), ("SF", "silver"),
             ("SF", "silver")],
        )
        found = discover_constant_dcs(r, min_frequency=2)
        # NY never co-occurs with silver: ¬(region=NY ∧ tier=silver).
        assert any(
            {("region", "NY"), ("tier", "silver")}
            == {(p.lhs_attribute, p.constant) for p in dc.predicates}
            for dc in found
        )
        for dc in found:
            assert dc.holds(r)


class TestSDDiscovery:
    def test_confidence_on_clean_series(self, r7):
        assert sd_confidence(r7, SD("nights", "subtotal", (100, 200))) == 1.0

    def test_fit_gap_interval(self, r7):
        gap = fit_gap_interval(r7, "nights", "subtotal")
        assert gap.low == 160.0 and gap.high == 180.0
        assert SD("nights", "subtotal", gap).holds(r7)

    def test_discover_sds_on_r7(self, r7):
        found = {str(d) for d in discover_sds(r7)}
        assert any("nights ->" in s and "subtotal" in s for s in found)

    def test_discovered_sds_hold(self, r7):
        for dep in discover_sds(r7):
            assert dep.holds(r7)

    def test_confidence_obeys_the_deadline(self):
        # 6k rows: the O(n²) confidence pass takes seconds unpolled.
        r = numeric_relation([(i, (i * 7919) % 6000) for i in range(6000)])
        sd = SD("x", "y", (0, 10))
        start = time.perf_counter()
        with pytest.raises(BudgetExhausted):
            with governed(Budget(deadline_s=0.2)):
                sd.confidence(r)
        assert time.perf_counter() - start < 0.6

    def test_discovery_returns_partial_at_the_deadline(self):
        r = numeric_relation(
            [(i, (i * 37) % 50, i % 7) for i in range(50)],
            names=("x", "y", "z"),
        )
        with governed(Budget(deadline_s=0.05)):
            time.sleep(0.06)
            result = discover_sds(r)
        assert not result.complete
        assert result.stats.exhausted == "deadline"

    def test_csd_tableau_on_glitched_series(self):
        w = ordered_workload(40, glitch_rate=0.1, seed=3)
        sd = SD("t", "value", (0, 50))
        assert not sd.holds(w.relation)
        csd = discover_csd_tableau(w.relation, sd, min_confidence=1.0)
        assert csd is not None
        assert csd.holds(w.relation)
        # The tableau must cover a substantial part of the series.
        covered = sum(
            1
            for i in range(len(w.relation))
            if any(
                iv.contains(float(w.relation.value_at(i, "t")))
                for iv in csd.intervals
            )
        )
        assert covered >= len(w.relation) // 2

    def test_csd_tableau_full_when_sd_holds(self, r7):
        sd = SD("nights", "subtotal", (100, 200))
        csd = discover_csd_tableau(r7, sd)
        assert csd is not None
        assert len(csd.intervals) == 1

    def test_csd_none_when_nothing_qualifies(self):
        r = numeric_relation([(1, 100), (2, 0), (3, 100), (4, 0)])
        sd = SD("x", "y", (0, 1))
        assert discover_csd_tableau(r, sd) is None

    def test_csd_rejects_multi_lhs(self, r7):
        sd = SD(["nights", "taxes"], "subtotal", (0, 1000))
        with pytest.raises(ValueError):
            discover_csd_tableau(r7, sd)


#: Cells with ties, repeats and holes: X ties make the sort order
#: matter, equal Y values make zero gaps, ``None`` drops a row.
SD_CELL = st.sampled_from([0, 1, 2, 2.5, 3, -1, None])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(*[SD_CELL | st.sampled_from([math.nan, math.inf])] * 3),
        min_size=0,
        max_size=12,
    ),
    st.sampled_from([0.5, 1.0]) | st.floats(0.1, 1.0),
)
def test_discover_sds_matches_the_confidence_path(rows, span):
    """Every fitted gap holds with confidence 1 (ties in X, equal Y,
    ``None``, NaN and infinite cells alike), so discovery keeps each
    fit its span filter passes, exactly the SDs the DP verifies."""
    r = numeric_relation(rows, names=("x", "y", "z"))
    for lhs, rhs in itertools.permutations(("x", "y", "z"), 2):
        sd = SD(lhs, rhs, fit_gap_interval(r, lhs, rhs))
        assert sd.holds(r)
        assert sd.confidence(r) == 1.0
    assert [repr(d) for d in discover_sds(r, max_relative_span=span)] == [
        repr(d) for d in oracles.discover_sds(r, span)
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(SD_CELL, SD_CELL), min_size=0, max_size=12),
    st.sampled_from(
        [(0, None), (None, 0), (0, 0), (1, 3), (-1, 1), (None, None)]
    ),
)
def test_sd_confidence_is_one_exactly_when_it_holds(rows, gap):
    r = numeric_relation(rows)
    sd = SD("x", "y", gap)
    assert (sd.confidence(r) == 1.0) == sd.holds(r)
