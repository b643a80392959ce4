"""Tests for CFD discovery (CFDMiner/CTANE-lite/greedy tableau) and MVDs."""

import pytest

from repro.core import CFD, FD, MVD
from repro.datasets import random_relation
from repro.discovery import (
    candidate_patterns,
    discover_constant_cfds,
    discover_general_cfds,
    discover_mvds_bottomup,
    discover_mvds_topdown,
    greedy_tableau,
    pattern_confidence,
)
from repro.relation import Relation


@pytest.fixture
def conditioned():
    """region 'uk': zip -> street holds; region 'us': it does not."""
    return Relation.from_rows(
        ["region", "zip", "street"],
        [
            ("uk", "z1", "high st"),
            ("uk", "z1", "high st"),
            ("uk", "z2", "low st"),
            ("us", "z1", "main st"),
            ("us", "z1", "wall st"),
        ],
    )


class TestConstantCFDs:
    def test_constant_rules_found(self, r5):
        found = discover_constant_cfds(r5, min_support=2, max_lhs_size=1)
        rendered = {str(d) for d in found}
        assert any("'Jackson'" in s for s in rendered)

    def test_discovered_cfds_hold(self, r5, conditioned):
        for rel in (r5, conditioned):
            for dep in discover_constant_cfds(rel, min_support=2):
                assert dep.holds(rel)

    def test_support_respected(self, conditioned):
        for dep in discover_constant_cfds(conditioned, min_support=2):
            matches = dep.matching_indices(conditioned)
            assert len(matches) >= 2

    def test_patterns_list_lhs_then_rhs(self):
        # A pattern's entries, and so its repr, follow the rule's LHS
        # order, not a hashed set's iteration order (which changes with
        # the process's string hashing).
        r = random_relation(150, 5, domain_size=6, seed=3)
        found = discover_constant_cfds(r, min_support=2, max_lhs_size=2)
        assert sum(len(dep.lhs) == 2 for dep in found) >= 20
        for dep in found:
            assert list(dep.pattern.entries()) == [*dep.lhs, *dep.rhs]

    def test_minimality_no_redundant_superpattern(self, conditioned):
        found = discover_constant_cfds(conditioned, min_support=2,
                                       max_lhs_size=2)
        items = [
            (dep.rhs[0], frozenset(dep.pattern.constants().items())
             - {(dep.rhs[0], dep.pattern.constants().get(dep.rhs[0]))})
            for dep in found
        ]
        for rhs, lhs_items in items:
            for rhs2, lhs2 in items:
                if rhs == rhs2 and lhs_items != lhs2:
                    assert not (lhs2 < lhs_items)


class TestGeneralCFDs:
    def test_finds_conditioned_fd(self, conditioned):
        found = discover_general_cfds(conditioned, min_support=2)
        assert any(
            d.pattern.constants().get("region") == "uk"
            and d.rhs == ("street",)
            and "zip" in d.lhs
            for d in found
        )

    def test_plain_fd_reported_when_it_holds(self):
        r = Relation.from_rows(
            ["a", "b", "c"], [(1, 2, 1), (1, 2, 2), (3, 4, 1)]
        )
        found = discover_general_cfds(r, min_support=2)
        assert any(
            d.pattern.is_pure_wildcard(d.lhs + d.rhs)
            and d.lhs == ("a",) and d.rhs == ("b",)
            for d in found
        )

    def test_all_results_hold(self, conditioned):
        for dep in discover_general_cfds(conditioned, min_support=2):
            assert dep.holds(conditioned)


class TestGreedyTableau:
    def test_covers_conditioned_subset(self, conditioned):
        # Condition on region (part of the embedded FD's LHS): the
        # 'uk' row covers 3/5 tuples at confidence 1.
        fd = FD(["region", "zip"], "street")
        tab = greedy_tableau(
            conditioned, fd, support_target=0.5, min_confidence=1.0
        )
        assert tab.holds(conditioned)
        assert tab.support(conditioned) >= 0.5

    def test_pure_wildcard_used_when_fd_holds(self, conditioned):
        fd = FD(["region", "zip"], "street")
        sub = conditioned.take([0, 1, 2])
        tab = greedy_tableau(sub, fd, support_target=0.9)
        assert tab.support(sub) == 1.0
        assert len(tab) == 1  # the all-wildcard row suffices

    def test_confidence_gate(self, conditioned):
        fd = FD("zip", "street")
        # With confidence 1.0, no pattern covering the 'us' rows is
        # allowed (zip z1 maps to two streets there).
        tab = greedy_tableau(
            conditioned, fd, support_target=1.0, min_confidence=1.0
        )
        covered = set()
        for row in tab:
            covered.update(row.matching_indices(conditioned))
        assert not ({3, 4} <= covered)

    def test_pattern_confidence(self, conditioned):
        perfect = CFD(["region", "zip"], "street", {"region": "uk"})
        assert pattern_confidence(conditioned, perfect) == 1.0
        broken = CFD(["region", "zip"], "street", {"region": "us"})
        assert pattern_confidence(conditioned, broken) < 1.0

    def test_candidate_patterns_include_wildcard(self, conditioned):
        fd = FD("zip", "street")
        pats = candidate_patterns(conditioned, fd, max_constants=1)
        assert any(p.is_pure_wildcard(("zip",)) for p in pats)

    def test_empty_relation(self):
        r = Relation.empty(["a", "b"])
        tab = greedy_tableau(r, FD("a", "b"))
        assert len(tab) == 0


class TestMVDDiscovery:
    def test_topdown_results_hold(self, r5):
        for dep in discover_mvds_topdown(r5):
            assert dep.holds(r5)

    def test_strategies_agree(self):
        for seed in range(6):
            r = random_relation(10, 4, domain_size=2, seed=seed)
            top = {str(d) for d in discover_mvds_topdown(r)}
            bottom = {str(d) for d in discover_mvds_bottomup(r)}
            assert top == bottom

    def test_paper_mvd_found(self, r5):
        found = {str(d) for d in discover_mvds_topdown(r5)}
        # address, rate ->> region holds; a more general LHS subset
        # version may subsume it — verify it's implied by the output.
        target = MVD(["address", "rate"], "region")
        assert target.holds(r5)
        assert any("region" in s for s in found)

    def test_minimality(self):
        r = random_relation(12, 4, domain_size=2, seed=9)
        found = discover_mvds_topdown(r).dependencies
        for a in found:
            for b in found:
                if a is not b and set(a.rhs) == set(b.rhs):
                    assert not (set(a.lhs) < set(b.lhs))
