"""Unit tests for stripped partitions (TANE's data structure)."""

import pytest

from repro.datasets import random_relation
from repro.relation import Relation, StrippedPartition


@pytest.fixture
def rel():
    # a: [1,1,2,2,3]  b: [x,x,x,y,y]
    return Relation.from_rows(
        ["a", "b"],
        [(1, "x"), (1, "x"), (2, "x"), (2, "y"), (3, "y")],
    )


class TestBasics:
    def test_singletons_stripped(self, rel):
        pi_a = StrippedPartition.from_relation(rel, ["a"])
        assert pi_a.num_classes == 2  # {0,1} and {2,3}; singleton {4} gone
        assert pi_a.stripped_size == 4

    def test_rank_counts_all_classes(self, rel):
        pi_a = StrippedPartition.from_relation(rel, ["a"])
        assert pi_a.rank == 3  # |dom(a)|
        assert pi_a.rank == rel.distinct_count(["a"])

    def test_error(self, rel):
        pi_a = StrippedPartition.from_relation(rel, ["a"])
        assert pi_a.error() == 2  # 4 stripped tuples - 2 classes

    def test_empty_relation(self):
        r = Relation.empty(["a"])
        pi = StrippedPartition.from_relation(r, ["a"])
        assert pi.rank == 0


class TestRefinesAndFD:
    def test_rank_equality_criterion(self):
        from repro.core import FD

        for seed in range(15):
            r = random_relation(15, 3, domain_size=3, seed=seed)
            pi_x = StrippedPartition.from_relation(r, ["A0"])
            pi_xy = StrippedPartition.from_relation(r, ["A0", "A1"])
            assert (pi_x.rank == pi_xy.rank) == FD("A0", "A1").holds(r)


class TestHashing:
    def test_equal_partitions_hash_equal(self):
        # Regression: __eq__ without __hash__ made partitions unhashable
        # as dataclass-style value objects; hashing must be structural.
        for seed in range(10):
            r = random_relation(20, 3, domain_size=3, seed=seed)
            a = StrippedPartition.from_relation(r, ["A0", "A1"])
            b = StrippedPartition.from_relation(r, ["A1", "A0"])
            assert a == b
            assert hash(a) == hash(b)

    def test_usable_in_sets_and_dicts(self):
        r = random_relation(20, 3, domain_size=3, seed=0)
        a = StrippedPartition.from_relation(r, ["A0"])
        b = StrippedPartition.from_relation(r, ["A0"])
        c = StrippedPartition.from_relation(r, ["A0", "A1"])
        pool = {a, b, c}
        assert len(pool) <= 2
        index = {a: "x"}
        assert index[b] == "x"

    def test_class_order_does_not_change_hash(self):
        a = StrippedPartition(4, [[0, 1], [2, 3]])
        b = StrippedPartition(4, [[2, 3], [0, 1]])
        assert a == b
        assert hash(a) == hash(b)
