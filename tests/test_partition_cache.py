"""The relation-level partition/group cache shared by the engines."""

import pytest

from repro.datasets import random_relation
from repro.relation import StrippedPartition, cache_for


def test_partition_memoized_and_order_insensitive():
    r = random_relation(30, 3, domain_size=3, seed=3)
    cache = cache_for(r)
    a = cache.partition(["A0", "A1"])
    b = cache.partition(["A1", "A0"])
    assert a is b  # one build, both orders
    assert a == StrippedPartition.from_relation(r, ["A0", "A1"])
    assert cache.stats.hits == 1
    assert cache.stats.misses >= 1


def test_groups_memoized_order_sensitive_keys():
    r = random_relation(30, 2, domain_size=3, seed=4)
    cache = cache_for(r)
    g1 = cache.groups(["A0", "A1"])
    g2 = cache.groups(["A0", "A1"])
    assert g1 is g2
    assert g1 == r.group_by(["A0", "A1"])
    # Key tuples follow the requested attribute order, so reversed
    # requests are distinct entries (their keys differ).
    g3 = cache.groups(["A1", "A0"])
    assert g3 == r.group_by(["A1", "A0"])


def test_cache_is_per_relation_and_shared():
    r = random_relation(10, 2, domain_size=2, seed=5)
    assert cache_for(r) is cache_for(r)
    other = random_relation(10, 2, domain_size=2, seed=6)
    assert cache_for(r) is not cache_for(other)


def test_clear_resets_entries():
    r = random_relation(10, 2, domain_size=2, seed=7)
    cache = cache_for(r)
    cache.partition(["A0"])
    assert len(cache) >= 1
    cache.clear()
    assert len(cache) == 0


def test_engines_share_the_cache():
    # TANE reads the encoding's code tables; CFDMiner reads those and
    # this cache's group dicts.
    from repro.discovery import discover_constant_cfds, tane

    r = random_relation(40, 3, domain_size=3, seed=8)
    tane(r, max_lhs_size=2)
    tables = r.encoding().stats
    built = tables.misses
    result = tane(r, max_lhs_size=2)  # second run: all hits
    assert tables.misses == built
    assert result.stats.partition_cache_hits > 0
    cfd_result = discover_constant_cfds(r, max_lhs_size=2)
    assert cfd_result.stats.partition_cache_hits > 0


def test_cache_does_not_keep_its_relation_alive():
    # The cache refers back to its relation weakly (a strong reference
    # would make every cached relation a reference cycle), so a cache
    # that outlives its relation says so instead of building.
    cache = cache_for(random_relation(10, 2, domain_size=2, seed=9))
    with pytest.raises(ReferenceError):
        cache.groups(["A0"])
