"""Substrate micro-benchmarks: the primitives everything rests on.

Not a paper figure — performance coverage for the building blocks, so
regressions in the partitions/metrics show up in the harness.

The ``TestEncodedSpeedup`` block additionally measures the
dictionary-encoded substrate against the value-tuple reference
implementations (``tests/oracles.py``, and FastFD's value-tuple
fallback for difference sets) on 1k-row generator workloads, asserts
the ≥3× contract, and writes the measurements to
``BENCH_substrate.json`` at the repo root.
"""

import json
import time
from pathlib import Path

import pytest

from repro.datasets import fd_workload, random_relation
from repro.discovery.fastfd import _difference_sets_naive, difference_sets
from repro.metrics import levenshtein
from repro.relation import StrippedPartition
from tests import oracles


@pytest.fixture(scope="module")
def wide():
    return random_relation(2000, 4, domain_size=50, seed=1)


def test_partition_build(benchmark, wide):
    pi = benchmark(
        lambda: StrippedPartition.from_relation(wide, ["A0"])
    )
    assert pi.n == 2000


def test_group_by(benchmark, wide):
    groups = benchmark(lambda: wide.group_by(["A0", "A1"]))
    assert sum(len(g) for g in groups.values()) == len(wide)


def test_levenshtein_medium_strings(benchmark):
    a = "No.5, Central Park, New York City"
    b = "#5 Central Park, NYC"
    d = benchmark(lambda: levenshtein(a, b))
    assert d > 0


def test_levenshtein_bounded_early_exit(benchmark):
    a = "a" * 60
    b = "b" * 60
    d = benchmark(lambda: levenshtein(a, b, bound=3))
    assert d == 4  # bound + 1


# -- encoded-vs-naive speedup contract ----------------------------------------

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"

#: The acceptance floor: the encoded substrate must beat the value-tuple
#: reference implementations by at least this factor on the 1k-row
#: workloads.
MIN_SPEEDUP = 3.0


def _best_of(fn, repeat=5, number=10):
    """Minimum per-call time over ``repeat`` batches of ``number`` calls."""
    fn()  # warm caches/encodings out of the measured region
    times = []
    for __ in range(repeat):
        start = time.perf_counter()
        for __ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return min(times)


def _fresh_workload():
    return fd_workload(1000, 50, seed=7).relation


def _record(results, name, naive_s, encoded_s):
    results[name] = {
        "naive_ms": round(naive_s * 1e3, 4),
        "encoded_ms": round(encoded_s * 1e3, 4),
        "speedup": round(naive_s / encoded_s, 1),
    }


@pytest.fixture(scope="class")
def speedups():
    """Measure every primitive once, then let the tests assert slices."""
    results = {}
    r = _fresh_workload()
    attrs = ["code", "city"]

    t_naive = _best_of(lambda: oracles.group_by(r, attrs))
    t_enc = _best_of(lambda: r.group_by(attrs))
    assert r.group_by(attrs) == oracles.group_by(r, attrs)
    _record(results, "group_by", t_naive, t_enc)

    t_naive = _best_of(lambda: oracles.stripped_partition(r, attrs))
    t_enc = _best_of(lambda: StrippedPartition.from_relation(r, attrs))
    assert StrippedPartition.from_relation(r, attrs) == (
        oracles.stripped_partition(r, attrs)
    )
    _record(results, "partition_build", t_naive, t_enc)

    t_naive = _best_of(lambda: oracles.distinct_count(r, attrs), number=20)
    t_enc = _best_of(lambda: r.distinct_count(attrs), number=20)
    assert r.distinct_count(attrs) == oracles.distinct_count(r, attrs)
    _record(results, "distinct_count", t_naive, t_enc)

    # FastFD difference sets are pair-quadratic: one naive timing only.
    w = random_relation(1000, 4, domain_size=8, seed=9)
    start = time.perf_counter()
    d_naive = _difference_sets_naive(w)
    t_naive = time.perf_counter() - start
    t_enc = _best_of(lambda: difference_sets(w), repeat=3, number=1)
    assert difference_sets(w) == d_naive
    _record(results, "difference_sets", t_naive, t_enc)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "workload": "fd_workload(1000, 50) / random_relation(1000, 4)",
                "rows": 1000,
                "min_speedup": MIN_SPEEDUP,
                "results": results,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return results


class TestEncodedSpeedup:
    """The ≥3× contract of the dictionary-encoded substrate."""

    def test_group_by_speedup(self, speedups):
        assert speedups["group_by"]["speedup"] >= MIN_SPEEDUP

    def test_partition_build_speedup(self, speedups):
        assert speedups["partition_build"]["speedup"] >= MIN_SPEEDUP

    def test_difference_sets_speedup(self, speedups):
        assert speedups["difference_sets"]["speedup"] >= MIN_SPEEDUP

    def test_distinct_count_speedup(self, speedups):
        assert speedups["distinct_count"]["speedup"] >= MIN_SPEEDUP

    def test_trajectory_file_written(self, speedups):
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        assert payload["min_speedup"] == MIN_SPEEDUP
        assert set(payload["results"]) >= {
            "group_by",
            "partition_build",
            "difference_sets",
            "distinct_count",
        }
