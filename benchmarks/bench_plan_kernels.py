"""Plan-kernel speedup contract: pruned + vectorized vs the scans.

Two ladders, one file:

* **n ∈ {500, 2000}** — the original contract: the plan kernels
  (whatever backend ``auto`` picks) against the reference quadratic
  scan of ``tests/oracles.py``, bit-identical violations, **≥3× at
  n=2000** and no regression at n=500.
* **n ∈ {10⁴}** (plus **10⁵** when ``REPRO_BENCH_FULL=1``) — the
  vectorized-backend contract: the columnar kernels of
  ``repro.plan.kernels_vec`` against the scalar plan kernels on the
  same relations, **≥10× at n=10⁴** for DD/MD/OD.  The reference scan
  is not timed here (50M+ Python pair probes); parity at these sizes is
  scalar-plan vs vectorized-plan, with the oracle covered by the
  hypothesis suites (``test_plan_parity``, ``test_vector_parity``).

Every measurement lands in ``BENCH_plan.json`` at the repo root
(uploaded as a CI artifact) together with the backend that actually
ran and the per-strategy candidate/verified counter deltas.

Workloads are correlated (RHS mostly follows LHS) so the timing
reflects candidate-space pruning rather than violation construction,
which both paths share; the order workload carries 50-row tie blocks —
the duplicate-key regime where the scalar sweep must brute-force ties
pair by pair while the vectorized backend masks them wholesale.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.heterogeneous.dd import DD
from repro.core.heterogeneous.md import MD
from repro.core.numerical.od import OD
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime import execution
from tests import oracles

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_plan.json"

#: Acceptance floor at n=2000: pruned kernels must beat the scan by this.
MIN_SPEEDUP = 3.0
#: Acceptance floor at n=10⁴: vectorized must beat scalar plan by this.
MIN_VEC_SPEEDUP = 10.0

SIZES = (500, 2000)
LARGE_SIZES = (
    (10_000, 100_000) if os.environ.get("REPRO_BENCH_FULL") else (10_000,)
)


def metric_workload(n: int, seed: int = 3) -> Relation:
    """Quantized A0 with A1 ≈ 2·A0 and A2 = A0 // 64.

    Quantization keeps the metric-blocking bucket count small against
    n (the distinct count scales as n/50 past 10⁴ so per-bucket blocks
    stay bounded); the correlations keep DD/MD violations sparse —
    A0-similar pairs disagree on A2 only across the rare //64
    boundaries, so the timing measures candidate evaluation, not
    violation-object construction (which both backends share).
    """
    rng = random.Random(seed)
    distinct = max(200, n // 50)
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(3)]
    )
    rows = []
    for __ in range(n):
        a = rng.randrange(distinct)
        rows.append((a, 2 * a + rng.randrange(4), a // 64))
    return Relation.from_rows(schema, rows)


def order_workload(n: int) -> Relation:
    """50-row tie blocks on A0, A1 flat per block with sparse dips.

    Equal ordering keys make every within-block pair a sweep candidate
    (the duplicate-timestamp regime); the rare dips every 701 rows are
    the only actual order violations.
    """
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(2)]
    )
    rows = []
    for i in range(n):
        a = float(i // 50)
        rows.append((a, a if i % 701 else a - 3.0))
    return Relation.from_rows(schema, rows)


CASES = {
    "DD": (
        lambda: DD({"A0": ("<=", 1.0)}, {"A1": ("<=", 6.0)}),
        metric_workload,
        "metric-blocking",
    ),
    "MD": (
        lambda: MD({"A0": 1.0}, ["A2"]),
        metric_workload,
        "metric-blocking",
    ),
    "OD": (
        lambda: OD([("A0", "<=")], [("A1", "<=")]),
        order_workload,
        "sorted-sweep",
    ),
}


def _snapshot(dep, relation):
    return [(v.tuples, v.reason) for v in dep.violations(relation)]


def _timed_counted(fn):
    """(seconds, result, the run's kernel counters) for one measured run."""
    with execution() as scope:
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
    run = scope.counters
    counters = {
        "backends": run.backends(),
        "by_strategy": dict(run.by_strategy),
        "candidates_by_strategy": dict(run.candidates_by_strategy),
        "verified_by_strategy": dict(run.verified_by_strategy),
        "chunks": run.chunks,
    }
    return elapsed, out, counters


def _dominant_backend(counters) -> str:
    backends = counters["backends"]
    if not backends:
        return "none"
    return max(backends, key=lambda k: backends[k])


@pytest.fixture(scope="module")
def speedups():
    """Time every case once, check parity, persist the trajectory."""
    results = {}
    for kind, (make, workload, strategy) in CASES.items():
        for n in SIZES:
            relation = workload(n)
            dep = make()
            t_plan, got, counters = _timed_counted(
                lambda: _snapshot(dep, relation)
            )
            t_naive, expected, __ = _timed_counted(
                lambda: oracles.violations(dep, relation)
            )
            assert got == expected, f"plan/oracle divergence for {kind}"
            results[f"{kind}@{n}"] = {
                "kind": kind,
                "n": n,
                "strategy": strategy,
                "backend": _dominant_backend(counters),
                "baseline": "naive-scan",
                "naive_ms": round(t_naive * 1e3, 2),
                "plan_ms": round(t_plan * 1e3, 2),
                "speedup": round(t_naive / t_plan, 1),
                "violations": len(got),
                "counters": counters,
            }
        for n in LARGE_SIZES:
            relation = workload(n)
            dep = make()
            with execution(backend="scalar"):
                t_scalar, expected, __ = _timed_counted(
                    lambda: _snapshot(dep, relation)
                )
            dep = make()
            with execution(backend="vector"):
                t_vec, got, counters = _timed_counted(
                    lambda: _snapshot(dep, relation)
                )
            assert got == expected, f"scalar/vector divergence for {kind}"
            assert counters["backends"].get("vectorized"), (
                f"{kind}@{n} did not run vectorized"
            )
            results[f"{kind}@{n}"] = {
                "kind": kind,
                "n": n,
                "strategy": strategy,
                "backend": _dominant_backend(counters),
                "baseline": "scalar-plan",
                "scalar_plan_ms": round(t_scalar * 1e3, 2),
                "vector_plan_ms": round(t_vec * 1e3, 2),
                "speedup": round(t_scalar / t_vec, 1),
                "violations": len(got),
                "counters": counters,
            }
    BENCH_JSON.write_text(
        json.dumps(
            {
                "workload": (
                    "correlated metric / tie-blocked order"
                ),
                "sizes": list(SIZES) + list(LARGE_SIZES),
                "min_speedup_at_2000": MIN_SPEEDUP,
                "min_vec_speedup_at_10000": MIN_VEC_SPEEDUP,
                "results": results,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return results


class TestPlanKernelSpeedup:
    """The ≥3× contract of the pruned kernels at n=2000."""

    def test_dd_metric_blocking_speedup(self, speedups):
        assert speedups["DD@2000"]["speedup"] >= MIN_SPEEDUP

    def test_md_metric_blocking_speedup(self, speedups):
        assert speedups["MD@2000"]["speedup"] >= MIN_SPEEDUP

    def test_od_sorted_sweep_speedup(self, speedups):
        assert speedups["OD@2000"]["speedup"] >= MIN_SPEEDUP

    def test_small_n_no_regression(self, speedups):
        """At n=500 the kernels must at least not lose to the scan."""
        for key in ("DD@500", "MD@500", "OD@500"):
            assert speedups[key]["speedup"] >= 1.0, key


class TestVectorBackendSpeedup:
    """The ≥10× contract of the columnar backend at n=10⁴."""

    def test_dd_vectorized_speedup(self, speedups):
        assert speedups["DD@10000"]["speedup"] >= MIN_VEC_SPEEDUP

    def test_md_vectorized_speedup(self, speedups):
        assert speedups["MD@10000"]["speedup"] >= MIN_VEC_SPEEDUP

    def test_od_vectorized_speedup(self, speedups):
        assert speedups["OD@10000"]["speedup"] >= MIN_VEC_SPEEDUP

    def test_backend_recorded(self, speedups):
        for n in LARGE_SIZES:
            for kind in CASES:
                entry = speedups[f"{kind}@{n}"]
                assert entry["backend"] == "vectorized", entry
                assert entry["counters"]["chunks"] > 0, entry

    def test_trajectory_file_written(self, speedups):
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        assert payload["min_speedup_at_2000"] == MIN_SPEEDUP
        assert payload["min_vec_speedup_at_10000"] == MIN_VEC_SPEEDUP
        expected = {f"{kind}@{n}" for kind in CASES for n in SIZES}
        expected |= {f"{kind}@{n}" for kind in CASES for n in LARGE_SIZES}
        assert set(payload["results"]) == expected
        for entry in payload["results"].values():
            assert "backend" in entry
            assert "candidates_by_strategy" in entry["counters"]
            assert "verified_by_strategy" in entry["counters"]
