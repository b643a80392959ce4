"""Sharded-checking speedup contract: workers=4 vs the serial executor.

One pairwise workload per strategy family — group-partition (MFD),
sorted-sweep (OD) and metric blocking (MD) — each checked twice,
``workers=1`` and ``workers=4``, the fan-out forking its four shards
after the job is bound.  MFD and OD run at n=10⁵ under both kernel
backends, the numeric MD under the vectorized one.  A text-metric MD
(edit distance on a name column, which the vectorized binder refuses)
runs on the scalar backend at n=4·10⁴, sized so its serial run stays
near 20 s on a 2-vCPU VM: verify-heavy scalar rules are the regime
that keeps ``--workers``.

Two contracts, enforced at different strictness depending on the
machine this runs on and the backend (recorded in the artifact):

* **Order identity — always.**  The merged ``workers=4`` violation
  list must be byte-identical to the serial one, on any machine and
  backend, including single-core CI runners where the fan-out is pure
  overhead.
* **Speedup — scalar backend, only where cores exist.**  With ≥4
  usable cores the 4-worker scalar run must beat serial by ≥2.5×; with
  2–3 cores by ≥1.3×; on a single core the floor is waived (four
  processes time-slicing one core cannot win).  Vector-backend cases
  are informational: the serial vectorized kernels already run in
  numpy, and forking four processes that each rebuild the kernel
  caches costs more than the sharding saves (below 1× on two cores,
  see the artifact), which is why the server never fans out.

Every measurement lands in ``BENCH_parallel.json`` at the repo root
(uploaded as a CI artifact) with the usable-core count and which
contract tier actually applied.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.mfd import MFD
from repro.core.numerical.od import OD
from repro.plan import pairwise_violations
from repro.plan.parallel import last_run
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime import execution

from _harness import format_rows, write_artifact

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

N = 100_000
#: Rows of the text-metric MD case (its cost grows with the square of
#: the distinct names, which grow with n).
N_TEXT = 40_000
WORKERS = 4
#: Acceptance floor with >= 4 usable cores.
MIN_SPEEDUP = 2.5
#: Relaxed floor with 2-3 usable cores (sharding still must pay).
MIN_SPEEDUP_2CORE = 1.3


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def group_workload(n: int, seed: int = 17) -> Relation:
    """~50-row groups on C; B breaks the MFD tolerance sparsely."""
    rng = random.Random(seed)
    schema = Schema(
        [Attribute("B", AttributeType.NUMERICAL),
         Attribute("C", AttributeType.NUMERICAL)]
    )
    groups = max(200, n // 50)
    rows = []
    for i in range(n):
        c = rng.randrange(groups)
        rows.append((float(c) + (3.0 if i % 977 == 0 else rng.random()), c))
    return Relation.from_rows(schema, rows)


def order_workload(n: int) -> Relation:
    """50-row tie blocks on A0; sparse dips violate the order."""
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(2)]
    )
    rows = []
    for i in range(n):
        a = float(i // 50)
        rows.append((a, a if i % 701 else a - 3.0))
    return Relation.from_rows(schema, rows)


def metric_workload(n: int, seed: int = 3) -> Relation:
    """Quantized A0, A2 = A0 // 64: bounded metric-blocking buckets."""
    rng = random.Random(seed)
    distinct = max(200, n // 50)
    schema = Schema(
        [Attribute("A0", AttributeType.NUMERICAL),
         Attribute("A2", AttributeType.NUMERICAL)]
    )
    rows = []
    for __ in range(n):
        a = rng.randrange(distinct)
        rows.append((a, a // 64))
    return Relation.from_rows(schema, rows)


def text_workload(n: int, seed: int = 29) -> Relation:
    """~50-row name groups; C follows the name except sparse slips."""
    rng = random.Random(seed)
    names = max(200, n // 50)
    schema = Schema(
        [Attribute("name", AttributeType.TEXT),
         Attribute("C", AttributeType.NUMERICAL)]
    )
    rows = []
    for i in range(n):
        k = rng.randrange(names)
        rows.append((f"name{k:05d}", k if i % 613 else k + 1))
    return Relation.from_rows(schema, rows)


CASES = {
    "MFD/group": (
        lambda: MFD(["C"], ["B"], 1.0), group_workload, "scalar", N,
    ),
    "OD/sweep": (
        lambda: OD([("A0", "<=")], [("A1", "<=")]), order_workload,
        "scalar", N,
    ),
    "MD/text-metric": (
        lambda: MD({"name": 0.8}, ["C"]), text_workload, "scalar", N_TEXT,
    ),
    "MFD/vec-group": (
        lambda: MFD(["C"], ["B"], 1.0), group_workload, "vector", N,
    ),
    "OD/vec-sweep": (
        lambda: OD([("A0", "<=")], [("A1", "<=")]), order_workload,
        "vector", N,
    ),
    "MD/vec-blocks": (
        lambda: MD({"A0": 1.0}, ["A2"]), metric_workload, "vector", N,
    ),
}


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


@pytest.fixture(scope="module")
def measurements():
    cores = usable_cores()
    results = {}
    for name, (make, workload, backend, n) in CASES.items():
        relation = workload(n)
        dep = make()
        with execution(backend=backend):
            t1, serial = _timed(lambda: pairwise_violations(dep, relation))
            t4, merged = _timed(
                lambda: pairwise_violations(dep, relation, workers=WORKERS)
            )
        run = last_run()
        assert run is not None and run["workers"] == WORKERS, (
            f"{name}: the {WORKERS}-worker run fell back to serial"
        )
        assert [str(v) for v in merged] == [str(v) for v in serial], (
            f"{name}: workers={WORKERS} diverged from the serial order"
        )
        results[name] = {
            "n": n,
            "backend": backend,
            "strategy": run["strategy"],
            "workers": run["workers"],
            "serial_ms": round(t1 * 1e3, 2),
            "workers4_ms": round(t4 * 1e3, 2),
            "speedup": round(t1 / t4, 2),
            "violations": len(serial),
        }
    if cores >= WORKERS:
        tier = f"enforced on scalar cases (>= {MIN_SPEEDUP}x)"
    elif cores >= 2:
        tier = (
            f"relaxed on scalar cases (>= {MIN_SPEEDUP_2CORE}x at "
            f"{cores} cores)"
        )
    else:
        tier = "waived (single core: order identity only)"
    tier += "; vector cases informational"
    payload = {
        "workload": (
            f"n={N} pairwise checks (text-metric MD n={N_TEXT}), "
            f"workers=1 vs workers={WORKERS}"
        ),
        "usable_cores": cores,
        "speedup_contract": tier,
        "results": results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    rows = [
        [name, r["n"], r["strategy"], r["serial_ms"], r["workers4_ms"],
         f"{r['speedup']}x", r["violations"]]
        for name, r in results.items()
    ]
    write_artifact(
        "parallel_checking",
        f"usable cores: {cores}   contract: {tier}\n\n"
        + format_rows(
            ["case", "n", "strategy", "serial ms", "4-worker ms",
             "speedup", "violations"],
            rows,
        ),
    )
    return payload


def test_order_identity_and_fanout(measurements):
    """Parity asserted during measurement; every case truly fanned out."""
    for name, r in measurements["results"].items():
        assert r["workers"] == WORKERS, f"{name} did not fan out"


def test_speedup_contract(measurements):
    """The floor binds the scalar backend only: that is where sharding
    pays, and where ``repro check --workers N`` is worth asking for."""
    cores = measurements["usable_cores"]
    if cores < 2:
        pytest.skip("single usable core: speedup floor waived")
    floor = MIN_SPEEDUP if cores >= WORKERS else MIN_SPEEDUP_2CORE
    for name, r in measurements["results"].items():
        if r["backend"] != "scalar":
            continue
        assert r["speedup"] >= floor, (
            f"{name}: {r['speedup']}x below the {floor}x floor "
            f"({cores} cores)"
        )
