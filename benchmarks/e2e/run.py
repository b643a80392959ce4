"""End-to-end benchmark: ``repro check``, durable ingest, discovery jobs.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload check-100k --seed 1 \\
        --seconds 15 --trace 0

One invocation generates the workload's inputs from ``--seed``, drives
the program through its user entry points (``python -m repro check``
subprocesses, or one ``python -m repro serve --port 0 --data-dir D``
subprocess with every other flag at its default), measures for
``--seconds``, checks the outputs, and prints each metric by name with
its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A results file with
the per-layer breakdown and a machine fingerprint is written under
``.e2e_work/results/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then through the benchmark's traced
launchers (``traced_cli.py``, ``traced_serve.py``), and reports the
per-layer metrics plus the tracing overhead.  ``--repeat N`` runs N
seeds and reports each metric's median and quartiles.  ``--smoke``
shrinks every input so all workloads finish in seconds.  See README.md
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import harness
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

WORKLOADS = ("check-100k", "ingest-fd", "ingest-reprobe", "discover-1k")

#: name -> (unit, lower is better)
END_TO_END = {
    "op_p50_ms": ("ms", True),
    "ops_per_s": ("1/s", False),
    "setup_s": ("s", True),
    "peak_rss_mb": ("MiB", True),
}

#: Layers reported as a share of operation wall time: span names from
#: tracer.TARGETS, plus the parts measured between spans.
TIME_LAYERS = (
    "cli.startup", "cli.rules",
    "relation.load", "relation.encode", "relation.partition",
    "relation.apply_delta",
    "analysis.screen", "analysis.minimize",
    "plan.compile", "plan.kernel", "plan.fanout",
    "incremental.parse", "incremental.validate", "incremental.apply",
    "durability.wal", "durability.fsync", "durability.snapshot",
    "server.transport", "server.dispatch", "server.pool_wait",
    "server.apply_batch",
    "jobs.queue", "jobs.lag",
    "discovery.tane", "discovery.cords", "discovery.cfd", "discovery.od",
    "discovery.sd", "profiler.count",
    "python.gc", "unattributed",
)

#: name -> (unit, lower is better)
PER_LAYER = {
    **{f"{layer}_share": ("ratio", True) for layer in TIME_LAYERS},
    "plan.candidates": ("count", True),
    "plan.verify_yield": ("ratio", False),
    "plan.pruned_frac": ("ratio", False),
    "plan.vector_share": ("ratio", False),
    "plan.fanout_calls": ("count", True),
    "durability.fsyncs": ("count", True),
    "durability.snapshots": ("count", True),
    "durability.wal_bytes_per_row": ("B/row", True),
    "relation.partition_hit_rate": ("ratio", False),
    "analysis.redundant_frac": ("ratio", True),
    "discovery.rules_found": ("count", False),
    "trace.overhead_frac": ("ratio", True),
}

UNITS = {name: unit for name, (unit, _) in {**END_TO_END, **PER_LAYER}.items()}

JOB_POLL_S = 0.010


@dataclass(frozen=True)
class Sizes:
    check_rows: int
    ingest_fd_rows: int
    reprobe_rows: int
    discover_rows: int
    setups: int
    warmup_batches: int


FULL = Sizes(100_000, 50_000, 10_000, 1_000, setups=5, warmup_batches=5)
SMOKE = Sizes(5_000, 2_000, 1_000, 200, setups=1, warmup_batches=2)


@dataclass
class Run:
    """Settings shared by every phase of one benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    work: Path
    env: dict[str, str]
    traced: bool = False
    setups: int = 1
    #: Every server started, so an aborted run can still stop them all.
    servers: list[harness.Server] = field(default_factory=list)


@dataclass
class Phase:
    """What one untraced or traced pass over a workload measured."""

    samples: list[float] = field(default_factory=list)
    failed_ops: int = 0
    elapsed: float = 0.0
    setup: list[float] = field(default_factory=list)
    rss_mb: float = float("nan")
    checks: dict[str, bool] = field(default_factory=dict)
    #: Per-operation layer seconds, call counts and kernel counts.
    ops: list[dict[str, Any]] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def record(self, seconds: float, ok: bool) -> None:
        self.samples.append(seconds)
        self.failed_ops += not ok

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(not ok for ok in self.checks.values())


def timed_loop(run: Run, op: Callable[[], None], phase: Phase) -> None:
    """Closed loop: run ``op`` back to back until ``run.seconds`` pass."""
    start = time.monotonic()
    while True:
        op()
        if time.monotonic() - start >= run.seconds:
            break
    phase.elapsed = time.monotonic() - start


def span_seconds(spans: list[dict[str, Any]]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def layer_op(
    tree: tracer.SpanTree, roots: list[dict[str, Any]], wall: float,
    between: dict[str, float],
) -> dict[str, Any]:
    """One operation's layer seconds: the spans under ``roots``, plus
    the parts measured ``between`` spans (start-up, transport, queue)."""
    seconds, calls = tree.layers(roots)
    seconds.update(between)
    return {
        "wall": wall,
        "seconds": seconds,
        "calls": calls,
        "counts": [s.get("counts", {}) for s in roots],
    }


def tail(samples: list[float]) -> dict[str, float]:
    """The highest percentile with ten samples beyond it, if there is one."""
    n = len(samples)
    if n < 20:
        return {}
    return {"op_tail_ms": 1000 * sorted(samples)[n - 11], "op_tail_pct": 100 * (n - 10) / n}


# -- check-100k ------------------------------------------------------------


def parse_counts(text: str) -> list[int]:
    """Per-rule violation counts from ``repro check`` output, in order."""
    counts = []
    for line in text.splitlines():
        if line.startswith("[FAIL]"):
            counts.append(int(line.rsplit(":", 1)[1].split()[0]))
        elif line.startswith(("[ok]", "[skip]")):
            counts.append(0 if line.startswith("[ok]") else -1)
    return counts


def check_workload(run: Run) -> Phase:
    phase = Phase()
    n = run.sizes.check_rows
    rows = inputs.address_rows(random.Random(run.seed), n, max(1, n // 5))
    data = run.work / "data.csv"
    tiny = run.work / "tiny.csv"
    rules = run.work / "rules.json"
    inputs.write_csv(data, rows, inputs.COLUMNS)
    inputs.write_csv(tiny, rows[:1], inputs.COLUMNS)
    rules.write_text(json.dumps({"rules": inputs.CHECK_RULES}))
    expected = inputs.reference_counts(rows)
    phase.info["expected_counts"] = expected
    out = run.work / "check.out"

    def argv(csv: Path, spans: Path | None = None) -> list[str]:
        check = ["check", str(csv), "--rules", str(rules)]
        if spans is None:
            return [sys.executable, "-m", "repro", *check]
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *check]

    # Set-up: the CLI's fixed cost, the same rules over a one-row table.
    # It also warms the interpreter's caches; the table was just
    # written, so it is in the page cache.
    for _ in range(run.setups):
        child = harness.run_child(argv(tiny), run.env, out)
        phase.setup.append(child["wall_s"])
        phase.check("setup check exits 0", child["exit"] == 0)
    rss = []

    def op() -> None:
        spans = run.work / "spans.json" if run.traced else None
        child = harness.run_child(argv(data, spans), run.env, out)
        counts = parse_counts(out.read_text("utf-8", "replace"))
        phase.record(child["wall_s"], child["exit"] == 1 and counts == expected)
        rss.append(child["maxrss_mb"])
        if spans is not None:
            tree = tracer.SpanTree(json.loads(spans.read_text()))
            roots = tree.named("cli.main", -math.inf, math.inf)
            startup = child["wall_s"] - span_seconds(roots)
            phase.ops.append(
                layer_op(tree, roots, child["wall_s"], {"cli.startup": startup})
            )

    timed_loop(run, op, phase)
    phase.rss_mb = statistics.median(rss)
    return phase


# -- server workloads ------------------------------------------------------


def start_server(run: Run, data_dir: Path, tag: str) -> harness.Server:
    serve = ["serve", "--port", "0", "--data-dir", str(data_dir)]
    if run.traced:
        spans = run.work / f"spans-{tag}.json"
        argv = [sys.executable, str(HERE / "traced_serve.py"), str(spans), *serve]
    else:
        argv = [sys.executable, "-m", "repro", *serve]
    server = harness.Server(argv, run.env, run.work / f"serve-{tag}.log")
    run.servers.append(server)
    return server


def collect_spans(run: Run, server: harness.Server, tag: str) -> tracer.SpanTree:
    """Ask a traced server for its spans (SIGUSR1) and load them."""
    path = run.work / f"spans-{tag}.json"
    path.unlink(missing_ok=True)
    os.kill(server.proc.pid, signal.SIGUSR1)
    deadline = time.monotonic() + 60
    while not path.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("traced server wrote no spans")
        time.sleep(0.01)
    return tracer.SpanTree(json.loads(path.read_text()))


def setup_server(
    run: Run, phase: Phase, register: dict[str, Any],
    rules: list[dict[str, Any]] | None,
) -> tuple[harness.Server, Path, dict[str, Any]]:
    """Start, register and upload rules ``run.setups`` times; keep the last.

    Each set-up starts a fresh server on an empty data directory and is
    timed from process start to the rule upload's acknowledgement.
    """
    server = None
    uploaded: dict[str, Any] = {}
    for k in range(run.setups):
        if server is not None:
            server.stop()
            shutil.rmtree(data_dir)
        data_dir = run.work / f"data-{k}"
        server = start_server(run, data_dir, f"setup{k}")
        status, _ = server.client.call("POST", "/tenants", register)
        phase.check("tenant registered", status == 201)
        if rules is not None:
            status, uploaded = server.client.call(
                "PUT", "/tenants/t/rules", {"rules": rules}
            )
            phase.check("rules accepted", status == 200)
        phase.setup.append(time.monotonic() - server.started)
    return server, data_dir, uploaded


def schema_payload(schema: list[tuple[str, str]]) -> list[dict[str, str]]:
    return [{"name": n, "type": t} for n, t in schema]


def ingest_workload(run: Run, seed_rows: int, rules: list[dict], probe: bool) -> Phase:
    from repro.relation import Attribute, AttributeType, Relation, Schema
    from repro.rules_io import parse_rules_with_meta

    phase = Phase()
    stream = inputs.ingest_stream(run.seed, seed_rows)
    register = {
        "tenant": "t",
        "schema": schema_payload(inputs.ADDRESS_SCHEMA),
        "rows": stream.rows,
    }
    server, data_dir, uploaded = setup_server(run, phase, register, rules)
    client = server.client
    last: dict[str, Any] = {}
    batch_ops: list[tuple[float, float]] = []

    def send() -> tuple[float, bool]:
        nonlocal last
        batch = stream.next_batch()
        want = len(stream.rows) + len(batch["insert"])
        t0 = time.monotonic()
        status, resp = client.call("POST", "/tenants/t/batches", batch)
        t1 = time.monotonic()
        ok = status == 200
        if ok:
            stream.acknowledge(batch)
            last = resp
            ok = resp["rows"] == want and resp["complete"] and not resp["quarantined"]
        batch_ops.append((t0, t1))
        return t1 - t0, ok

    for _ in range(run.sizes.warmup_batches):
        send()
    batch_ops.clear()
    _, health = client.call("GET", "/healthz")
    wal0, rows0 = health["durability"]["wal_bytes"], len(stream.rows)

    timed_loop(run, lambda: phase.record(*send()), phase)
    phase.rss_mb = server.peak_rss_mb()
    # Per-batch cost that grows with the tenant shows as a late/early gap.
    fifth = max(1, len(phase.samples) // 5)
    phase.info["rows_at_start"] = rows0
    phase.info["early_p50_ms"] = 1000 * statistics.median(phase.samples[:fifth])
    phase.info["late_p50_ms"] = 1000 * statistics.median(phase.samples[-fifth:])
    _, health = client.call("GET", "/healthz")
    phase.info["wal_bytes_per_row"] = (
        (health["durability"]["wal_bytes"] - wal0) / (len(stream.rows) - rows0)
    )

    # The server's cumulative state equals a cold recount of the rows
    # the benchmark sent, rule by rule.
    status, state = client.call("GET", "/tenants/t/violations?limit=0")
    schema = Schema([Attribute(n, AttributeType(t)) for n, t in inputs.ADDRESS_SCHEMA])
    relation = Relation.empty(schema).extend(tuple(r) for r in stream.rows)
    skipped = uploaded.get("skipped", {})
    cold = {
        e.dependency.label(): len(e.dependency.violations(relation))
        for e in parse_rules_with_meta({"rules": rules})
        if e.name not in skipped
    }
    phase.check("state equals cold recount", status == 200 and state["per_rule"] == cold)
    phase.check(
        "last ack equals cold recount",
        last.get("total_violations") == sum(cold.values())
        and state["rows"] == len(stream.rows),
    )
    phase.info["violations"] = sum(cold.values())
    phase.info["rows"] = len(stream.rows)
    if run.traced:
        tree = collect_spans(run, server, "setup%d" % (run.setups - 1))
        for t0, t1 in batch_ops:
            roots = tree.named("server.dispatch", t0, t1)
            transport = (t1 - t0) - span_seconds(roots)
            phase.ops.append(
                layer_op(tree, roots, t1 - t0, {"server.transport": transport})
            )
    if not probe:
        server.stop()
        return phase

    # Durability probe: kill -9 after the last ack, restart on the same
    # directory, and compare the recovered state with that ack.
    phase.info["stored_bytes_per_row"] = sum(
        f.stat().st_size for f in data_dir.rglob("*") if f.is_file()
    ) / len(stream.rows)
    server.kill()
    server = start_server(run, data_dir, "recovered")
    phase.info["recovery_s"] = server.ready - server.started
    status, state = server.client.call("GET", "/tenants/t/violations?limit=0")
    phase.check(
        "recovered state equals last ack",
        status == 200
        and state["rows"] == last.get("rows")
        and state["total_violations"] == last.get("total_violations"),
    )
    if run.traced:
        tree = collect_spans(run, server, "recovered")
        recover = tree.named("durability.recover", -math.inf, math.inf)
        phase.info["durability.recover_ms"] = 1000 * span_seconds(recover)
    server.stop()
    return phase


def discover_workload(run: Run) -> Phase:
    from repro.profiler import profile_relation
    from repro.relation import Attribute, AttributeType, Relation, Schema

    phase = Phase()
    rows = inputs.discovery_rows(run.seed, run.sizes.discover_rows)
    register = {
        "tenant": "t",
        "schema": schema_payload(inputs.DISCOVERY_SCHEMA),
        "rows": rows,
    }
    server, _, _ = setup_server(run, phase, register, None)
    client = server.client

    schema = Schema([
        Attribute(n, AttributeType(t)) for n, t in inputs.DISCOVERY_SCHEMA
    ])
    report = profile_relation(Relation.empty(schema).extend(tuple(r) for r in rows))
    expected = [
        [r.category, str(r.rule), r.rule.kind, r.violations] for r in report.rules
    ]
    jobs: list[dict[str, Any]] = []

    def job() -> tuple[float, bool]:
        t0 = time.monotonic()
        status, submitted = client.call(
            "POST", "/tenants/t/jobs", {"type": "discovery"}
        )
        t_ack = time.monotonic()
        record = submitted if status == 202 else {"state": f"http {status}"}
        while record["state"] in ("queued", "running"):
            time.sleep(JOB_POLL_S)
            status, record = client.call("GET", f"/jobs/{submitted['job']}")
            if status != 200:
                record = {"state": f"http {status}"}
        t1 = time.monotonic()
        got = [
            [r["category"], r["rule"], r["kind"], r["violations"]]
            for r in (record.get("result") or {}).get("rules", [])
        ]
        jobs.append({"t0": t0, "t_ack": t_ack, "t1": t1, "record": record})
        return t1 - t0, record["state"] == "succeeded" and got == expected

    job()  # warm-up
    jobs.clear()
    timed_loop(run, lambda: phase.record(*job()), phase)
    phase.rss_mb = server.peak_rss_mb()
    phase.info.update(job_info([j["record"] for j in jobs]))
    if run.traced:
        tree = collect_spans(run, server, "setup%d" % (run.setups - 1))
        for j in jobs:
            # The job runs on its own thread; status polls overlap it and
            # are reported beside the breakdown, not inside it.
            submit = tree.named("server.dispatch", j["t0"], j["t_ack"])[:1]
            runs = tree.named("jobs.run", j["t0"], j["t1"])[:1]
            between = {
                "server.transport": j["t_ack"] - j["t0"] - span_seconds(submit)
            }
            if submit and runs:
                between["jobs.queue"] = max(0.0, runs[0]["start"] - submit[0]["end"])
                between["jobs.lag"] = max(0.0, j["t1"] - runs[0]["end"])
            op = layer_op(tree, submit + runs, j["t1"] - j["t0"], between)
            polls = tree.named("server.dispatch", j["t_ack"], j["t1"])
            op["poll_s"] = span_seconds(polls)
            phase.ops.append(op)
    server.stop()
    return phase


def job_info(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Means over the public job records: queue, stages, rule counts."""

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    hits = builds = 0
    rules = redundant = 0
    for r in records:
        result = r.get("result") or {}
        found = result.get("rules", [])
        rules += len(found)
        redundant += sum(1 for x in found if x.get("redundant"))
        for note in result.get("notes", []):
            m = re.search(r"partition cache: (\d+) hits / (\d+) builds", note)
            if m:
                hits += int(m.group(1))
                builds += int(m.group(2))
    stage = {
        name: mean([
            s["duration_s"] for r in records for s in r["stages"]
            if s["name"] == name
        ])
        for name in ("discover", "minimize")
    }
    return {
        "jobs.queue_ms": 1000 * mean([
            r["started_at"] - r["created_at"] for r in records
            if r.get("started_at") is not None
        ]),
        "jobs.discover_stage_ms": 1000 * stage["discover"],
        "jobs.minimize_stage_ms": 1000 * stage["minimize"],
        "discovery.rules_found": rules / len(records) if records else 0.0,
        "analysis.redundant_frac": redundant / rules if rules else 0.0,
        "relation.partition_hit_rate": (
            hits / (hits + builds) if hits + builds else 0.0
        ),
    }


def run_phase(run: Run) -> Phase:
    sizes = run.sizes
    if run.workload == "check-100k":
        return check_workload(run)
    if run.workload == "ingest-fd":
        return ingest_workload(
            run, sizes.ingest_fd_rows, inputs.INGEST_FD_RULES, probe=True
        )
    if run.workload == "ingest-reprobe":
        return ingest_workload(
            run, sizes.reprobe_rows, inputs.INGEST_REPROBE_RULES, probe=False
        )
    return discover_workload(run)


# -- metrics ---------------------------------------------------------------


def end_to_end(phase: Phase) -> dict[str, float]:
    return {
        "op_p50_ms": 1000 * statistics.median(phase.samples),
        "ops_per_s": len(phase.samples) / phase.elapsed,
        "setup_s": statistics.median(phase.setup),
        "peak_rss_mb": phase.rss_mb,
    }


def layer_breakdown(phase: Phase) -> dict[str, Any]:
    """Per-layer self time per operation, its share of operation wall
    time, and the part of the wall no layer accounts for."""
    ops = phase.ops
    wall = sum(op["wall"] for op in ops)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for op in ops:
        for name, seconds in op["seconds"].items():
            totals[name] = totals.get(name, 0.0) + seconds
        for name, count in op["calls"].items():
            calls[name] = calls.get(name, 0) + count
    gap = wall - sum(totals.values())
    return {
        "ms_per_op": {k: 1000 * v / len(ops) for k, v in sorted(totals.items())},
        "share": {k: v / wall for k, v in sorted(totals.items())},
        "calls_per_op": {k: v / len(ops) for k, v in sorted(calls.items())},
        "gap_share": gap / wall,
        "poll_ms_per_op": 1000 * sum(op.get("poll_s", 0.0) for op in ops) / len(ops),
    }


def per_layer(phase: Phase, untraced_p50_ms: float) -> dict[str, float]:
    breakdown = layer_breakdown(phase)
    share = breakdown["share"]
    n = len(phase.ops)
    counts: dict[str, int] = {}
    for op in phase.ops:
        for c in op["counts"]:
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
    calls = breakdown["calls_per_op"]

    def ratio(a: str, b: str) -> float:
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    out = {f"{layer}_share": share.get(layer, 0.0) for layer in TIME_LAYERS}
    # Time no span covers counts as unattributed too.
    out["unattributed_share"] += max(0.0, breakdown["gap_share"])
    out.update({
        "plan.candidates": counts.get("candidates", 0) / n,
        "plan.verify_yield": ratio("verified", "candidates"),
        "plan.pruned_frac": 1.0 - ratio("pairs_examined", "pairs_total")
        if counts.get("pairs_total") else 0.0,
        "plan.vector_share": ratio("vector_executions", "executions"),
        "plan.fanout_calls": calls.get("plan.fanout", 0.0),
        "durability.fsyncs": calls.get("durability.fsync", 0.0),
        "durability.snapshots": calls.get("durability.snapshot", 0.0),
        "durability.wal_bytes_per_row": phase.info.get("wal_bytes_per_row", 0.0),
        "relation.partition_hit_rate": phase.info.get(
            "relation.partition_hit_rate", 0.0
        ),
        "analysis.redundant_frac": phase.info.get("analysis.redundant_frac", 0.0),
        "discovery.rules_found": phase.info.get("discovery.rules_found", 0.0),
        "trace.overhead_frac": 1000 * statistics.median(phase.samples)
        / untraced_p50_ms - 1.0,
    })
    return out


# -- one invocation --------------------------------------------------------


def fingerprint(run: Run, cleared: list[str]) -> dict[str, Any]:
    import numpy
    from repro.cli import build_parser
    from repro.server.durability.manager import DEFAULT_SNAPSHOT_EVERY

    serve = vars(build_parser().parse_args(
        ["serve", "--port", "0", "--data-dir", str(run.work)]
    ))
    serve.pop("func", None)
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        ).stdout.strip() or None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "data_dir_fs": filesystem_type(run.work),
        "serve_flags": serve,
        "fsync": serve["fsync"],
        "snapshot_every": DEFAULT_SNAPSHOT_EVERY,
        "cleared_env": cleared,
    }


def filesystem_type(path: Path) -> str | None:
    """The type of the longest mount point containing ``path``."""
    best, fstype = "", None
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(
                mount
            ) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
    env: dict[str, str], cleared: list[str],
) -> dict[str, Any]:
    """One workload, one seed: its final-line result and full record."""
    base = ROOT / ".e2e_work"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, seconds, sizes, work, env, setups=sizes.setups)
    try:
        record: dict[str, Any] = {"fingerprint": fingerprint(run, cleared)}
        if trace:
            # The two phases share the run length.
            run.setups = 1
            run.seconds = seconds / 2
            run.work = work / "untraced"
            run.work.mkdir()
            untraced = run_phase(run)
            run.traced = True
            run.work = work / "traced"
            run.work.mkdir()
            phase = run_phase(run)
            baseline = end_to_end(untraced)["op_p50_ms"]
            metrics = per_layer(phase, baseline)
            record["layers"] = layer_breakdown(phase)
            phases = (untraced, phase)
        else:
            phase = run_phase(run)
            metrics = end_to_end(phase)
            phases = (phase,)
    finally:
        for server in run.servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": vars(sizes),
        "samples": len(phase.samples),
        **tail(phase.samples),
        "samples_ms": [1000 * x for x in phase.samples],
        "checks": {k: v for p in phases for k, v in p.checks.items()},
        "info": phase.info,
    })
    result = {
        "correct": all(p.failed == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    record["result"] = result
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "trace" if trace else "e2e"
    (results / f"{workload}-seed{seed}-{tag}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    return record


def report(workload: str, record: dict[str, Any]) -> None:
    """Human-readable lines: every metric by name and unit."""
    line = f"== {workload} seed={record['seed']} samples={record['samples']}"
    if "op_tail_ms" in record:
        line += f" p{record['op_tail_pct']:.4g}={record['op_tail_ms']:.6g} ms"
    print(line)
    for name, value in record["result"]["metrics"].items():
        print(f"{name:32s} {value:14.6g} {UNITS[name]}")
    for name, value in sorted(record["info"].items()):
        if isinstance(value, (int, float)):
            print(f"{'  ' + name:32s} {value:14.6g}")
    layers = record.get("layers")
    if layers:
        print("  self ms per op by layer:")
        for name, ms in sorted(layers["ms_per_op"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:28s} {ms:12.3f}  ({layers['share'][name]:.1%})")
    failing = [k for k, ok in record["checks"].items() if not ok]
    print(f"  correct={record['result']['correct']} failing checks={failing}")


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else float("nan"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default 15; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed..seed+N-1 and report quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: every workload in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Children and the in-process reference counts both run on defaults.
    env, cleared = harness.child_env(ROOT)
    for key in cleared:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    harness.become_subreaper()
    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    sizes = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 15.0)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    final: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            record = run_once(workload, seed, seconds, trace, sizes, env, cleared)
            report(workload, record)
            runs.append(record["result"])
        metrics = {
            name: quartiles([r["metrics"][name] for r in runs])
            for name in runs[0]["metrics"]
        }
        if args.repeat > 1:
            print(f"== {workload}: {args.repeat} seeds from {args.seed}")
            for name, q in metrics.items():
                print(f"{name:32s} median {q['median']:12.6g}  q1 {q['q1']:12.6g}"
                      f"  q3 {q['q3']:12.6g}  spread {q['spread']:.3f}")
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        final["correct"] &= all(r["correct"] for r in runs)
        final["attempted"] += sum(r["attempted"] for r in runs)
        final["failed"] += sum(r["failed"] for r in runs)
        for name, q in metrics.items():
            final["metrics"][prefix + name] = {
                "value": q["median"], "unit": UNITS[name]
            }
    print(json.dumps(final))
    if args.smoke and not final["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
