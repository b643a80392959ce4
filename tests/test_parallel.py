"""Sharded parallel checking must be invisible except for speed.

The contract under test: for every pairwise notation, backend and
option combination, ``workers=N`` produces violation lists (and
:class:`DetectionReport` orderings) byte-identical to the serial
executor, with the caller's scope counters equal to the sum of the
per-shard counters, and with budget exhaustion propagating *into* running shards
through the shared :class:`ShardToken`.  Shards are forked after the
job is bound, so dependencies that cannot be pickled fan out too, and
a shard never runs under an ambient budget it inherited.  When the
fan-out does not run (tiny inputs below the ambient row floor, calls
off the main thread), the serial fallback is silent and lossless.
"""

from __future__ import annotations

import inspect
import multiprocessing
import pickle
import random
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.mfd import MFD
from repro.core.numerical.dc import DC, pred2
from repro.core.numerical.od import OD
from repro.metrics.base import Metric
from repro.plan import (
    COUNTERS,
    KernelCounters,
    denial_violations,
    guard_pairs,
    pairwise_violations,
    resolve_workers,
)
from repro.plan.parallel import MIN_ROWS, last_run
from repro.quality.detection import Detector
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime import (
    Budget,
    BudgetExhausted,
    ShardToken,
    execution,
    governed,
)


def make_relation(n: int = 600, seed: int = 11) -> Relation:
    rng = random.Random(seed)
    rows = []
    v = 0
    for _ in range(n):
        v += rng.randint(0, 3)
        rows.append(
            {
                "A": v + (7 if rng.random() < 0.02 else 0),
                "B": v + rng.randint(0, 1),
                "C": rng.randint(0, 40),
                "name": f"n{rng.randint(0, 60):03d}",
            }
        )
    return Relation.from_dicts(["A", "B", "C", "name"], rows)


def make_dependencies():
    return [
        MFD(["C"], ["B"], 1.0),
        OD(["A"], ["B"]),
        DC([pred2("C", "="), pred2("B", "!=")]),
        MD({"name": 0.5}, ["C"]),
    ]


def violation_bytes(violations) -> bytes:
    return "\n".join(str(v) for v in violations).encode()


def run_dep(dep, rel, **kw):
    """DCs check through denial semantics, everything else pairwise."""
    if isinstance(dep, DC):
        return denial_violations(dep, rel, **kw)
    return pairwise_violations(dep, rel, **kw)


class TestSlabs:
    def test_kernels_are_engine_neutral(self):
        """Acceptance gate: kernels never touch a row-store handle.

        The old grep-style pin ("the word relation never appears in the
        source") is now the SC002 staticcheck pass, which understands
        imports and identifiers instead of raw substrings.
        """
        from repro.analysis.staticcheck import (
            EngineNeutralityPass,
            load_source,
        )
        from repro.plan import kernels, kernels_vec

        check = EngineNeutralityPass()
        for mod in (kernels, kernels_vec):
            module = load_source(inspect.getsourcefile(mod))
            assert list(check.run(module)) == []

    def test_engine_neutrality_pass_catches_seeded_violation(self):
        """SC002 actually fires: seed a Relation import into a kernel."""
        from repro.analysis.staticcheck import (
            EngineNeutralityPass,
            load_source,
        )
        from repro.plan import kernels

        source = inspect.getsource(kernels)
        seeded = source.replace(
            "from ..runtime import checkpoint",
            "from ..runtime import checkpoint\n"
            "from ..relation import Relation",
            1,
        )
        assert seeded != source
        module = load_source("src/repro/plan/kernels.py", text=seeded)
        findings = list(EngineNeutralityPass().run(module))
        assert findings, "seeded Relation import must be flagged"
        assert all(f.code == "SC002" for f in findings)


class TestTokenLifecycle:
    def test_token_released_when_wait_is_interrupted(self, monkeypatch):
        """A KeyboardInterrupt while waiting on shards cancels the token
        and joins every forked child before it propagates, and leaves
        no token attached to the budget."""
        import repro.plan.parallel as par

        rel = make_relation(600, seed=59)
        dep = OD(["A"], ["B"])

        created: list[ShardToken] = []
        real_create = ShardToken.create.__func__

        def recording_create(cls, *args, **kwargs):
            token = real_create(cls, *args, **kwargs)
            created.append(token)
            return token

        monkeypatch.setattr(
            ShardToken, "create", classmethod(recording_create)
        )
        # Keep the mapping readable after the call, to see the flag.
        monkeypatch.setattr(ShardToken, "close", lambda self: None)
        children: list = []

        def interrupted_wait(*args, **kwargs):
            children.extend(multiprocessing.active_children())
            raise KeyboardInterrupt

        monkeypatch.setattr(par, "wait", interrupted_wait)
        budget = Budget(deadline_s=3600)
        with governed(budget):
            with pytest.raises(KeyboardInterrupt):
                pairwise_violations(dep, rel, workers=2)
        assert len(created) == 1
        assert created[0].cancelled() == "cancelled"
        assert children, "the shards were forked before the wait"
        assert not any(child.is_alive() for child in children)
        assert budget._attached == []


class TestCounterMerge:
    def test_diff_then_merge_composes(self):
        live = KernelCounters()
        live.executions = 3
        live.pairs_examined = 100
        live.note("group")
        live.note_work("group", candidates=100, verified=40)
        earlier = live.snapshot()
        live.executions += 2
        live.pairs_examined += 75
        live.chunks += 2
        live.note("group")
        live.note("sweep")
        live.note_work("sweep", candidates=75, verified=10)
        later = live.snapshot()
        earlier.merge(later.diff(earlier))
        assert earlier == later

    def test_parent_totals_equal_sum_of_shard_deltas(self):
        rel = make_relation(900, seed=5)
        dep = MFD(["C"], ["B"], 1.0)
        with execution(backend="scalar"):
            with execution() as serial_scope:
                serial = pairwise_violations(dep, rel)
            with execution() as parallel_scope:
                parallel = pairwise_violations(dep, rel, workers=4)
        assert violation_bytes(parallel) == violation_bytes(serial)
        run = last_run()
        assert run is not None and run["workers"] == 4
        # The shards' counters merged into the caller's scope.
        got = parallel_scope.counters
        shard_pairs = sum(
            s["counters"].pairs_examined for s in run["shards"]
        )
        assert got.pairs_examined == shard_pairs
        assert got.pairs_examined == serial_scope.counters.pairs_examined
        assert got.executions == serial_scope.counters.executions == 1
        n = len(rel)
        assert got.pairs_total == n * (n - 1) // 2


class TestParity:
    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_all_notations_order_identical(self, backend):
        rel = make_relation(700, seed=23)
        with execution(backend=backend):
            for dep in make_dependencies():
                serial = run_dep(dep, rel)
                parallel = run_dep(dep, rel, workers=4)
                assert violation_bytes(parallel) == violation_bytes(serial), (
                    f"{dep.kind} diverged under {backend} backend"
                )
                run = last_run()
                assert run is not None and run["workers"] == 4

    def test_restrict_parity(self):
        rel = make_relation(500, seed=31)
        dep = OD(["A"], ["B"])
        restrict = {3, 77, 210, 499}
        serial = pairwise_violations(dep, rel, restrict=restrict)
        parallel = pairwise_violations(
            dep, rel, restrict=restrict, workers=4
        )
        assert violation_bytes(parallel) == violation_bytes(serial)

    def test_first_only_stays_serial(self):
        rel = make_relation(500, seed=37)
        dep = OD(["A"], ["B"])
        marker = object()
        import repro.plan.parallel as par

        par._last_run = None
        first = pairwise_violations(dep, rel, first_only=True, workers=4)
        assert last_run() is None, "first_only must not fan out"
        assert violation_bytes(first) == violation_bytes(
            pairwise_violations(dep, rel, first_only=True)
        )
        del marker

    def test_guard_pairs_parity(self):
        rel = make_relation(600, seed=41)
        md = MD({"name": 0.5}, ["C"])
        serial = guard_pairs(md, rel, md.similar_on_lhs)
        parallel = guard_pairs(md, rel, md.similar_on_lhs, workers=4)
        assert parallel == serial

    def test_unpicklable_dependency_fans_out(self):
        """The shards inherit the dependency through the fork, so a
        custom metric over a lambda fans out like any other."""
        rel = make_relation(400, seed=43)
        local = Metric("test-local", lambda a, b: abs(float(a) - float(b)))
        dep = MFD(["A"], ["B"], 1.0, metric=local)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(dep)
        import repro.plan.parallel as par

        par._last_run = None
        parallel = pairwise_violations(dep, rel, workers=4)
        run = last_run()
        assert run is not None and run["workers"] == 4
        assert violation_bytes(parallel) == violation_bytes(
            pairwise_violations(dep, rel)
        )

    def test_resolve_workers_gates(self, monkeypatch):
        # The environment is not consulted: only an execution scope
        # (the CLI's --workers) sets the ambient count.
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "1")
        assert resolve_workers(4, 10) == 4
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(None, 100_000) == 1
        with execution(workers=4):
            assert resolve_workers(None, 10) == 1
            assert resolve_workers(None, MIN_ROWS - 1) == 1
            assert resolve_workers(None, MIN_ROWS) == 4
            assert resolve_workers(2, 100_000) == 2
            with execution(backend="scalar"):
                # A child scope inherits the count it does not set.
                assert resolve_workers(None, MIN_ROWS) == 4
            # A new thread starts in the root scope: serial.
            seen: list[int] = []
            thread = threading.Thread(
                target=lambda: seen.append(resolve_workers(None, MIN_ROWS))
            )
            thread.start()
            thread.join()
            assert seen == [1]
        assert resolve_workers(None, MIN_ROWS) == 1
        for bad in (0, -3):
            with pytest.raises(ValueError), execution(workers=bad):
                pass
        # A forked shard inherits the in-flight job and stays serial.
        import repro.plan.parallel as par

        monkeypatch.setattr(par, "_job", object())
        assert resolve_workers(4, 100_000) == 1

    def test_off_main_thread_call_runs_serially(self):
        """A pool made on the main thread is never handed to another
        thread: forking from a helper thread is how deadlocks are made."""
        rel = make_relation(600, seed=71)
        dep = OD(["A"], ["B"])
        pairwise_violations(dep, rel, workers=2)
        before = last_run()
        assert before is not None and before["workers"] == 2
        out: list = []
        thread = threading.Thread(
            target=lambda: out.append(
                pairwise_violations(dep, rel, workers=2)
            )
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert last_run() is before
        assert violation_bytes(out[0]) == violation_bytes(
            pairwise_violations(dep, rel)
        )


SMALL = st.sampled_from([None, 0, 1, 2, 3, 1.0, 2.5, -1, "x", "y", ""])


@st.composite
def tiny_relations(draw, max_rows=24):
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(2)]
    )
    pool = st.sampled_from([None, 0, 1, 2, 3, 1.0, 2.5, -1])
    rows = [tuple(draw(pool) for __ in range(2)) for __ in range(n_rows)]
    return Relation.from_rows(schema, rows)


class TestPropertyParity:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rel=tiny_relations(),
        backend=st.sampled_from(["scalar", "vector"]),
        dep_ix=st.integers(min_value=0, max_value=2),
        restrict=st.none() | st.sets(st.integers(0, 23), max_size=4),
    )
    def test_workers_invisible_in_report_bytes(
        self, rel, backend, dep_ix, restrict
    ):
        dep = [
            MFD(["A0"], ["A1"], 1.0),
            OD(["A0"], ["A1"]),
            DC([pred2("A0", "="), pred2("A1", "!=")]),
        ][dep_ix]
        with execution(backend=backend):
            if restrict is None:
                one = Detector([dep]).detect(rel)
                four_vs = run_dep(dep, rel, workers=4)
                assert violation_bytes(four_vs) == violation_bytes(
                    one.violations
                )
                assert one.complete and one.exhausted == ""
            else:
                restrict = {i for i in restrict if i < len(rel)}
                serial = run_dep(dep, rel, restrict=restrict)
                par = run_dep(dep, rel, restrict=restrict, workers=4)
                assert violation_bytes(par) == violation_bytes(serial)


def _report_cancellation(token: ShardToken) -> None:
    """Forked-child side of the token test: wait for the parent's
    cancel, publish into slot 1, exit 0 iff the first reason shows."""
    deadline = time.monotonic() + 30
    while not token.cancelled() and time.monotonic() < deadline:
        time.sleep(0.005)
    token.publish(1, 5, 5)
    raise SystemExit(0 if token.cancelled() == "deadline" else 1)


def _join(child, timeout: float = 30.0) -> None:
    """Join a forked child, killing it if it is still alive after
    ``timeout`` (its exit code then reads as a failure)."""
    child.join(timeout=timeout)
    if child.is_alive():
        child.kill()
        child.join()


class TestShardToken:
    def test_publish_totals_and_caps(self):
        token = ShardToken.create(4, max_candidates=100, max_pairs=50)
        try:
            assert token.totals() == (0, 0)
            assert token.over_cap() == ""
            token.publish(0, 30, 10)
            token.publish(3, 40, 12)
            assert token.totals() == (70, 22)
            assert token.over_cap() == ""
            token.publish(1, 31, 0)
            assert token.over_cap() == "candidates"
        finally:
            token.close()

    def test_forked_child_sees_cancellation_first_reason_wins(self):
        token = ShardToken.create(2)
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_report_cancellation, args=(token,)
            )
            child.start()
            token.cancel("deadline")
            token.cancel("pairs")  # late reason must not overwrite
            _join(child)
            assert child.exitcode == 0
            assert token.totals() == (5, 5)
        finally:
            token.close()

    def test_uncapped_token_never_over_cap(self):
        token = ShardToken.create(2)
        try:
            token.publish(0, 10**9, 10**9)
            assert token.over_cap() == ""
        finally:
            token.close()


def _note_after_child_init() -> None:
    import repro.plan.parallel as par

    par._init_child()
    COUNTERS.note("child")


class TestForkedChildren:
    def test_expired_ambient_budget_does_not_drop_violations(self):
        """Regression: shards forked while a budget was ambient must not
        run under it.  An earlier fan-out forks under a short deadline;
        once it has passed, an unbudgeted fan-out must still return
        every violation (it used to return a silent partial list)."""
        rel = make_relation(3000, seed=79)
        dep = OD(["A"], ["B"])
        with execution(backend="scalar"):
            serial = pairwise_violations(dep, rel)
            assert serial
            budget = Budget(deadline_s=1.0)
            with governed(budget):
                # 5 workers: more than any other fan-out in this suite,
                # so this call forks its own worker set.
                pairwise_violations(dep, make_relation(200), workers=5)
            while not budget.expired():
                time.sleep(0.05)
            parallel = pairwise_violations(dep, rel, workers=2)
        assert violation_bytes(parallel) == violation_bytes(serial)

    def test_counter_lock_held_at_fork_does_not_block_a_child(self):
        """A lock some parent thread holds at the fork stays held in the
        child, where no thread will release it: children must start
        from a fresh one."""
        with COUNTERS._lock:
            child = multiprocessing.get_context("fork").Process(
                target=_note_after_child_init
            )
            child.start()
        _join(child)
        assert child.exitcode == 0


class TestBudgetPropagation:
    def test_exhausting_deadline_cancels_running_shards(self):
        rel = make_relation(3000, seed=53)
        dep = MD({"name": 0.99}, ["C"])  # text metric: slow verify
        budget = Budget(deadline_s=0.15)
        with execution(backend="scalar"), governed(budget):
            with pytest.raises(BudgetExhausted) as excinfo:
                pairwise_violations(dep, rel, workers=4)
        assert excinfo.value.reason == "deadline"
        run = last_run()
        assert run is not None and run["workers"] == 4
        assert run["exhausted"] == "deadline"
        # The shards' partial work was absorbed into the parent budget.
        assert budget.pairs > 0

    def test_shards_share_a_global_pair_cap(self):
        rel = make_relation(1200, seed=59)
        dep = MFD(["C"], ["B"], 1.0)
        budget = Budget(max_pairs=2000)
        with execution(backend="scalar"), governed(budget):
            with pytest.raises(BudgetExhausted) as excinfo:
                pairwise_violations(dep, rel, workers=4)
        assert excinfo.value.reason == "pairs"
        assert budget.pairs >= 2000

    def test_child_budget_cancellation_propagates_into_shards(self):
        rel = make_relation(3000, seed=61)
        dep = MD({"name": 0.99}, ["C"])
        parent = Budget(deadline_s=30.0)
        stage = parent.child(deadline_s=0.15)
        with execution(backend="scalar"), governed(stage):
            with pytest.raises(BudgetExhausted) as excinfo:
                pairwise_violations(dep, rel, workers=4)
        assert excinfo.value.reason == "deadline"
        # Stage work propagated up the chain; the parent survives.
        assert parent.pairs > 0 and parent.exhausted == ""

    def test_generous_budget_leaves_results_identical(self):
        rel = make_relation(500, seed=67)
        dep = OD(["A"], ["B"])
        serial = pairwise_violations(dep, rel)
        with governed(Budget(deadline_s=60.0, max_pairs=10**9)):
            parallel = pairwise_violations(dep, rel, workers=4)
        assert violation_bytes(parallel) == violation_bytes(serial)
