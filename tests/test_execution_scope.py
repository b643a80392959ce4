"""The execution scope: per-thread backend, worker count and counters.

Kernel execution state lives in one :class:`ExecutionScope` per
context, not in process globals, so concurrent callers (server
tenants, a profile next to a check) cannot change each other's backend
or read each other's kernel work.  A scope's counters hold exactly the
work done inside it and fold into the enclosing scope exactly once on
exit, so the root's process totals still see everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.core.heterogeneous.mfd import MFD
from repro.core.numerical.dc import DC, pred2
from repro.core.numerical.od import OD
from repro.datasets import ordered_workload
from repro.plan import (
    COUNTERS,
    KernelCounters,
    denial_violations,
    pairwise_violations,
)
from repro.profiler import profile_relation
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime import current_scope, execution

ROOT = Path(__file__).resolve().parent.parent


def numeric_relation(n: int) -> Relation:
    schema = Schema(
        [Attribute(a, AttributeType.NUMERICAL) for a in ("A", "B")]
    )
    return Relation.from_rows(
        schema, [(float(i % 40), float(i % 7)) for i in range(n)]
    )


def run_checks() -> None:
    """A fixed mix of kernel work on fresh objects (group, sweep, DC)."""
    rel = numeric_relation(600)
    pairwise_violations(MFD(["A"], ["B"], 0.5), rel)
    pairwise_violations(OD(["A"], ["B"]), rel)
    denial_violations(DC([pred2("A", "="), pred2("B", "!=")]), rel)


def totals(counters: KernelCounters) -> dict:
    """Counters as comparable data, with zero-valued entries dropped."""
    snap = counters.snapshot()
    return {
        "executions": snap.executions,
        "pairs_examined": snap.pairs_examined,
        "pairs_total": snap.pairs_total,
        "chunks": snap.chunks,
        **{
            name: {k: v for k, v in getattr(snap, name).items() if v}
            for name in (
                "by_strategy",
                "candidates_by_strategy",
                "verified_by_strategy",
            )
        },
    }


def summed(scopes) -> KernelCounters:
    out = KernelCounters()
    for scope in scopes:
        out.merge(scope.counters)
    return out


class TestThreadIsolation:
    def test_scoped_backend_does_not_leak_into_another_thread(self):
        """While thread A holds a scalar scope, thread B's vector-eligible
        check (n >= 256 under ``auto``) still runs vectorized."""
        rel = numeric_relation(1000)
        dep = MFD(["A"], ["B"], 0.5)
        b_entered, a_entered, release = (
            threading.Event() for _ in range(3)
        )

        def hold_scalar():
            assert b_entered.wait(60)
            with execution(backend="scalar"):
                a_entered.set()
                assert release.wait(60)

        a = threading.Thread(target=hold_scalar)
        a.start()
        try:
            with execution(backend="auto") as scope:
                b_entered.set()
                assert a_entered.wait(60)
                pairwise_violations(dep, rel)
        finally:
            release.set()
            a.join(60)
        assert not a.is_alive()
        strategies = scope.counters.by_strategy
        assert strategies
        assert all(s.startswith("vec-") for s in strategies), strategies

    def test_profile_note_ignores_concurrent_kernel_work(self, monkeypatch):
        """Another thread's check, run while the profile is in its last
        pass, does not move the profile's kernel note."""

        def kernel_note(report):
            [note] = [n for n in report.notes if n.startswith("plan kernels")]
            return note

        alone = kernel_note(
            profile_relation(ordered_workload(600, seed=3).relation)
        )

        import repro.profiler as profiler

        real_sds = profiler.discover_sds
        in_profile, other_done = threading.Event(), threading.Event()

        def sds_after_other_thread(relation):
            in_profile.set()
            assert other_done.wait(60)
            return real_sds(relation)

        def other_check():
            assert in_profile.wait(60)
            try:
                other = ordered_workload(400, seed=9).relation
                pairwise_violations(OD(["t"], ["value"]), other)
            finally:
                other_done.set()

        monkeypatch.setattr(profiler, "discover_sds", sds_after_other_thread)
        thread = threading.Thread(target=other_check)
        thread.start()
        try:
            report = profile_relation(ordered_workload(600, seed=3).relation)
        finally:
            thread.join(60)
        assert not thread.is_alive() and other_done.is_set()
        assert kernel_note(report) == alone

    def test_eight_threads_each_count_only_their_own_work(self):
        with execution() as solo:
            run_checks()
        assert solo.counters.executions == 3
        before = COUNTERS.snapshot()
        scopes: list = [None] * 8
        start = threading.Barrier(8, timeout=60)

        def worker(k):
            start.wait()
            with execution() as scope:
                run_checks()
            scopes[k] = scope

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        # Switch threads often, so a lost update in a fold would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for scope in scopes:
            assert totals(scope.counters) == totals(solo.counters)
        grown = COUNTERS.snapshot().diff(before)
        assert totals(grown) == totals(summed(scopes))


class TestNesting:
    def test_nested_scopes_fold_into_parent_exactly_once(self):
        before = COUNTERS.snapshot()
        with execution() as outer:
            with execution() as inner:
                run_checks()
            assert totals(outer.counters) == totals(inner.counters)
            with pytest.raises(RuntimeError), execution() as failing:
                run_checks()
                raise RuntimeError("body fails")
            assert failing.counters.executions == 3
            assert totals(outer.counters) == totals(summed([inner, failing]))
            # Nothing reaches the root before the outer scope exits.
            assert COUNTERS.snapshot() == before
        assert totals(COUNTERS.snapshot().diff(before)) == totals(
            outer.counters
        )

    def test_child_inherits_what_it_does_not_set(self):
        with execution(backend="scalar", workers=3) as parent:
            assert current_scope() is parent
            with execution() as child:
                assert (child.backend, child.workers) == ("scalar", 3)
            with execution(backend="vector") as child:
                assert (child.backend, child.workers) == ("vector", 3)
            with execution(workers=2) as child:
                assert (child.backend, child.workers) == ("scalar", 2)
            assert current_scope() is parent
        assert current_scope().counters is COUNTERS

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="kernel backend"), execution(
            backend="scaler"
        ):
            pass


def _run_python(args: list[str], backend: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}:{ROOT}"
    env["REPRO_KERNEL_BACKEND"] = backend
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestEnvironmentBackend:
    def test_env_backend_forces_new_threads_and_is_read_once(self):
        """The premise of CI's scalar leg: the variable forces every
        thread, those started later included, and is read only once."""
        code = textwrap.dedent(
            """
            import json, os, threading
            from repro.core.heterogeneous.mfd import MFD
            from repro.plan import pairwise_violations
            from repro.runtime import current_scope, execution
            from tests.test_execution_scope import numeric_relation

            rel = numeric_relation(600)
            runs = []

            def check(backend=None):
                with execution(backend=backend) as scope:
                    pairwise_violations(MFD(["A"], ["B"], 0.5), rel)
                runs.append(sorted(scope.counters.by_strategy))

            for kwargs in ({}, {}, {"backend": "auto"}):
                thread = threading.Thread(target=check, kwargs=kwargs)
                thread.start()
                thread.join()
                os.environ["REPRO_KERNEL_BACKEND"] = "vector"
            print(json.dumps({"runs": runs, "root": current_scope().backend}))
            """
        )
        proc = _run_python(["-c", code], backend="scalar")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        # The last run is the control: the same check vectorizes when
        # its scope asks for auto.
        assert out["runs"] == [["group"], ["group"], ["vec-group"]]
        assert out["root"] == "scalar"

    @pytest.mark.parametrize(
        "command",
        [["plan", str(ROOT / "examples" / "hotel_rules.json")],
         ["serve", "--port", "0"]],
        ids=["plan", "serve"],
    )
    def test_mistyped_backend_is_an_input_error(self, command):
        proc = _run_python(["-m", "repro", *command], backend="scaler")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout.startswith("[error] REPRO_KERNEL_BACKEND='scaler'")
        assert "auto, vector, scalar" in proc.stdout
        assert "kernel backend: auto" not in proc.stdout
