"""Seeded fixtures for every stable SC code of the invariant analyzer.

Mirrors ``test_lint_diagnostics.py``: one deliberately broken source
fixture (true positive) and one compliant twin (true negative) per code
SC001..SC008, the SC000 suppression-hygiene contract, and — for the
acceptance path — the ``repro staticcheck`` CLI with its exit-code
contract plus the zero-findings gate over the real ``src/`` tree.
"""

from __future__ import annotations

import json
import os
import textwrap

import repro
from repro.analysis.staticcheck import (
    SC_CODES,
    default_passes,
    load_source,
    render_json,
    render_text,
    run_paths,
)
from repro.analysis.staticcheck.concurrency_passes import (
    AsyncBlockingPass,
    LockOrderPass,
)
from repro.analysis.staticcheck.kernels_passes import (
    BudgetCheckpointPass,
    EngineNeutralityPass,
)
from repro.analysis.staticcheck.findings import RETIRED_CODES
from repro.analysis.staticcheck.memory_passes import ForkSafetyPass
from repro.analysis.staticcheck.reliability_passes import (
    ExceptionDisciplinePass,
    WalBeforeAckPass,
)
from repro.cli import main

SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))


def module_from(text: str, path: str = "pkg/mod.py"):
    return load_source(path, text=textwrap.dedent(text))


def run_pass(check, text: str, path: str = "pkg/mod.py"):
    module = module_from(text, path)
    return list(check.run(module)) + list(check.run_project([module]))


# -- SC001: budget checkpoints in kernel candidate loops ---------------


class TestBudgetCheckpointPass:
    PATH = "pkg/plan/kernels.py"

    def test_guarded_yield_loop_without_checkpoint_fires(self):
        findings = run_pass(
            BudgetCheckpointPass(),
            """
            def gen(rows):
                for r in rows:
                    if r > 0:
                        yield r
            """,
            self.PATH,
        )
        assert [f.code for f in findings] == ["SC001"]
        assert findings[0].context == "gen"

    def test_verify_loop_without_checkpoint_fires(self):
        findings = run_pass(
            BudgetCheckpointPass(),
            """
            def refine(cands, verify):
                out = []
                for c in cands:
                    if verify(c):
                        out.append(c)
                return out
            """,
            self.PATH,
        )
        assert [f.code for f in findings] == ["SC001"]

    def test_checkpointed_loop_is_clean(self):
        findings = run_pass(
            BudgetCheckpointPass(),
            """
            def gen(rows):
                for r in rows:
                    checkpoint()
                    if r > 0:
                        yield r
            """,
            self.PATH,
        )
        assert findings == []

    def test_pure_streaming_loop_is_clean(self):
        # Every iteration yields: the consumer charges per candidate.
        findings = run_pass(
            BudgetCheckpointPass(),
            """
            def gen(rows):
                for r in rows:
                    yield r
            """,
            self.PATH,
        )
        assert findings == []

    def test_non_kernel_module_is_out_of_scope(self):
        findings = run_pass(
            BudgetCheckpointPass(),
            """
            def gen(rows):
                for r in rows:
                    if r > 0:
                        yield r
            """,
            "pkg/analysis/kernels_passes.py",
        )
        assert findings == []


# -- SC002: engine neutrality ------------------------------------------


class TestEngineNeutralityPass:
    PATH = "pkg/plan/kernels_vec.py"

    def test_relation_import_fires(self):
        findings = run_pass(
            EngineNeutralityPass(),
            """
            from ..relation import Relation

            def kernel(ctx):
                return ctx.n
            """,
            self.PATH,
        )
        assert findings and all(f.code == "SC002" for f in findings)

    def test_relation_identifier_fires(self):
        findings = run_pass(
            EngineNeutralityPass(),
            """
            def kernel(relation):
                return len(relation)
            """,
            self.PATH,
        )
        assert findings and all(f.code == "SC002" for f in findings)

    def test_slab_consumer_is_clean(self):
        findings = run_pass(
            EngineNeutralityPass(),
            """
            from .slabs import ExecutionContext

            def kernel(ctx):
                return ctx.column("a")
            """,
            self.PATH,
        )
        assert findings == []


# -- SC004: lock ordering ----------------------------------------------


class TestLockOrderPass:
    def test_opposite_order_cycle_fires(self):
        # Alpha.one holds Alpha._lock while taking Beta._lock (via
        # beta.poke); Beta.poke holds Beta._lock while calling
        # alpha.grab, which takes Alpha._lock — a classic AB/BA cycle.
        findings = run_pass(
            LockOrderPass(),
            """
            import threading

            class Alpha:
                def __init__(self):
                    self._lock = threading.Lock()

                def one(self, beta):
                    with self._lock:
                        beta.poke(self)

                def grab(self):
                    with self._lock:
                        pass

            class Beta:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self, alpha):
                    with self._lock:
                        alpha.grab()
            """,
        )
        assert any(
            f.code == "SC004" and "cycle" in f.message for f in findings
        )

    def test_consistent_order_is_clean(self):
        findings = run_pass(
            LockOrderPass(),
            """
            import threading

            class Alpha:
                def __init__(self):
                    self._lock = threading.Lock()

                def one(self, beta):
                    with self._lock:
                        beta.poke()

            class Beta:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass
            """,
        )
        assert findings == []

    def test_lock_held_across_await_fires(self):
        findings = run_pass(
            LockOrderPass(),
            """
            import asyncio
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                async def bad(self):
                    with self._lock:
                        await asyncio.sleep(0)
            """,
        )
        assert any(
            f.code == "SC004" and "await" in f.message for f in findings
        )

    def test_async_with_async_lock_is_clean(self):
        findings = run_pass(
            LockOrderPass(),
            """
            import asyncio

            class Box:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def fine(self):
                    async with self._lock:
                        await asyncio.sleep(0)
            """,
        )
        assert findings == []


# -- SC005: fork safety ------------------------------------------------


class TestForkSafetyPass:
    def test_unguarded_pool_creation_fires(self):
        findings = run_pass(
            ForkSafetyPass(),
            """
            from concurrent.futures import ProcessPoolExecutor

            def get_pool(n):
                return ProcessPoolExecutor(n)
            """,
        )
        assert [f.code for f in findings] == ["SC005"]
        assert "main_thread" in findings[0].message

    def test_lambda_submit_fires(self):
        findings = run_pass(
            ForkSafetyPass(),
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def run(x):
                if threading.current_thread() is threading.main_thread():
                    pool = ProcessPoolExecutor(2)
                    pool.submit(lambda: x + 1)
            """,
        )
        assert [f.code for f in findings] == ["SC005"]
        assert "lambda" in findings[0].message

    def test_bound_method_submit_fires(self):
        findings = run_pass(
            ForkSafetyPass(),
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def run(worker):
                if threading.current_thread() is threading.main_thread():
                    pool = ProcessPoolExecutor(2)
                    pool.submit(worker.step, 1)
            """,
        )
        assert [f.code for f in findings] == ["SC005"]

    def test_guarded_pool_with_module_level_target_is_clean(self):
        findings = run_pass(
            ForkSafetyPass(),
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor

            def shard_task(blob):
                return blob

            def run(blob):
                if threading.current_thread() is not threading.main_thread():
                    return None
                pool = ProcessPoolExecutor(2)
                return pool.submit(shard_task, blob)
            """,
        )
        assert findings == []


# -- SC006: WAL append before ack --------------------------------------


class TestWalBeforeAckPass:
    PATH = "pkg/server/routes.py"

    def test_commit_before_append_fires(self):
        findings = run_pass(
            WalBeforeAckPass(),
            """
            def apply_batch(app, tenant, delta):
                change = tenant.detector.apply(delta)
                app.durability.log_batch(tenant, delta)
                return change
            """,
            self.PATH,
        )
        assert [f.code for f in findings] == ["SC006"]
        assert "crash" in findings[0].message

    def test_append_then_commit_is_clean(self):
        findings = run_pass(
            WalBeforeAckPass(),
            """
            def apply_batch(app, tenant, delta):
                app.durability.log_batch(tenant, delta)
                change = tenant.detector.apply(delta)
                return change
            """,
            self.PATH,
        )
        assert findings == []

    def test_rule_install_before_append_fires(self):
        findings = run_pass(
            WalBeforeAckPass(),
            """
            def upload(app, tenant, entries, report, payload):
                tenant.install_rules(entries, report.skippable, payload)
                app.durability.log_rules(tenant, payload)
            """,
            self.PATH,
        )
        assert [f.code for f in findings] == ["SC006"]

    def test_non_server_module_is_out_of_scope(self):
        findings = run_pass(
            WalBeforeAckPass(),
            """
            def apply_batch(app, tenant, delta):
                change = tenant.detector.apply(delta)
                app.durability.log_batch(tenant, delta)
                return change
            """,
            "pkg/incremental/detector.py",
        )
        assert findings == []


# -- SC007: blocking calls in async defs -------------------------------


class TestAsyncBlockingPass:
    def test_direct_blocking_call_fires(self):
        findings = run_pass(
            AsyncBlockingPass(),
            """
            async def handler(request, app):
                report = app.engine.violations(request.tenant)
                return report
            """,
        )
        assert [f.code for f in findings] == ["SC007"]
        assert "violations" in findings[0].message

    def test_time_sleep_fires_but_asyncio_sleep_does_not(self):
        findings = run_pass(
            AsyncBlockingPass(),
            """
            import asyncio
            import time

            async def handler():
                time.sleep(1)
                await asyncio.sleep(1)
            """,
        )
        assert [f.code for f in findings] == ["SC007"]
        assert "time.sleep" in findings[0].message

    def test_run_sync_wrapped_work_is_clean(self):
        # The lambda/nested-def is its own scope: the blocking call
        # executes on the worker thread, not the event loop.
        findings = run_pass(
            AsyncBlockingPass(),
            """
            async def handler(request, app):
                return await app.run_sync(
                    lambda: app.engine.violations(request.tenant)
                )
            """,
        )
        assert findings == []


# -- SC008: exception discipline ---------------------------------------


class TestExceptionDisciplinePass:
    def test_broad_handler_fires(self):
        findings = run_pass(
            ExceptionDisciplinePass(),
            """
            def f():
                try:
                    g()
                except Exception:
                    return None
            """,
        )
        assert [f.code for f in findings] == ["SC008"]

    def test_bare_except_fires(self):
        findings = run_pass(
            ExceptionDisciplinePass(),
            """
            def f():
                try:
                    g()
                except:
                    return None
            """,
        )
        assert [f.code for f in findings] == ["SC008"]

    def test_earlier_budget_clause_exempts(self):
        findings = run_pass(
            ExceptionDisciplinePass(),
            """
            def f():
                try:
                    g()
                except BudgetExhausted:
                    raise
                except Exception:
                    return None
            """,
        )
        assert findings == []

    def test_reraising_handler_is_clean(self):
        findings = run_pass(
            ExceptionDisciplinePass(),
            """
            def f():
                try:
                    g()
                except Exception as exc:
                    log(exc)
                    raise
            """,
        )
        assert findings == []

    def test_narrow_handler_is_clean(self):
        findings = run_pass(
            ExceptionDisciplinePass(),
            """
            def f():
                try:
                    g()
                except (ValueError, OSError):
                    return None
            """,
        )
        assert findings == []


# -- SC000 + suppressions ----------------------------------------------


class TestSuppressions:
    def test_suppression_with_reason_silences(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(
            """
            def f():
                try:
                    g()
                # staticcheck: disable=SC008 — boundary: error is
                # surfaced on the job record, not swallowed.
                except Exception:
                    return None
            """
        ))
        report = run_paths([str(path)])
        assert report.findings == []
        assert len(report.suppressed) == 1
        finding, sup = report.suppressed[0]
        assert finding.code == "SC008"
        assert "boundary" in sup.reason

    def test_suppression_without_reason_is_sc000(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(
            """
            def f():
                try:
                    g()
                except Exception:  # staticcheck: disable=SC008
                    return None
            """
        ))
        report = run_paths([str(path)])
        codes = sorted(f.code for f in report.findings)
        # The suppression is rejected (SC000) and therefore does NOT
        # silence the underlying SC008.
        assert codes == ["SC000", "SC008"]

    def test_invalid_code_is_sc000(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "x = 1  # staticcheck: disable=SC9999 — nonsense\n"
        )
        report = run_paths([str(path)])
        assert [f.code for f in report.findings] == ["SC000"]

    def test_string_literal_is_not_a_suppression(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            's = "# staticcheck: disable=SC008"\n'
        )
        report = run_paths([str(path)])
        assert report.findings == []

    def test_syntax_error_file_is_reported(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        report = run_paths([str(path)])
        assert [f.code for f in report.findings] == ["SC000"]
        assert "does not parse" in report.findings[0].message


# -- runner, baseline, registry ----------------------------------------


class TestRunner:
    def test_every_code_is_registered(self):
        assert sorted(SC_CODES) == [
            "SC000", "SC001", "SC002",
            "SC004", "SC005", "SC006", "SC007", "SC008",
        ]
        # Retired numbers stay reserved: never registered again.
        assert sorted(RETIRED_CODES) == ["SC003"]
        assert not set(RETIRED_CODES) & set(SC_CODES)
        pass_codes = {p.code for p in default_passes()}
        assert pass_codes == set(SC_CODES) - {"SC000"}

    def test_baseline_waives_known_findings(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(textwrap.dedent(
            """
            def f():
                try:
                    g()
                except Exception:
                    return None
            """
        ))
        first = run_paths([str(bad)])
        assert len(first.findings) == 1
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(render_json(first)))
        from repro.analysis.staticcheck import load_baseline

        second = run_paths(
            [str(bad)], baseline=load_baseline(str(baseline_file))
        )
        assert second.findings == []
        assert len(second.baselined) == 1

    def test_render_text_and_json_shapes(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(textwrap.dedent(
            """
            def f():
                try:
                    g()
                except Exception:
                    return None
            """
        ))
        report = run_paths([str(bad)])
        text = render_text(report)
        assert "SC008" in text and "1 finding(s)" in text
        payload = render_json(report)
        assert payload["counts"] == {"SC008": 1}
        assert payload["findings"][0]["code"] == "SC008"


# -- acceptance: the real tree and the CLI -----------------------------


class TestAcceptance:
    def test_src_tree_is_clean(self):
        report = run_paths([SRC_ROOT])
        rendered = render_text(report)
        assert report.findings == [], rendered
        # Every suppression in the tree carries a written reason.
        assert all(sup.reason for _, sup in report.suppressed)

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["staticcheck", str(good)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent(
            """
            def f():
                try:
                    g()
                except Exception:
                    return None
            """
        ))
        assert main(["staticcheck", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SC008" in out

    def test_cli_json_format(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["staticcheck", str(good), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_cli_baseline_flow(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent(
            """
            def f():
                try:
                    g()
                except Exception:
                    return None
            """
        ))
        assert main(
            ["staticcheck", str(bad), "--format", "json"]
        ) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(
            ["staticcheck", str(bad), "--baseline", str(baseline)]
        ) == 0
