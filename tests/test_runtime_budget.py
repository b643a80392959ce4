"""Resource budgets: caps, deadlines, partial results, ambient nesting."""

import pytest

from repro.core import FD
from repro.core.numerical import DC, Predicate
from repro.datasets import hotel_r5, random_relation
from repro.discovery import (
    discover_constant_cfds,
    discover_dcs,
    discover_dds,
    discover_ecfds,
    discover_general_cfds,
    discover_mds,
    discover_mvds_bottomup,
    discover_mvds_topdown,
    discover_ods,
    discover_pairwise_ods,
    fastfd,
    tane,
)
from repro.profiler import profile_relation
from repro.quality.repair import repair_dcs, repair_fds
from repro.runtime import (
    Budget,
    BudgetExhausted,
    EngineFault,
    InputError,
    ReproError,
    checkpoint,
    current_budget,
    governed,
)


def hard_relation():
    return random_relation(40, 6, domain_size=4, seed=11)


DISCOVERY_ENTRY_POINTS = [
    pytest.param(lambda r, b: tane(r, budget=b), id="tane"),
    pytest.param(lambda r, b: fastfd(r, budget=b), id="fastfd"),
    pytest.param(lambda r, b: discover_dcs(r, budget=b), id="dc"),
    pytest.param(lambda r, b: discover_dds(r, budget=b), id="dd"),
    pytest.param(
        lambda r, b: discover_mds(r, sorted(r.schema.names())[0], budget=b),
        id="md",
    ),
    pytest.param(
        lambda r, b: discover_constant_cfds(r, budget=b), id="cfd-constant"
    ),
    pytest.param(
        lambda r, b: discover_general_cfds(r, budget=b), id="cfd-general"
    ),
    pytest.param(lambda r, b: discover_ecfds(r, budget=b), id="ecfd"),
    pytest.param(
        lambda r, b: discover_pairwise_ods(r, budget=b), id="od-pairwise"
    ),
    pytest.param(lambda r, b: discover_ods(r, budget=b), id="od"),
    pytest.param(
        lambda r, b: discover_mvds_topdown(r, budget=b), id="mvd-topdown"
    ),
    pytest.param(
        lambda r, b: discover_mvds_bottomup(r, budget=b), id="mvd-bottomup"
    ),
]


class TestBudgetPrimitive:
    def test_candidate_cap_raises_internally(self):
        b = Budget(max_candidates=3)
        b.checkpoint(candidates=3)
        with pytest.raises(BudgetExhausted) as exc:
            b.checkpoint(candidates=1)
        assert exc.value.reason == "candidates"
        assert b.exhausted == "candidates"

    def test_pair_cap(self):
        b = Budget(max_pairs=10)
        with pytest.raises(BudgetExhausted) as exc:
            b.checkpoint(pairs=11)
        assert exc.value.reason == "pairs"

    def test_exhausted_budget_keeps_raising(self):
        b = Budget(max_candidates=1)
        with pytest.raises(BudgetExhausted):
            b.checkpoint(candidates=2)
        with pytest.raises(BudgetExhausted):
            b.checkpoint()

    def test_deadline(self):
        b = Budget(deadline_s=0.0).start()
        with pytest.raises(BudgetExhausted) as exc:
            b.checkpoint()
        assert exc.value.reason == "deadline"

    def test_reset(self):
        b = Budget(max_candidates=1)
        with pytest.raises(BudgetExhausted):
            b.checkpoint(candidates=2)
        b.reset()
        b.checkpoint(candidates=1)
        assert b.candidates == 1
        assert b.exhausted == ""

    def test_unlimited_budget_never_exhausts(self):
        b = Budget()
        for _ in range(100):
            b.checkpoint(candidates=10, pairs=10)
        assert not b.expired()

    def test_checkpoint_is_noop_without_budget(self):
        assert current_budget() is None
        checkpoint(candidates=10**9)  # must not raise

    def test_governed_installs_and_restores(self):
        b = Budget(max_candidates=5)
        with governed(b):
            assert current_budget() is b
            with governed(None):
                # Transparent: the outer budget stays ambient.
                assert current_budget() is b
        assert current_budget() is None

    def test_inner_explicit_budget_wins(self):
        outer, inner = Budget(), Budget()
        with governed(outer):
            with governed(inner):
                assert current_budget() is inner
            assert current_budget() is outer


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(BudgetExhausted, ReproError)
        assert issubclass(EngineFault, ReproError)
        assert issubclass(InputError, ReproError)
        assert issubclass(InputError, ValueError)

    def test_rule_file_error_is_input_error(self):
        from repro.rules_io import RuleFileError

        assert issubclass(RuleFileError, InputError)

    def test_input_error_context_in_message(self):
        exc = InputError("bad cell", row=42, column="price", source="x.csv")
        assert exc.row == 42
        assert exc.column == "price"
        assert "42" in str(exc) and "price" in str(exc)


class TestPartialResults:
    @pytest.mark.parametrize("run", DISCOVERY_ENTRY_POINTS)
    def test_tiny_candidate_cap_returns_partial(self, run):
        r = hard_relation()
        full = run(r, None)
        result = run(r, Budget(max_candidates=1, max_pairs=10**9))
        assert result.stats.complete is False
        assert result.stats.exhausted == "candidates"
        assert "partial" in result.summary()
        # Partial output never exceeds the complete output's size plus
        # sampled-verified salvage.
        assert len(result.dependencies) <= (
            len(full.dependencies) + result.stats.sampled_verified + 50
        )

    @pytest.mark.parametrize("run", DISCOVERY_ENTRY_POINTS)
    def test_expired_deadline_returns_partial_not_raise(self, run):
        r = hard_relation()
        result = run(r, Budget(deadline_s=0.0))
        assert result.stats.complete is False
        assert result.stats.exhausted == "deadline"

    @pytest.mark.parametrize("run", DISCOVERY_ENTRY_POINTS)
    def test_no_budget_and_huge_budget_identical(self, run):
        r = hotel_r5()
        bare = run(r, None)
        governed_run = run(
            r, Budget(deadline_s=3600, max_candidates=10**9, max_pairs=10**12)
        )
        assert list(map(str, bare.dependencies)) == list(
            map(str, governed_run.dependencies)
        )
        assert governed_run.stats.complete is True

    def test_partial_dependencies_are_valid(self):
        r = hard_relation()
        result = tane(r, budget=Budget(max_candidates=8))
        sampled = result.stats.sampled_verified
        exact = result.dependencies[: len(result.dependencies) - sampled]
        for dep in exact:
            assert dep.holds(r)

    def test_ambient_budget_governs_nested_calls(self):
        r = hard_relation()
        b = Budget(max_candidates=1)
        with governed(b):
            result = tane(r)  # budget=None inherits the ambient one
        assert result.stats.complete is False


class TestRepairBudgets:
    def test_repair_fds_partial(self):
        r = random_relation(30, 4, domain_size=2, seed=3)
        fds = [FD([a], [b]) for a in r.schema.names()
               for b in r.schema.names() if a != b]
        repaired, log = repair_fds(r, fds, budget=Budget(max_candidates=1))
        assert log.complete is False
        assert "partial" in log.summary()
        # The untouched path still reports complete.
        __, full_log = repair_fds(r, fds[:1])
        assert full_log.complete is True

    def test_repair_dcs_partial(self):
        r = random_relation(20, 3, domain_size=2, seed=5)
        a, b = sorted(r.schema.names())[:2]
        dc = DC([
            Predicate("a", a, "==", "b", a),
            Predicate("a", b, "!=", "b", b),
        ])
        __, log = repair_dcs(r, [dc], budget=Budget(deadline_s=0.0))
        assert log.complete is False
        assert log.exhausted == "deadline"


class TestProfilerBudget:
    def test_profile_partial_notes(self):
        r = hotel_r5()
        report = profile_relation(r, budget=Budget(max_candidates=1))
        assert any("partial" in n or "exhausted" in n for n in report.notes)

    def test_profile_without_budget_has_no_partial_note(self):
        r = hotel_r5()
        report = profile_relation(r)
        assert not any("exhausted" in n for n in report.notes)


class TestBudgetChild:
    """Deriving stage budgets from a request budget (the server's jobs)."""

    def test_child_counters_propagate_without_resetting_parent(self):
        parent = Budget(max_candidates=100)
        parent.checkpoint(candidates=10)
        child = parent.child()
        child.checkpoint(candidates=5, pairs=3)
        assert parent.candidates == 15
        assert parent.pairs == 3
        # The child starts from zero: its counters are its own work.
        assert child.candidates == 5 and child.pairs == 3
        # Deriving again later sees the accumulated total, not a reset.
        second = parent.child()
        assert second.max_candidates == 100 - 15

    def test_child_caps_clamp_to_parent_headroom(self):
        parent = Budget(max_candidates=10, max_pairs=20)
        parent.checkpoint(candidates=4)
        child = parent.child(max_candidates=100, max_pairs=5)
        assert child.max_candidates == 6  # requested 100 > headroom 6
        assert child.max_pairs == 5  # requested below headroom stands

    def test_child_with_no_args_inherits_remaining_headroom(self):
        parent = Budget(max_candidates=8)
        parent.checkpoint(candidates=3)
        child = parent.child()
        assert child.max_candidates == 5
        assert child.max_pairs is None
        assert child.deadline_s is None

    def test_child_deadline_clamps_to_parent_remaining(self):
        parent = Budget(deadline_s=60.0).start()
        child = parent.child(deadline_s=1e9)
        assert child.deadline_s is not None and child.deadline_s <= 60.0
        tight = parent.child(deadline_s=0.5)
        assert tight.deadline_s == 0.5

    def test_child_exhaustion_does_not_poison_parent(self):
        parent = Budget(max_candidates=10)
        child = parent.child(max_candidates=2)
        with pytest.raises(BudgetExhausted):
            child.checkpoint(candidates=3)
        assert child.exhausted == "candidates"
        assert parent.exhausted == ""
        # Parent still has headroom and keeps governing later stages.
        parent.checkpoint(candidates=1)
        assert parent.candidates == 4  # 3 propagated + 1 direct

    def test_child_work_exhausts_parent_cap_across_stages(self):
        parent = Budget(max_candidates=5)
        first = parent.child()
        first.checkpoint(candidates=4)
        second = parent.child()
        assert second.max_candidates == 1
        with pytest.raises(BudgetExhausted):
            second.checkpoint(candidates=2)
        assert second.exhausted == "candidates"

    def test_grandchild_bills_whole_chain(self):
        root = Budget()
        mid = root.child()
        leaf = mid.child()
        leaf.checkpoint(candidates=2, pairs=7)
        assert (root.candidates, root.pairs) == (2, 7)
        assert (mid.candidates, mid.pairs) == (2, 7)

    def test_child_memory_cap_is_min_of_both(self):
        parent = Budget(max_memory_bytes=1000)
        assert parent.child().max_memory_bytes == 1000
        assert parent.child(max_memory_bytes=500).max_memory_bytes == 500
        assert parent.child(max_memory_bytes=5000).max_memory_bytes == 1000
        free = Budget()
        assert free.child(max_memory_bytes=500).max_memory_bytes == 500

    def test_cancellation_via_exhausted_flag(self):
        # The server cancels running jobs by poisoning the budget; the
        # next checkpoint must raise with the given reason.
        b = Budget()
        b.checkpoint(candidates=1)  # fine while healthy
        b.exhausted = "cancelled"
        with pytest.raises(BudgetExhausted) as err:
            b.checkpoint(candidates=1)
        assert err.value.reason == "cancelled"

    def test_governed_child_drives_engine_partial(self):
        r = hard_relation()
        parent = Budget(max_candidates=3)
        child = parent.child()
        result = tane(r, budget=child)
        assert result.stats.complete is False
        # The engine's work was billed to the parent too.
        assert parent.candidates == child.candidates


class TestExhaustionNeverKillsRules:
    """Regressions for the staticcheck SC008 fixes: mere budget
    exhaustion must never deactivate rules or reject survivors."""

    def _od_detector(self):
        from repro.core.numerical.od import OD
        from repro.incremental.delta import Delta
        from repro.incremental.detector import IncrementalDetector
        from repro.relation import Relation

        rel = Relation.from_rows(
            ["a", "b"], [[i, i] for i in range(50)]
        )
        return (
            IncrementalDetector([OD("a", "b")], rel),
            Delta(inserts=[[99, 98]]),
        )

    def test_mid_batch_deadline_rebuild_keeps_kernel_rules(self):
        # An OD checker cold-rebuilds through the plan kernels, whose
        # checkpoints observe the ambient budget — the rebuild must run
        # under a fresh budget or the deadline marks the rule dead.
        from repro.incremental.delta import Delta

        det, delta = self._od_detector()
        b = Budget(deadline_s=0.0).start()
        with governed(b):
            change = det.apply(delta)
        assert change.complete is False
        assert change.exhausted == "deadline"
        assert det.dead_rules == []
        assert len(det._checkers) == 1
        # The detector stays fully usable after the deadline.
        change = det.apply(Delta(inserts=[[100, 100]]))
        assert change.complete is True

    def test_resume_rule_survives_exhausted_ambient_budget(self):
        det, _ = self._od_detector()
        label = det.rules[0].label()
        assert det.suspend_rule(label)
        b = Budget(deadline_s=0.0).start()
        with governed(b):
            assert det.resume_rule(label)
        assert det.dead_rules == []
        assert len(det._checkers) == 1

    def test_verify_on_sample_is_budget_blind_for_kernel_rules(self):
        from repro.core.numerical.od import OD
        from repro.relation import Relation
        from repro.runtime.budget import verify_on_sample

        rel = Relation.from_rows(
            ["a", "b"], [[i, i] for i in range(50)]
        )
        od = OD("a", "b")
        b = Budget(deadline_s=0.0).start()
        with governed(b):
            survivors = verify_on_sample(rel, [od])
        assert survivors == [od]


class TestKernelLoopsPollBudget:
    """Regression for the SC001 fixes: candidate generators poll the
    budget even when they yield nothing (violation-free data)."""

    def test_sweep_generator_observes_deadline_without_yields(self):
        from repro.core.numerical.od import OD
        from repro.relation import Relation
        from repro.runtime import execution

        # Strictly increasing on both columns: the OD holds, so the
        # sweep yields no candidate pairs — before the fix nothing
        # charged the budget during generation.
        n = 2000
        rel = Relation.from_rows(
            ["a", "b"], [[i, i] for i in range(n)]
        )
        od = OD("a", "b")

        polls = []
        real_checkpoint = Budget.checkpoint

        class CountingBudget(Budget):
            def checkpoint(self, candidates=0, pairs=0):
                polls.append((candidates, pairs))
                return real_checkpoint(
                    self, candidates=candidates, pairs=pairs
                )

        # Force the scalar sweep: the vectorized prep has no
        # per-candidate loop at all on violation-free data.
        with execution(backend="scalar"), governed(CountingBudget()):
            assert od.holds(rel)
        # The generator-side polls are plain checkpoint() calls
        # (0, 0); at least one batch of 256 swept rows must have
        # triggered one for n=2000 rows.
        assert any(c == 0 and p == 0 for c, p in polls)
