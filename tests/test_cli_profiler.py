"""Tests for the profiler and the CLI."""

import os
import random
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import _parse_fd, load_relation, main
from repro.datasets import fd_workload, hotel_r1, hotel_r7
from repro.profiler import profile_relation
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.relation.io import write_csv
from repro.runtime.budget import Budget


@pytest.fixture
def r1_csv(tmp_path):
    path = tmp_path / "r1.csv"
    write_csv(hotel_r1(), path)
    return str(path)


@pytest.fixture
def r7_csv(tmp_path):
    path = tmp_path / "r7.csv"
    write_csv(hotel_r7(), path)
    return str(path)


class TestProfiler:
    def test_profile_r1(self):
        report = profile_relation(hotel_r1())
        categories = set(report.by_category())
        assert any("exact FDs" in c for c in categories)
        text = report.render()
        assert "8 tuples" in text

    def test_profile_dirty_workload_has_soft_and_approximate(self):
        w = fd_workload(120, 12, error_rate=0.05, seed=3)
        report = profile_relation(
            w.relation, epsilon=0.1, max_lhs_size=1, sfd_strength=0.6
        )
        categories = set(report.by_category())
        assert any("approximate FDs" in c for c in categories)
        assert any("soft FDs" in c for c in categories)
        assert any("constant CFDs" in c for c in categories)

    def test_profile_r7_finds_order_rules(self):
        report = profile_relation(hotel_r7())
        ods = report.by_category().get("order dependencies", [])
        assert any("avg/night" in str(r.rule) for r in ods)
        sds = report.by_category().get(
            "sequential dependencies (fitted gaps)", []
        )
        assert sds

    def test_empty_relation_notes(self):
        from repro.relation import Relation

        report = profile_relation(Relation.empty(["a"]))
        assert report.rules == []
        assert report.notes

    def test_pairwise_skip_note(self):
        w = fd_workload(60, 6, seed=1)
        report = profile_relation(w.relation, max_rows_for_pairwise=10)
        assert any("skipped OD" in n for n in report.notes)

    def test_violation_counts_populated(self):
        w = fd_workload(80, 8, error_rate=0.1, seed=2)
        report = profile_relation(w.relation, epsilon=0.2, max_lhs_size=1)
        approx = [
            r
            for r in report.rules
            if r.category.startswith("approximate")
        ]
        assert any(r.violations > 0 for r in approx)


def address_numbers(n: int, seed: int = 1) -> Relation:
    """The numerical columns of address rows: an entity fixes the
    street position and the price band; subtotal and taxes follow the
    day.  Few repeated values, so SD discovery is the profile's main
    pass."""
    rng = random.Random(seed)
    rows = []
    for __ in range(n):
        entity = rng.randrange(max(1, n // 5))
        day = rng.uniform(0.0, 3650.0)
        rows.append((
            round(entity * 2.0 + rng.uniform(-0.2, 0.2), 4),
            round(day, 4),
            round(100.0 + entity % 300 + rng.uniform(-4.0, 4.0), 2),
            round(day * 10.0, 4),
            round(day, 4),
        ))
    names = ("street", "day", "price", "subtotal", "taxes")
    return Relation.from_rows(
        Schema([Attribute(a, AttributeType.NUMERICAL) for a in names]), rows
    )


class TestProfileDeadline:
    @pytest.mark.parametrize("n", [3000, 13800])
    def test_profile_returns_near_its_deadline(self, n):
        relation = address_numbers(n)
        start = time.perf_counter()
        profile_relation(relation, budget=Budget(deadline_s=1))
        assert time.perf_counter() - start < 1.5


def test_cli_import_skips_graph_and_discovery_modules():
    """``repro check`` needs neither networkx nor the discovery stack,
    nor the incremental engine, the quality engines or the datasets
    (``repro`` resolves its top-level names from those on first use)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'"
        " or m.startswith(('repro.discovery', 'repro.profiler',"
        " 'repro.quality', 'repro.incremental', 'repro.datasets'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCLI:
    def test_parse_fd(self):
        dep = _parse_fd("a, b->c")
        assert dep.lhs == ("a", "b") and dep.rhs == ("c",)

    def test_parse_fd_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fd("nonsense")

    def test_load_relation_autodetects_types(self, r1_csv):
        rel = load_relation(r1_csv)
        assert rel.schema["star"].dtype is AttributeType.NUMERICAL
        assert rel.schema["name"].dtype is AttributeType.TEXT

    def test_load_relation_overrides(self, r1_csv):
        rel = load_relation(r1_csv, text=["star"])
        assert rel.schema["star"].dtype is AttributeType.TEXT

    def test_profile_command(self, r1_csv, capsys):
        assert main(["profile", r1_csv]) == 0
        out = capsys.readouterr().out
        assert "exact FDs" in out

    def test_check_command_failure_exit(self, r1_csv, capsys):
        code = main(["check", r1_csv, "--fd", "address->region"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_command_success_exit(self, r1_csv, capsys):
        code = main(["check", r1_csv, "--fd", "address->star"])
        assert code == 0
        assert "[ok]" in capsys.readouterr().out

    def test_check_unknown_attribute(self, r1_csv, capsys):
        code = main(["check", r1_csv, "--fd", "nope->region"])
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-3", "two"])
    @pytest.mark.parametrize(
        "command",
        [["check", "r1.csv", "--fd", "address->region"],
         ["profile", "r1.csv"],
         ["serve"]],
        ids=["check", "profile", "serve"],
    )
    def test_workers_must_be_positive(self, command, count, capsys):
        """A usage error (exit 2), not a traceback with the exit code
        that means "violations found"."""
        with pytest.raises(SystemExit) as exc:
            main([*command, "--workers", count])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --workers: must be a positive integer, got {count!r}" in err

    def test_tree_command(self, capsys):
        assert main(["tree"]) == 0
        assert "Family tree" in capsys.readouterr().out

    def test_survey_command(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Fig. 3" in out

    def test_numerical_profile(self, r7_csv, capsys):
        assert main(["profile", r7_csv]) == 0
        out = capsys.readouterr().out
        assert "order dependencies" in out


def test_python_dash_m_entry_point():
    """``python -m repro`` is the documented CLI entry."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "tree"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "Family tree" in proc.stdout
