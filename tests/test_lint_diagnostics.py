"""Seeded fixtures for every stable diagnostic code of the analyzer.

One deliberately broken rule (or rule pair) per code DD001..DD009,
checked through :func:`repro.analysis.lint_entries`/``lint_rules`` and
— for the acceptance path — through the ``repro lint`` CLI with its
exit-code contract and ``--fix`` output.  The check/watch wiring
(the :func:`repro.analysis.screen_rules` skip decision, unsatisfiable
fail-fast) is covered at the library and CLI levels.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    CODES,
    Severity,
    lint_entries,
    lint_rules,
    screen_rules,
)
from repro.cli import main
from repro.core.categorical.afd import AFD
from repro.core.categorical.cfd import CFD
from repro.core.categorical.fd import FD
from repro.core.heterogeneous.dd import DD
from repro.core.numerical.dc import DC, pred2, predc
from repro.core.numerical.od import OD
from repro.core.numerical.sd import SD
from repro.relation import Attribute, AttributeType, Schema
from repro.rules_io import parse_rules_with_meta
from repro.runtime import InputError

SCHEMA = Schema(
    [
        Attribute("zip", AttributeType.CATEGORICAL),
        Attribute("city", AttributeType.CATEGORICAL),
        Attribute("price", AttributeType.NUMERICAL),
        Attribute("name", AttributeType.TEXT),
    ]
)


def codes_of(report):
    return [d.code for d in report.diagnostics]


class TestPerRuleDiagnostics:
    def test_dd001_unknown_attribute(self):
        report = lint_rules([FD(["zip"], ["nope"])], schema=SCHEMA)
        assert codes_of(report) == ["DD001"]
        diag = report.diagnostics[0]
        assert diag.severity is Severity.ERROR
        assert "nope" in diag.message

    def test_dd002_order_comparison_on_categorical(self):
        dc = DC([pred2("zip", "<", "zip")])
        report = lint_rules([dc], schema=SCHEMA)
        assert "DD002" in codes_of(report)
        assert all(
            d.severity is not Severity.ERROR
            for d in report.diagnostics
            if d.code == "DD002"
        )

    def test_dd002_metric_on_categorical(self):
        report = lint_rules(
            [DD({"city": (0.0, 2.0)}, {"price": (0.0, 10.0)})],
            schema=SCHEMA,
        )
        assert "DD002" in codes_of(report)

    def test_dd002_sd_gap_on_categorical(self):
        report = lint_rules(
            [SD(["price"], "city", (0.0, 5.0))], schema=SCHEMA
        )
        assert "DD002" in codes_of(report)

    def test_dd003_unsatisfiable_dc(self):
        dc = DC([pred2("price", "<"), pred2("price", ">")])
        report = lint_rules([dc])
        assert codes_of(report) == ["DD003"]
        assert report.has_errors
        assert report.skippable == {0: "unsatisfiable"}

    def test_dd003_constant_interval_contradiction(self):
        dc = DC([predc("price", ">", 5.0), predc("price", "<", 3.0)])
        report = lint_rules([dc])
        assert codes_of(report) == ["DD003"]

    def test_dd004_trivial_fd_not_reported_as_unsatisfiable(self):
        # A trivial FD also compiles to an all-dead plan; DD004 must
        # win over DD003 (it holds everywhere, it doesn't "never fire").
        report = lint_rules([FD(["zip", "city"], ["zip"])])
        assert codes_of(report) == ["DD004"]
        assert report.skippable == {0: "trivial"}

    def test_dd004_trivial_od_and_dd_and_afd(self):
        report = lint_rules(
            [
                OD([("price", "<")], [("price", "<=")]),
                DD({"price": (0.0, 2.0)}, {"price": (0.0, 5.0)}),
                AFD(["zip", "city"], ["city"], 0.1),
            ]
        )
        assert codes_of(report) == ["DD004", "DD004", "DD004"]

    def test_dd005_partially_dead_clauses(self):
        # One live consequent (city) plus one contradicting a guard
        # (zip): exactly one deny clause is dead.
        report = lint_rules([FD(["zip"], ["city", "zip"])])
        assert codes_of(report) == ["DD005"]
        assert not report.has_errors
        assert report.skippable == {}

    def test_dd006_redundant_atom(self):
        dc = DC(
            [
                pred2("price", "<"),
                pred2("price", "<="),
                pred2("city", "="),
            ]
        )
        report = lint_rules([dc])
        assert "DD006" in codes_of(report)
        assert report.max_severity is Severity.INFO


class TestCrossRuleDiagnostics:
    def test_dd007_fd_implied_by_armstrong(self):
        report = lint_rules(
            [FD(["zip"], ["city"]), FD(["zip", "name"], ["city"])]
        )
        assert codes_of(report) == ["DD007"]
        assert report.diagnostics[0].rule == "FD: zip, name -> city"
        assert report.skippable == {1: "implied"}

    def test_dd007_fd_implied_by_wildcard_cfd(self):
        # The family-tree edge: a variable CFD with an all-wildcard
        # pattern is exactly its embedded FD.
        report = lint_rules(
            [CFD(["zip"], ["city"], {}), FD(["zip"], ["city"])]
        )
        assert codes_of(report) == ["DD007"]

    def test_dd007_dd_implied_by_tighter_dd(self):
        looser_lhs_tighter_rhs = DD(
            {"name": (0.0, 5.0)}, {"city": (0.0, 1.0)}
        )
        implied = DD({"name": (0.0, 3.0)}, {"city": (0.0, 2.0)})
        report = lint_rules([looser_lhs_tighter_rhs, implied])
        assert codes_of(report) == ["DD007"]
        assert report.diagnostics[0].location.endswith("rules[1]")

    def test_dd007_od_mark_weakening(self):
        report = lint_rules(
            [
                OD([("price", "<=")], [("name", "<")]),
                OD([("price", "<=")], [("name", "<=")]),
            ]
        )
        assert codes_of(report) == ["DD007"]

    def test_dd007_sd_gap_containment(self):
        report = lint_rules(
            [
                SD(["zip"], "price", (1.0, 2.0)),
                SD(["zip"], "price", (0.0, 5.0)),
            ]
        )
        assert codes_of(report) == ["DD007"]

    def test_fd_implies_afd_but_not_vice_versa(self):
        report = lint_rules(
            [FD(["zip"], ["city"]), AFD(["zip"], ["city"], 0.05)]
        )
        assert codes_of(report) == ["DD007"]
        # Order-independent: the AFD is the implied one either way (an
        # AFD never implies its exact FD, whose g3 tolerance is 0).
        report = lint_rules(
            [AFD(["zip"], ["city"], 0.05), FD(["zip"], ["city"])]
        )
        assert codes_of(report) == ["DD007"]
        assert report.diagnostics[0].rule.startswith("AFD")

    def test_md_does_not_imply_fd(self):
        # Unsound family-tree shortcut (NaN distances escape MDs).
        from repro.core.heterogeneous.md import MD

        report = lint_rules(
            [MD({"name": 0.0}, ["city"]), FD(["name"], ["city"])]
        )
        assert codes_of(report) == []

    def test_dd008_duplicate_rule(self):
        report = lint_rules([FD(["zip"], ["city"]), FD(["zip"], ["city"])])
        assert codes_of(report) == ["DD008"]
        assert report.skippable == {1: "duplicate"}

    def test_dd009_conflicting_sd_gaps(self):
        report = lint_rules(
            [
                SD(["zip"], "price", (0.0, 1.0)),
                SD(["zip"], "price", (2.0, 3.0)),
            ]
        )
        assert codes_of(report) == ["DD009"]
        assert report.has_errors

    def test_dd009_conflicting_od_marks(self):
        report = lint_rules(
            [
                OD([("price", "<")], [("name", "<")]),
                OD([("price", "<")], [("name", ">")]),
            ]
        )
        assert codes_of(report) == ["DD009"]

    def test_dd009_conflicting_constant_cfds(self):
        report = lint_rules(
            [
                CFD(["zip"], ["city"], {"zip": "10001", "city": "NYC"}),
                CFD(["zip"], ["city"], {"zip": "10001", "city": "LA"}),
            ]
        )
        assert codes_of(report) == ["DD009"]

    def test_dd009_conflicting_dd_ranges(self):
        report = lint_rules(
            [
                DD({"name": (0.0, 2.0)}, {"price": (0.0, 1.0)}),
                DD({"name": (0.0, 2.0)}, {"price": (5.0, 9.0)}),
            ]
        )
        assert codes_of(report) == ["DD009"]

    def test_minimal_cover_drops_implied_and_duplicates(self):
        entries = parse_rules_with_meta(
            {
                "rules": [
                    {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]},
                    {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]},
                    {"kind": "FD", "lhs": ["zip", "name"], "rhs": ["city"]},
                    {"kind": "SD", "lhs": ["zip"], "rhs": "price",
                     "gap": [0, 5]},
                ]
            }
        )
        skipped = screen_rules([e.dependency for e in entries])
        assert skipped == {1: "duplicate", 2: "implied"}
        assert [e.index for e in entries if e.index not in skipped] == [0, 3]


class TestEvaluationWiring:
    def test_screen_rules_fast_path(self):
        rules = [
            FD(["zip", "city"], ["zip"]),
            FD(["zip"], ["city"]),
            FD(["zip", "name"], ["city"]),
        ]
        assert screen_rules(rules) == {0: "trivial", 2: "implied"}

    def test_screen_rules_raises_on_unsatisfiable(self):
        rules = [DC([pred2("price", "<"), pred2("price", ">")])]
        with pytest.raises(InputError, match="unsatisfiable"):
            screen_rules(rules)

    # ``repro watch`` screens before it builds its detector and hands
    # the detector only the rules it keeps.
    @pytest.fixture()
    def watch_files(self, tmp_path):
        csv = tmp_path / "watch.csv"
        csv.write_text(
            "zip,city,name\n10001,NYC,a\n10001,LA,a\n", encoding="utf-8"
        )
        log = tmp_path / "log.jsonl"
        log.write_text("", encoding="utf-8")
        return csv, log

    def test_detector_analyze_skips_and_reports(
        self, watch_files, tmp_path, capsys
    ):
        csv, log = watch_files
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "rules": [
                        {"kind": "FD", "lhs": ["zip", "city"],
                         "rhs": ["zip"]},
                        {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]},
                        {"kind": "FD", "lhs": ["zip", "name"],
                         "rhs": ["city"]},
                    ]
                }
            ),
            encoding="utf-8",
        )
        argv = ["watch", str(csv), "--rules", str(rules), "--log", str(log)]
        assert main(argv) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [
            "[skip] FD: zip, city -> zip: statically trivial",
            "[skip] FD: zip, name -> city: statically implied",
            f"watching {csv}: 2 rows, 3 rules (2 skipped by static "
            "analysis), 1 initial violations",
        ]
        # Opt-out checks every rule: the implied one reports too.
        assert main(argv + ["--no-analyze"]) == 1
        out = capsys.readouterr().out
        assert "[skip]" not in out
        assert "3 rules, 2 initial violations" in out

    def test_detector_analyze_raises_on_unsatisfiable(
        self, watch_files, tmp_path, capsys
    ):
        csv, log = watch_files
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "kind": "DC",
                            "predicates": [
                                {"attr1": "zip", "op": "<",
                                 "attr2": "zip"},
                                {"attr1": "zip", "op": ">",
                                 "attr2": "zip"},
                            ],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        argv = ["watch", str(csv), "--rules", str(rules), "--log", str(log)]
        assert main(argv) == 2
        assert "unsatisfiable" in capsys.readouterr().out


@pytest.fixture()
def seeded_rule_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps(
            {
                "rules": [
                    {
                        "id": "unsat-dc",
                        "kind": "DC",
                        "predicates": [
                            {"attr1": "price", "op": "<", "attr2": "price"},
                            {"attr1": "price", "op": ">", "attr2": "price"},
                        ],
                    },
                    {
                        "id": "trivial-fd",
                        "kind": "FD",
                        "lhs": ["zip", "city"],
                        "rhs": ["zip"],
                    },
                    {
                        "id": "zip-city",
                        "kind": "FD",
                        "lhs": ["zip"],
                        "rhs": ["city"],
                    },
                    {
                        "id": "implied-fd",
                        "kind": "FD",
                        "lhs": ["zip", "name"],
                        "rhs": ["city"],
                    },
                ]
            }
        ),
        encoding="utf-8",
    )
    return path


class TestLintCli:
    def test_acceptance_fixture_reports_three_codes(
        self, seeded_rule_file, capsys
    ):
        # ISSUE acceptance: unsatisfiable DC + tautological FD +
        # family-tree-implied rule -> three distinct codes, exit 1.
        assert main(["lint", str(seeded_rule_file)]) == 1
        out = capsys.readouterr().out
        for code, rule in (
            ("DD003", "unsat-dc"),
            ("DD004", "trivial-fd"),
            ("DD007", "implied-fd"),
        ):
            line = next(ln for ln in out.splitlines() if code in ln)
            assert rule in line
            assert "#rules[" in line  # source location is cited

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(
            json.dumps(
                {"rules": [{"kind": "FD", "lhs": ["zip"], "rhs": ["city"]}]}
            ),
            encoding="utf-8",
        )
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_warnings_only_exits_zero(self, tmp_path):
        path = tmp_path / "warn.json"
        path.write_text(
            json.dumps(
                {
                    "rules": [
                        {"kind": "FD", "lhs": ["zip", "city"],
                         "rhs": ["zip"]},
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert main(["lint", str(path)]) == 0

    def test_fix_writes_minimized_rule_set(self, seeded_rule_file, capsys):
        out_path = seeded_rule_file.parent / "fixed.json"
        code = main(
            [
                "lint",
                str(seeded_rule_file),
                "--fix",
                "--output",
                str(out_path),
            ]
        )
        assert code == 1  # findings still reported
        fixed = json.loads(out_path.read_text(encoding="utf-8"))
        assert [r["id"] for r in fixed["rules"]] == ["zip-city"]
        # The minimized file lints clean.
        assert main(["lint", str(out_path)]) == 0

    def test_fix_defaults_to_in_place(self, seeded_rule_file):
        main(["lint", str(seeded_rule_file), "--fix"])
        fixed = json.loads(seeded_rule_file.read_text(encoding="utf-8"))
        assert [r["id"] for r in fixed["rules"]] == ["zip-city"]

    def test_csv_schema_enables_dd001(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        csv.write_text("zip,city\n1,NYC\n", encoding="utf-8")
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {"rules": [{"kind": "FD", "lhs": ["zip"], "rhs": ["nope"]}]}
            ),
            encoding="utf-8",
        )
        assert main(["lint", str(path), "--csv", str(csv)]) == 1
        assert "DD001" in capsys.readouterr().out

    def test_malformed_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["lint", str(path)]) == 2


class TestCheckWatchCli:
    @pytest.fixture()
    def csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "zip,city,name\n10001,NYC,a\n10001,NYC,b\n90210,LA,c\n",
            encoding="utf-8",
        )
        return path

    def test_check_skips_implied_rules_with_stat(
        self, csv, tmp_path, capsys
    ):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "rules": [
                        {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]},
                        {"kind": "FD", "lhs": ["zip", "name"],
                         "rhs": ["city"]},
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert main(["check", str(csv), "--rules", str(rules)]) == 0
        out = capsys.readouterr().out
        assert "[skip]" in out
        assert "statically implied" in out
        assert "1 of 2 rules skipped" in out

    def test_check_fails_fast_on_unsatisfiable(self, csv, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "kind": "DC",
                            "predicates": [
                                {"attr1": "zip", "op": "<",
                                 "attr2": "zip"},
                                {"attr1": "zip", "op": ">",
                                 "attr2": "zip"},
                            ],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert main(["check", str(csv), "--rules", str(rules)]) == 2
        assert "unsatisfiable" in capsys.readouterr().out
        # Opt-out restores the old behaviour (the rule checks vacuously).
        assert (
            main(
                ["check", str(csv), "--rules", str(rules), "--no-analyze"]
            )
            == 0
        )

    def test_check_skips_duplicated_dc(self, tmp_path, capsys):
        csv = tmp_path / "dc.csv"
        csv.write_text("zip,city\n1,A\n1,B\n", encoding="utf-8")
        dc = {
            "kind": "DC",
            "predicates": [
                {"attr1": "zip", "op": "=", "attr2": "zip"},
                {"attr1": "city", "op": "!=", "attr2": "city"},
            ],
        }
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [dc, dc]}), encoding="utf-8")
        assert main(["check", str(csv), "--rules", str(rules)]) == 1
        lines = capsys.readouterr().out.splitlines()
        # The original is checked and fails; its copy is skipped.
        assert [ln.split()[0] for ln in lines if ln.startswith("[")] == [
            "[FAIL]", "[skip]", "[info]"
        ]
        skip = next(ln for ln in lines if ln.startswith("[skip]"))
        assert skip.endswith(": statically duplicate")
        assert "1 of 2 rules skipped" in lines[-1]


class TestDiagnosticVocabulary:
    def test_codes_are_stable_and_complete(self):
        assert list(CODES) == [f"DD00{i}" for i in range(1, 10)]

    def test_render_shape(self):
        from repro.analysis.diagnostics import UNKNOWN_ATTRIBUTE, make

        diag = make(
            UNKNOWN_ATTRIBUTE,
            "r1",
            "no such attribute",
            location="f.json#rules[0]",
            related=("f.json#rules[1]",),
        )
        text = diag.render()
        assert text.startswith("DD001 [error] r1 (f.json#rules[0]):")
        assert text.endswith("[see: f.json#rules[1]]")
