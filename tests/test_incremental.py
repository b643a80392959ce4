"""Tests for the incremental validation engine (ISSUE-7 tentpole).

Covers the :class:`~repro.incremental.Delta` model and its validation,
``Relation.apply_delta`` semantics (column sharing, codebook
extension, an empty partition cache), the changefeed contract of
:class:`~repro.incremental.IncrementalDetector`, the mixed-notation
rule-file loader, and the ``repro watch`` CLI.  The statistical
equivalence with cold recomputation lives in
``test_incremental_parity.py``.
"""

import gc
import json
import random
import weakref

import pytest

from repro.cli import main
from repro.core import DC, DD, FD, MD, MFD, MVD, OD, SD, AFD, CFD
from repro.incremental import (
    CHECKER_REGISTRY,
    Delta,
    DeltaError,
    FullRecomputeChecker,
    IncrementalDetector,
    checker_for,
    parse_mutation_log,
)
from repro.incremental.checkers import PairProbeChecker
from repro.relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    StrippedPartition,
)
from repro.relation.partition_cache import cache_for
from repro.rules_io import RuleFileError, load_rules, parse_rule, parse_rules

_C = AttributeType.CATEGORICAL
_N = AttributeType.NUMERICAL


def _rel(rows, names=("a", "b"), numerical=()):
    schema = Schema(
        [
            Attribute(n, _N if n in numerical else _C)
            for n in names
        ]
    )
    return Relation.from_rows(schema, rows)


class TestDeltaModel:
    def test_normalization_sorts_and_dedupes(self):
        d = Delta(deletes=[3, 1, 3], updates=[(2, {"a": "x"}), (0, [("a", "y")])])
        assert d.deletes == (1, 3)
        assert d.updates == ((0, (("a", "y"),)), (2, (("a", "x"),)))

    def test_later_update_wins(self):
        d = Delta(updates=[(1, {"a": "old"}), (1, {"a": "new", "b": "z"})])
        assert d.updates == ((1, (("a", "new"), ("b", "z"))),)

    def test_remap_is_monotone(self):
        d = Delta(deletes=[1, 3])
        assert d.remap(5) == [0, None, 1, None, 2]
        assert Delta().remap(3) == [0, 1, 2]

    def test_new_size(self):
        d = Delta(inserts=[("x", "y")], deletes=[0, 2])
        assert d.new_size(4) == 3

    def test_validate_rejects_out_of_range(self):
        r = _rel([("p", "q")])
        with pytest.raises(DeltaError):
            Delta(deletes=[5]).validate(r)
        with pytest.raises(DeltaError):
            Delta(updates=[(9, {"a": "x"})]).validate(r)
        with pytest.raises(DeltaError):
            Delta(updates=[(0, {"nope": "x"})]).validate(r)
        with pytest.raises(DeltaError):
            Delta(inserts=[("too", "many", "cols")]).validate(r)

    def test_from_json_forms(self):
        r = _rel([("p", "q")])
        d = Delta.from_json(
            {
                "insert": [["x", "y"], {"b": "only"}],
                "update": [{"row": 0, "set": {"a": "z"}}],
                "delete": [0],
            },
            r.schema,
        )
        assert d.inserts == (("x", "y"), (None, "only"))
        assert d.updates == ((0, (("a", "z"),)),)
        with pytest.raises(DeltaError):
            Delta.from_json({"bogus": []}, r.schema)
        with pytest.raises(DeltaError):
            Delta.from_json({"update": [{"row": 0, "set": {}}]}, r.schema)

    def test_parse_mutation_log_skips_blanks_and_comments(self):
        r = _rel([("p", "q")])
        lines = [
            "# header comment",
            "",
            json.dumps({"insert": [["x", "y"]]}),
        ]
        deltas = list(parse_mutation_log(lines, r.schema))
        assert len(deltas) == 1
        assert deltas[0].inserts == (("x", "y"),)

    def test_to_json_emits_the_canonical_wire_format(self):
        d = Delta(
            inserts=[("x", "y")],
            deletes=[2, 0],
            updates=[(1, {"a": "z"})],
        )
        assert d.to_json() == {
            "insert": [["x", "y"]],
            "delete": [0, 2],
            "update": [{"row": 1, "set": {"a": "z"}}],
        }
        assert Delta().to_json() == {}  # empty sections are dropped


# ---------------------------------------------------------------------------
# property: Delta wire-format round trip (the WAL record contract)


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_RT_SCHEMA = Schema(["a", "b"])

# Cell values a batch may legitimately carry: None, bools, ints,
# floats including NaN/±inf (the WAL JSON encoder allows them), text.
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=8),
)

_rows = st.lists(
    st.tuples(_values, _values), max_size=5
)
_deletes = st.lists(
    st.integers(min_value=0, max_value=99), max_size=5
)
_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=99),
        st.dictionaries(
            st.sampled_from(["a", "b"]), _values, min_size=1, max_size=2
        ),
    ),
    max_size=4,
)


def _canonical(payload):
    """NaN-tolerant structural equality via canonical JSON text."""
    return json.dumps(payload, sort_keys=True, allow_nan=True)


class TestDeltaRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(inserts=_rows, deletes=_deletes, updates=_updates)
    def test_to_json_from_json_round_trip(self, inserts, deletes, updates):
        delta = Delta(
            inserts=inserts, deletes=deletes, updates=updates
        )
        wire = delta.to_json()
        # The wire format survives real JSON serialization (this is
        # exactly what a WAL batch record goes through)...
        over_the_wire = json.loads(
            json.dumps(wire, allow_nan=True), parse_constant=float
        )
        back = Delta.from_json(over_the_wire, _RT_SCHEMA)
        # ... and re-encoding the parsed delta is byte-identical:
        # NaN/Infinity, None, -0.0, and mixed insert notations all
        # normalize to one canonical form.
        assert _canonical(back.to_json()) == _canonical(wire)

    @settings(max_examples=50, deadline=None)
    @given(inserts=_rows)
    def test_object_form_inserts_normalize_to_positional(self, inserts):
        names = _RT_SCHEMA.names()
        mixed = {
            "insert": [
                dict(zip(names, row)) if i % 2 else list(row)
                for i, row in enumerate(inserts)
            ]
        }
        positional = Delta.from_json(
            {"insert": [list(r) for r in inserts]}, _RT_SCHEMA
        )
        objectish = Delta.from_json(mixed, _RT_SCHEMA)
        assert _canonical(objectish.to_json()) == _canonical(
            positional.to_json()
        )


class TestApplyDelta:
    def test_order_updates_deletes_inserts(self):
        r = _rel([("a0", "b0"), ("a1", "b1"), ("a2", "b2")])
        d = Delta(
            inserts=[("a3", "b3")],
            deletes=[0],
            updates=[(1, {"b": "patched"}), (0, {"b": "discarded"})],
        )
        out = r.apply_delta(d)
        assert out.rows() == [
            ("a1", "patched"),
            ("a2", "b2"),
            ("a3", "b3"),
        ]

    def test_empty_delta_returns_self(self):
        r = _rel([("p", "q")])
        assert r.apply_delta(Delta()) is r

    def test_untouched_columns_share_tuples(self):
        r = _rel([("a0", "b0"), ("a1", "b1")])
        out = r.apply_delta(Delta(updates=[(0, {"b": "new"})]))
        assert out._columns[0] is r._columns[0]  # column "a" untouched
        assert out._columns[1] == ("new", "b1")

    def test_accepts_json_mapping(self):
        r = _rel([("p", "q")])
        out = r.apply_delta({"insert": [["x", "y"]]})
        assert len(out) == 2


class TestCachePatching:
    """A batch applied to a parent with warm caches: the child builds its
    own groups and partitions, and they match a fresh build."""

    def test_patched_groups_match_fresh(self):
        r = _rel([("k1", "v1"), ("k2", "v2"), ("k1", "v3")])
        r.cached_group_by(["a"])  # warm the parent cache
        r.cached_group_by(["a", "b"])
        out = r.apply_delta(
            Delta(inserts=[("k2", "v4")], deletes=[0], updates=[(1, {"a": "k3"})])
        )
        fresh = Relation.from_rows(out.schema, out.rows())
        for attrs in (["a"], ["a", "b"]):
            assert out.cached_group_by(attrs) == fresh.group_by(attrs)

    def test_patched_partition_matches_fresh(self):
        r = _rel([("k1", "v1"), ("k1", "v2"), ("k2", "v3")])
        cache_for(r).partition(["a"])  # warm
        out = r.apply_delta(Delta(deletes=[1], inserts=[("k2", "v4")]))
        patched = cache_for(out).partition(["a"])
        assert patched == StrippedPartition.from_relation(
            Relation.from_rows(out.schema, out.rows()), ["a"]
        )


class TestCodebookCarry:
    def test_codebooks_extended_on_insert_only(self):
        r = _rel([("k1", "v1"), ("k2", "v2")])
        r.cached_group_by(["a"])  # force encoding build
        if r._enc is None:
            pytest.skip("encoded substrate disabled")
        out = r.apply_delta(Delta(inserts=[("k3", "v1")]))
        assert out._enc is not None
        fresh = Relation.from_rows(out.schema, out.rows())
        cc = out._enc.column_codes(0)
        assert cc.codes == fresh.encoding().column_codes(0).codes
        assert cc.codebook == fresh.encoding().column_codes(0).codebook

    def test_per_column_encoding_inheritance_under_updates(self):
        r = _rel([("k1", "v1"), ("k2", "v2"), ("k1", "v3")])
        r.cached_group_by(["a"])
        r.cached_group_by(["b"])
        if r._enc is None:
            pytest.skip("encoded substrate disabled")
        out = r.apply_delta(
            Delta(updates=[(0, {"a": "k9"})], inserts=[("k2", "v1")])
        )
        # The updated column inherits nothing (patched codes would break
        # first-occurrence order); the untouched one carries its own.
        assert out._enc._per_column[0] is None
        assert out._enc._per_column[1] is not None
        cold = Relation.from_rows(out.schema, out.rows()).encoding()
        for j in (0, 1):
            mine, fresh = out._enc.column_codes(j), cold.column_codes(j)
            assert mine.codes == fresh.codes
            assert mine.values == fresh.values
            assert mine.codebook == fresh.codebook
            assert out._enc.group_table((j,)) == cold.group_table((j,))
        # Update-only: the untouched codebook describes the same cells.
        same = r.apply_delta(Delta(updates=[(2, {"a": "k2"})]))
        assert same._enc._per_column[1] is r._enc._per_column[1]
        # A batch with deletes inherits no codebook at all.
        dropped = r.apply_delta(Delta(deletes=[0], inserts=[("k3", "v9")]))
        assert dropped._enc is None


class TestStaleness:
    """Derived relations never serve stale parent state: each starts
    with an empty partition cache, whatever the parent had cached."""

    def _warmed(self):
        r = _rel(
            [("k1", "v1"), ("k1", "v2"), ("k2", "v3"), ("k3", "v4")],
        )
        r.cached_group_by(["a"])
        r.cached_group_by(["a", "b"])
        cache_for(r).partition(["a"])
        return r

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.take([2, 0]),
            lambda r: r.drop([0, 3]),
            lambda r: r.extend([("k9", "v9")]),
            lambda r: r.with_values(0, {"a": "k2"}),
            lambda r: r.apply_delta(
                Delta(inserts=[("k2", "v9")], updates=[(0, {"a": "k3"})])
            ),
            lambda r: r.apply_delta(
                Delta(
                    inserts=[("k2", "v4")],
                    deletes=[0],
                    updates=[(1, {"a": "k3"})],
                )
            ),
        ],
        ids=[
            "take", "drop", "extend", "with_values",
            "apply_delta", "apply_delta_deletes",
        ],
    )
    def test_mutated_relation_groups_are_fresh(self, mutate):
        r = self._warmed()
        out = mutate(r)
        assert len(cache_for(out)) == 0
        fresh = Relation.from_rows(out.schema, out.rows())
        for attrs in (["a"], ["a", "b"]):
            assert out.cached_group_by(attrs) == fresh.group_by(attrs)
        assert cache_for(out).partition(["a"]) == (
            StrippedPartition.from_relation(fresh, ["a"])
        )
        # And the parent's own cache still answers for the parent.
        assert r.cached_group_by(["a"]) == fresh_parent_groups(r)


def fresh_parent_groups(r):
    return Relation.from_rows(r.schema, r.rows()).group_by(["a"])


class TestSnapshotLifetime:
    """Superseded snapshots die by reference count, caches and all.

    Nothing a snapshot caches — encoding, execution context, partition
    cache — may refer back to it: a cycle leaves every superseded
    snapshot to the cyclic collector, which under steady ingest runs
    rarely enough for them to pile up.
    """

    def test_superseded_snapshots_free_without_gc(self):
        from repro.plan import pairwise_violations
        from repro.runtime import execution

        rng = random.Random(14)

        def row():
            e = rng.randrange(200)
            return (e * 2.0 + rng.uniform(-0.2, 0.2), f"z{e}", f"c{e // 4}")

        r = _rel(
            [row() for __ in range(600)],
            names=("street", "zip", "city"),
            numerical=("street",),
        )
        md = MD({"street": 0.5}, ["zip"])
        refs = []
        gc.disable()
        try:
            with execution(backend="vector"):
                for b in range(5):
                    r = r.apply_delta(
                        Delta(
                            inserts=[row() for __ in range(10)],
                            updates=[(b, {"city": "c-fixed"})],
                        )
                    )
                    refs.append(weakref.ref(r))
                    n = len(r)
                    pairwise_violations(md, r, restrict=set(range(n - 10, n)))
                    cache_for(r).groups(["zip"])
            alive = [b for b, ref in enumerate(refs[:-1]) if ref() is not None]
        finally:
            gc.enable()
        assert alive == []
        assert refs[-1]() is r


class TestChangefeed:
    def _detector(self):
        r = _rel([("k1", "v1"), ("k1", "v1"), ("k2", "v2")])
        return IncrementalDetector([FD("a", "b")], r)

    def test_insert_adds_violations(self):
        det = self._detector()
        change = det.apply(Delta(inserts=[("k1", "CONFLICT")]))
        added = {v.tuples for v in change.added}
        assert added == {(0, 3), (1, 3)}
        assert len(change.resolved) == 0
        assert change.total == 2

    def test_fixing_update_resolves(self):
        det = self._detector()
        det.apply(Delta(inserts=[("k1", "CONFLICT")]))
        change = det.apply(Delta(updates=[(3, {"b": "v1"})]))
        assert {v.tuples for v in change.resolved} == {(0, 3), (1, 3)}
        assert len(change.added) == 0
        assert det.holds()

    def test_shifted_violation_neither_added_nor_resolved(self):
        r = _rel(
            [("z", "z"), ("k1", "v1"), ("k1", "CONFLICT")],
        )
        det = IncrementalDetector([FD("a", "b")], r)
        assert {v.tuples for v in det.violations()} == {(1, 2)}
        change = det.apply(Delta(deletes=[0]))
        assert len(change.added) == 0 and len(change.resolved) == 0
        assert {v.tuples for v in det.violations()} == {(0, 1)}

    def test_delete_resolves(self):
        det = self._detector()
        det.apply(Delta(inserts=[("k1", "CONFLICT")]))
        change = det.apply(Delta(deletes=[3]))
        assert len(change.resolved) == 2
        assert det.holds()

    def test_render_and_summary(self):
        det = self._detector()
        change = det.apply(Delta(inserts=[("k1", "CONFLICT")]))
        assert "batch 1: +2 -0" in change.summary()
        assert change.render(limit=1).count("\n") == 2  # summary + 1 + more
        assert "more changes" in change.render(limit=1)

    def test_matches_batch_detector_report(self):
        from repro.quality import Detector

        det = self._detector()
        det.apply(Delta(inserts=[("k1", "CONFLICT"), ("k2", "v2")]))
        cold = Detector([FD("a", "b")]).detect(
            Relation.from_rows(det.relation.schema, det.relation.rows())
        )
        assert {v.tuples for v in det.report().violations} == {
            v.tuples for v in cold.violations
        }


class TestDispatch:
    def test_registry_covers_issue_families(self):
        assert set(CHECKER_REGISTRY) == {"FD", "AFD", "CFD", "MFD", "DC", "SD"}

    def test_pairwise_rules_use_reprobe(self):
        r = _rel([("x", "1"), ("y", "2")], numerical=("b",))
        c = checker_for(DD({"b": (0, 1)}, {"b": (0, 5)}), r)
        assert isinstance(c, PairProbeChecker)

    def test_unsupported_rule_falls_back(self):
        r = _rel([("x", "1"), ("y", "2")])
        c = checker_for(MVD("a", "b"), r)
        assert type(c) is FullRecomputeChecker


class TestRulesIO:
    def test_parse_each_kind(self):
        rules = parse_rules(
            {
                "rules": [
                    {"kind": "FD", "lhs": ["a"], "rhs": ["b"]},
                    {"kind": "AFD", "lhs": "a", "rhs": "b", "max_error": 0.1},
                    {"kind": "CFD", "lhs": ["a"], "rhs": ["b"],
                     "pattern": {"a": "k1", "b": "_"}},
                    {"kind": "MFD", "lhs": ["a"], "rhs": ["c"], "delta": 2},
                    {"kind": "DD", "lhs": {"c": [0, 1]}, "rhs": {"d": 5}},
                    {"kind": "MD", "lhs": {"a": 1}, "rhs": ["b"]},
                    {"kind": "OD", "lhs": ["c"], "rhs": [["d", ">="]]},
                    {"kind": "SD", "lhs": ["c"], "rhs": "d", "gap": [1, None]},
                    {"kind": "DC", "predicates": [
                        {"attr1": "c", "op": ">", "attr2": "c"},
                        {"attr": "d", "op": ">", "const": 10}]},
                ]
            }
        )
        kinds = [type(r).__name__ for r in rules]
        assert kinds == [
            "FD", "AFD", "CFD", "MFD", "DD", "MD", "OD", "SD", "DC",
        ]

    def test_wildcard_pattern_entries_dropped(self):
        cfd = parse_rule(
            {"kind": "CFD", "lhs": ["a"], "rhs": ["b"],
             "pattern": {"a": "_", "b": "x"}}
        )
        assert "a" not in cfd.pattern.constants()

    def test_known_notation_without_builder(self):
        with pytest.raises(RuleFileError, match="Multivalued"):
            parse_rule({"kind": "MVD", "lhs": ["a"], "rhs": ["b"]})

    def test_unknown_kind_lists_table2(self):
        with pytest.raises(RuleFileError, match="Table 2"):
            parse_rule({"kind": "XYZ"})

    def test_missing_field_and_bad_json(self, tmp_path):
        with pytest.raises(RuleFileError, match="missing"):
            parse_rule({"kind": "FD", "lhs": ["a"]})
        bad = tmp_path / "rules.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(RuleFileError, match="invalid JSON"):
            load_rules(bad)
        with pytest.raises(RuleFileError, match="rules"):
            parse_rules({"no": "rules"})


@pytest.fixture
def watch_files(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text(
        "a,b\nk1,v1\nk1,v1\nk2,v2\n", encoding="utf-8"
    )
    rules = tmp_path / "rules.json"
    rules.write_text(
        json.dumps({"rules": [{"kind": "FD", "lhs": ["a"], "rhs": ["b"]}]}),
        encoding="utf-8",
    )
    log = tmp_path / "log.jsonl"
    log.write_text(
        json.dumps({"insert": [["k1", "BAD"]]})
        + "\n"
        + json.dumps({"delete": [3]})
        + "\n",
        encoding="utf-8",
    )
    return csv, rules, log


class TestWatchCLI:
    def test_replay_clean_exit(self, watch_files, capsys):
        csv, rules, log = watch_files
        code = main(["watch", str(csv), "--rules", str(rules),
                     "--log", str(log)])
        out = capsys.readouterr().out
        assert code == 0
        assert "batch 1: +2 -0" in out
        assert "batch 2: +0 -2" in out
        assert "0 violations remaining" in out

    def test_dirty_final_state_exits_1(self, watch_files, tmp_path, capsys):
        csv, rules, __ = watch_files
        log = tmp_path / "dirty.jsonl"
        log.write_text(
            json.dumps({"insert": [["k1", "BAD"]]}) + "\n", encoding="utf-8"
        )
        code = main(["watch", str(csv), "--rules", str(rules),
                     "--log", str(log)])
        assert code == 1
        assert "2 violations remaining" in capsys.readouterr().out

    def test_bad_batch_exits_2(self, watch_files, tmp_path, capsys):
        csv, rules, __ = watch_files
        log = tmp_path / "bad.jsonl"
        log.write_text('{"delete": [99]}\n', encoding="utf-8")
        code = main(["watch", str(csv), "--rules", str(rules),
                     "--log", str(log)])
        assert code == 2
        assert "bad mutation batch" in capsys.readouterr().out

    def test_check_accepts_rule_file(self, watch_files, capsys):
        csv, rules, __ = watch_files
        code = main(["check", str(csv), "--rules", str(rules)])
        assert code == 0
        assert "[ok]" in capsys.readouterr().out

    def test_check_requires_some_rule(self, watch_files, capsys):
        csv, __, __ = watch_files
        code = main(["check", str(csv)])
        assert code == 2
        assert "nothing to check" in capsys.readouterr().out
