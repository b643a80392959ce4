"""Property tests: incremental checking must equal cold recomputation.

The contract of the ISSUE-7 engine: after any sequence of mutation
batches, :class:`~repro.incremental.IncrementalDetector` holds exactly
the violations a cold :class:`~repro.quality.detection.Detector` finds
on a freshly-built copy of the mutated relation — for every supported
notation (FD, AFD, CFD, MFD, DD, MD, DC, OD, SD) and for fallback
notations (MVD here) alike.  The same random traffic also pins the
substrate invariants ``apply_delta`` relies on: patched partition
caches equal fresh ones, and inherited codebooks equal rebuilt ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AFD, CFD, DC, DD, FD, MD, MFD, MVD, OD, SD, pred2
from repro.incremental import Delta, IncrementalDetector
from repro.quality.detection import Detector
from repro.relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    StrippedPartition,
)
from repro.relation.partition_cache import cache_for

_C = AttributeType.CATEGORICAL
_N = AttributeType.NUMERICAL

SCHEMA = Schema(
    [
        Attribute("A", _C),
        Attribute("B", _C),
        Attribute("C", _N),
        Attribute("D", _N),
    ]
)

CAT = st.sampled_from(["a1", "a2", "a3", "b1", "b2"])
NUM = st.sampled_from([0, 1, 2, 3, 5, -1, 0.5, 2.5])

ROW = st.tuples(CAT, CAT, NUM, NUM)


def _rules():
    return [
        FD("A", "B"),
        AFD("A", "B", 0.3),
        CFD(["A"], ["B"], {"A": "a1"}),
        MFD(["A"], ["C"], 1.0),
        DD({"C": (0, 1)}, {"D": (0, 3)}),
        MD({"A": 1}, ["B"]),
        OD(["C"], ["D"]),
        SD(["C"], "D", (0, 3)),
        DC([pred2("C", ">", "C"), pred2("D", "<", "D")]),
        MVD("A", "B"),  # no incremental strategy: fallback parity
    ]


@st.composite
def relations(draw, min_rows=0, max_rows=14):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    return Relation.from_rows(SCHEMA, [draw(ROW) for __ in range(n)])


@st.composite
def deltas(draw, size):
    """One mutation batch valid against a relation of ``size`` rows."""
    inserts = draw(st.lists(ROW, max_size=3))
    deletes = []
    updates = []
    if size:
        deletes = draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                max_size=2,
                unique=True,
            )
        )
        n_upd = draw(st.integers(min_value=0, max_value=2))
        for __ in range(n_upd):
            row = draw(st.integers(min_value=0, max_value=size - 1))
            attr = draw(st.sampled_from(["A", "B", "C", "D"]))
            value = draw(CAT if attr in ("A", "B") else NUM)
            updates.append((row, {attr: value}))
    return Delta(inserts=inserts, deletes=deletes, updates=updates)


def _keys(violations):
    return {(v.dependency, v.tuples) for v in violations}


@settings(max_examples=50, deadline=None)
@given(relations(), st.data())
def test_detector_matches_cold_recompute(r, data):
    rules = _rules()
    det = IncrementalDetector(rules, r)
    prev_keys = _keys(det.violations())
    for __ in range(data.draw(st.integers(min_value=1, max_value=3))):
        delta = data.draw(deltas(len(det.relation)))
        change = det.apply(delta)

        mutated = det.relation
        fresh = Relation.from_rows(mutated.schema, mutated.rows())
        assert mutated.rows() == fresh.rows()

        cold = Detector(rules).detect(fresh)
        per_rule = det.report().per_rule
        for rule in rules:
            assert _keys(per_rule[rule.label()]) == _keys(
                cold.per_rule[rule.label()]
            ), f"divergence on {rule.label()} after {delta}"
        assert det.holds() == Detector(rules).holds(fresh)

        # Changefeed reconciliation: previous state shifted by the
        # delta, minus resolutions, plus additions, is the new state.
        old_size = len(fresh) + len(delta.deletes) - len(delta.inserts)
        remap = delta.remap(old_size)

        def shift(keys):
            out = set()
            for dep, tuples in keys:
                mapped = tuple(remap[t] for t in tuples)
                if None not in mapped:
                    out.add((dep, mapped))
            return out

        now = _keys(det.violations())
        added = _keys(change.added)
        resolved = shift(_keys(change.resolved))
        survived = shift(prev_keys)
        assert added <= now
        assert added.isdisjoint(survived - resolved)
        assert now == (survived - resolved) | added
        prev_keys = now


@settings(max_examples=60, deadline=None)
@given(relations(min_rows=1), st.data())
def test_patched_caches_match_fresh(r, data):
    # Warm the parent's group/partition caches: whatever the child's
    # cache serves after the batch must equal a fresh build.
    r.cached_group_by(["A"])
    r.cached_group_by(["A", "B"])
    cache_for(r).partition(["A"])
    cache_for(r).partition(["B", "A"])

    delta = data.draw(deltas(len(r)))
    out = r.apply_delta(delta)
    fresh = Relation.from_rows(out.schema, out.rows())

    for attrs in (["A"], ["A", "B"]):
        groups = out.cached_group_by(attrs)
        assert dict(groups) == fresh.group_by(attrs)
        for members in groups.values():
            assert members == sorted(members)
    for pkey in (("A",), ("A", "B")):
        assert cache_for(out).partition(pkey) == (
            StrippedPartition.from_relation(fresh, list(pkey))
        )

    # The parent still answers for its own rows.
    assert dict(r.cached_group_by(["A"])) == (
        Relation.from_rows(r.schema, r.rows()).group_by(["A"])
    )


@settings(max_examples=60, deadline=None)
@given(relations(min_rows=1), st.lists(ROW, min_size=1, max_size=4))
def test_insert_only_codebook_extension_matches_rebuild(r, rows):
    r.cached_group_by(["A", "B"])  # force the encoding to exist
    if r._enc is None:
        pytest.skip("encoded substrate disabled")
    for j in range(len(SCHEMA)):  # build the member lists the batch carries
        r._enc.group_table((j,))
    out = r.apply_delta(Delta(inserts=rows))
    assert out._enc is not None
    rebuilt = Relation.from_rows(out.schema, out.rows()).encoding()
    for j in range(len(SCHEMA)):
        mine = out._enc.column_codes(j)
        fresh = rebuilt.column_codes(j)
        assert mine.codes == fresh.codes
        assert mine.codebook == fresh.codebook
        assert mine.none_code == fresh.none_code
        assert mine.numeric_safe == fresh.numeric_safe
        assert out._enc.group_table((j,)) == rebuilt.group_table((j,))
