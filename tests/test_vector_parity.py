"""Property tests: both kernel backends must agree with the oracles.

``test_plan_parity`` pins the plan kernels to the all-pairs reference
scans of ``tests/oracles.py``; this suite forces each backend in turn —
the scalar kernels under ``execution(backend="scalar")`` and the
columnar kernels of ``repro.plan.kernels_vec`` under
``execution(backend="vector")`` — and drives both to the oracle's
violation lists over the same hostile value pool
(``None``/NaN/bool/int/float/str), plus the edge
regimes the batch code paths are most likely to get wrong: all-NaN and
all-``None`` columns, empty and single-row relations, ``restrict=``
and ``first_only=``.  The guard-plan measures (MD/CMD matches, CD
confidence, PAC pair counts, NED support) must equal the all-pairs
guard scan.  Non-vectorizable plans (opaque predicates, string order
columns, text metrics) must *fall back* to the scalar kernels, which is
asserted through the backend-aware counters of the scope the check
ran in.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.heterogeneous.cd import CD, SimilarityFunction
from repro.core.heterogeneous.dd import CDD, DD
from repro.core.heterogeneous.ffd import FFD
from repro.core.heterogeneous.md import CMD, MD
from repro.core.heterogeneous.mfd import MFD
from repro.core.heterogeneous.ned import NED
from repro.core.heterogeneous.pac import PAC
from repro.core.categorical.fd import FD
from repro.core.numerical.dc import DC, pred2, predc
from repro.core.numerical.od import OD
from repro.core.numerical.ofd import OFD
from repro.incremental import Delta
from repro.plan import (
    denial_violations,
    pairwise_violations,
    plan_for,
)
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime import execution

from . import oracles

# A single shared NaN object: dict-key semantics (identity shortcut)
# make repeated occurrences group together; all paths must agree.
NAN = float("nan")

MIXED = st.sampled_from(
    [None, 0, 1, 2, 3, True, False, 1.0, 2.5, -1, "x", "y", "", NAN]
)

#: Numeric-only pool (plus missing data): exercises the float
#: projections, ``searchsorted`` windows and ``abs_diff`` corrections.
NUMERIC = st.sampled_from(
    [None, 0, 1, 2, 3, True, False, 1.0, 2.5, -1.0, 100, NAN]
)


@st.composite
def relations(draw, pool=MIXED, attr_type=AttributeType.CATEGORICAL,
              max_rows=16):
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    schema = Schema([Attribute(f"A{c}", attr_type) for c in range(3)])
    rows = [tuple(draw(pool) for __ in range(3)) for __ in range(n_rows)]
    return Relation.from_rows(schema, rows)


def make_dependencies():
    """One representative per plan-compiled notation, over A0..A2."""
    return [
        FD(["A0"], ["A1"]),
        FD(["A0", "A1"], ["A2"]),
        MFD(["A0"], ["A1"], 1.0),
        NED({"A0": 2.0}, {"A1": 1.0}),
        DD({"A0": ("<=", 2.0)}, {"A1": (">", 1.0)}),
        CDD({"A0": ("<=", 2.0)}, {"A1": (">", 1.0)}, {"A2": "x"}),
        MD({"A0": 2.0}, ["A1"]),
        CMD({"A0": 2.0}, "A1", {"A2": 1}),
        PAC({"A0": 2.0}, {"A1": 1.0}, 0.8),
        OD([("A0", "<=")], [("A1", "<=")]),
        OD([("A0", "<")], [("A1", ">=")]),
        OFD(["A0"], ["A1"], ordering="pointwise"),
        DC([pred2("A0", "="), pred2("A1", "!=")]),
        DC([pred2("A0", "<="), pred2("A1", ">")]),
        DC([pred2("A0", "<", "A1")]),
        DC([predc("A0", ">", 1.0), predc("A1", "<=", 2.0)]),
        DC([pred2("A0", "="), predc("A2", "=", "x")]),
    ]


def snapshot(dep, relation):
    return [(v.tuples, v.reason) for v in dep.violations(relation)]


def three_way(dep, relation):
    """(oracle, scalar-plan, vectorized-plan) reports.

    FD keeps its own group scan, with its own pair order and reasons,
    so its reports reduce to violating tuple sets.
    """
    with execution(backend="scalar"):
        scalar = snapshot(dep, relation)
    with execution(backend="vector"):
        vector = snapshot(dep, relation)
    reports = (oracles.violations(dep, relation), scalar, vector)
    if isinstance(dep, FD):
        return tuple({t for t, __ in report} for report in reports)
    return reports


@given(relations())
@settings(max_examples=40, deadline=None)
def test_three_way_parity_mixed(relation):
    for dep in make_dependencies():
        oracle, scalar, vector = three_way(dep, relation)
        assert scalar == oracle, f"scalar divergence for {dep.label()}"
        assert vector == oracle, f"vector divergence for {dep.label()}"


@given(relations(pool=NUMERIC, attr_type=AttributeType.NUMERICAL))
@settings(max_examples=40, deadline=None)
def test_three_way_parity_numeric(relation):
    """NUMERICAL attributes resolve abs_diff: the vec-metric path."""
    for dep in make_dependencies():
        oracle, scalar, vector = three_way(dep, relation)
        assert scalar == oracle, f"scalar divergence for {dep.label()}"
        assert vector == oracle, f"vector divergence for {dep.label()}"


#: One guard-plan measure per notation that has one, with its all-pairs
#: reference.  CMD's guard omits its condition, like ``MD.matches``.
GUARD_MEASURES = [
    (MD({"A0": 2.0}, ["A1"]), MD.matches, oracles.md_matches),
    (CMD({"A0": 2.0}, "A1", {"A2": 1}), CMD.matches, oracles.md_matches),
    (
        CD(
            [SimilarityFunction("A0", "A1", threshold_ij=2.0)],
            SimilarityFunction("A1", "A2", threshold_ij=1.0),
        ),
        CD.confidence,
        oracles.cd_confidence,
    ),
    (
        PAC({"A0": 2.0}, {"A1": 1.0}, 0.8),
        PAC.pair_counts,
        oracles.pac_pair_counts,
    ),
    (
        NED({"A0": 2.0}, {"A1": 1.0}),
        NED.support_and_confidence,
        oracles.ned_support_and_confidence,
    ),
]


@given(
    st.one_of(
        relations(),
        relations(pool=NUMERIC, attr_type=AttributeType.NUMERICAL),
    )
)
@settings(max_examples=60, deadline=None)
def test_guard_measures_match_all_pairs_scan(relation):
    """Guard plans prune the pair space of the LHS-selected measures;
    both backends must still select exactly the all-pairs scan's pairs,
    in order, and the measures built on them must match exactly."""
    for dep, measure, reference in GUARD_MEASURES:
        expected = reference(dep, relation)
        for backend in ("scalar", "vector"):
            with execution(backend=backend):
                got = measure(dep, relation)
            assert got == expected, (backend, dep.label())


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=10, deadline=None)
def test_degenerate_columns(n_rows):
    """All-NaN, all-None and constant columns, in every combination."""
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(3)]
    )
    for cols in (
        (NAN, None, 1.0),
        (None, None, None),
        (NAN, NAN, NAN),
        (None, NAN, NAN),
        (1.0, None, NAN),
    ):
        relation = Relation.from_rows(schema, [cols] * n_rows)
        for dep in make_dependencies():
            oracle, scalar, vector = three_way(dep, relation)
            assert scalar == oracle, (dep.label(), cols)
            assert vector == oracle, (dep.label(), cols)


def test_empty_and_single_row():
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(3)]
    )
    for rows in ([], [(1.0, 2.0, 3.0)]):
        relation = Relation.from_rows(schema, rows)
        for dep in make_dependencies():
            oracle, scalar, vector = three_way(dep, relation)
            assert scalar == oracle == vector, dep.label()


@given(
    relations(pool=NUMERIC, attr_type=AttributeType.NUMERICAL),
    st.sets(st.integers(min_value=0, max_value=15)),
)
@settings(max_examples=30, deadline=None)
def test_restrict_parity_vectorized(relation, restrict):
    restrict = {r for r in restrict if r < len(relation)}
    pairwise = [
        d
        for d in make_dependencies()
        if hasattr(type(d), "pair_violation") and not isinstance(d, PAC)
    ]
    for dep in pairwise:
        expected = oracles.pair_violations(dep, relation, restrict)
        with execution(backend="vector"):
            got = [
                (v.tuples, v.reason)
                for v in pairwise_violations(dep, relation, restrict=restrict)
            ]
        assert got == expected, f"restrict divergence for {dep.label()}"


@given(relations(pool=NUMERIC, attr_type=AttributeType.NUMERICAL))
@settings(max_examples=30, deadline=None)
def test_first_only_matches_existence_vectorized(relation):
    pairwise = [
        d
        for d in make_dependencies()
        if hasattr(type(d), "pair_violation") and not isinstance(d, PAC)
    ]
    for dep in pairwise:
        with execution(backend="vector"):
            first = pairwise_violations(dep, relation, first_only=True)
        assert bool(first) == bool(oracles.pair_violations(dep, relation)), (
            f"first_only divergence for {dep.label()}"
        )


# -- fallback and counter contracts ------------------------------------------


def _rows_numeric(n):
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(3)]
    )
    return Relation.from_rows(
        schema, [(float(i % 7), float(i % 5), float(i % 3)) for i in range(n)]
    )


def test_static_fallback_counter_asserted():
    """Opaque-atom plans must run scalar even under forced vector."""
    relation = _rows_numeric(12)
    deps = [
        CD(
            [SimilarityFunction("A0", "A1", threshold_ij=2.0)],
            SimilarityFunction("A1", "A2", threshold_ij=1.0),
        ),
        FFD(["A0"], ["A1"]),
        OFD(["A0", "A1"], ["A2"], ordering="lex"),
    ]
    for dep in deps:
        assert not plan_for(dep).vector_eligible, dep.label()
        with execution(backend="vector") as scope:
            got = snapshot(dep, relation)
        counters = scope.counters
        assert got == oracles.violations(dep, relation), dep.label()
        assert counters.by_strategy, dep.label()
        assert not any(
            s.startswith("vec-") for s in counters.by_strategy
        ), (dep.label(), counters.by_strategy)
        assert counters.backends().get("scalar"), dep.label()


def test_dynamic_fallback_string_order_columns():
    """A vector-eligible OD plan still falls back on string columns."""
    schema = Schema(
        [Attribute("A0", AttributeType.CATEGORICAL),
         Attribute("A1", AttributeType.CATEGORICAL)]
    )
    relation = Relation.from_rows(
        schema, [(chr(97 + i % 9), chr(97 + i % 7)) for i in range(24)]
    )
    dep = OD([("A0", "<=")], [("A1", "<=")])
    assert plan_for(dep).vector_eligible
    with execution(backend="vector") as scope:
        got = snapshot(dep, relation)
    counters = scope.counters
    assert got == oracles.violations(dep, relation)
    assert not any(s.startswith("vec-") for s in counters.by_strategy)
    assert counters.backends() == {"scalar": counters.executions}


def test_vectorized_counters_recorded():
    # MFD routes through execute_pairs (FD has a bespoke group engine)
    # and its equality guard selects the group strategy.
    relation = _rows_numeric(32)
    dep = MFD(["A0"], ["A1"], 0.5)
    with execution(backend="vector") as scope:
        got = snapshot(dep, relation)
    counters = scope.counters
    assert got == oracles.violations(dep, relation)
    assert counters.by_strategy.get("vec-group")
    assert counters.chunks > 0
    assert counters.candidates_by_strategy.get("vec-group", 0) > 0
    assert counters.verified_by_strategy.get("vec-group", 0) == len(got)
    assert counters.backends() == {"vectorized": counters.executions}


def test_pruned_fraction_zero_candidate_guard():
    """No recorded pair space must yield 0.0, not a division error."""
    relation = Relation.from_rows(
        Schema([Attribute("A0", AttributeType.NUMERICAL)]), []
    )
    dep = FD(["A0"], ["A0"])
    with execution(backend="vector") as scope:
        assert scope.counters.pruned_fraction() == 0.0
        assert snapshot(dep, relation) == []
    assert scope.counters.pruned_fraction() == 0.0


# ---------------------------------------------------------------------------
# extend/apply_delta must not leak stale kernel caches (server ingest path)


def _numeric_relation(values):
    schema = Schema([Attribute("v", AttributeType.NUMERICAL)])
    return Relation.from_rows(schema, [(v,) for v in values])


def test_extend_patches_sorted_projection_cache():
    """extend() carries the encoding forward with exact patched caches."""
    import numpy as np

    base = _numeric_relation([5.0, 1.0, 3.0, None, 3.0])
    # Warm every kernel cache on the parent.
    enc = base.encoding()
    enc.float_array(0)
    enc.valid_array(0)
    enc.sorted_projection(0)

    child = base.extend([(2.0,), (3.0,), (None,), (0.5,)])
    got_rows, got_vals = child.encoding().sorted_projection(0)

    cold = _numeric_relation([5.0, 1.0, 3.0, None, 3.0, 2.0, 3.0, None, 0.5])
    want_rows, want_vals = cold.encoding().sorted_projection(0)
    # Exact equality including tie order (stable-sort semantics).
    assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_vals, want_vals)
    assert np.array_equal(child.encoding().float_array(0),
                          cold.encoding().float_array(0), equal_nan=True)
    assert np.array_equal(child.encoding().valid_array(0),
                          cold.encoding().valid_array(0))
    # The parent's caches are untouched (immutable, still 5 rows).
    assert len(base.encoding().float_array(0)) == 5


def test_extend_numeric_safety_flip_drops_float_caches():
    """A tail value that breaks numeric safety must invalidate, not patch."""
    base = _numeric_relation([1.0, 2.0])
    enc = base.encoding()
    enc.sorted_projection(0)
    child = base.extend([("not-a-number",)])
    cc = child.encoding().column_codes(0)
    assert cc.numeric_safe is False
    assert cc._floats is None and cc._sorted is None


def test_extend_then_check_parity_vector_backend():
    """Stale-cache regression: extend-then-check equals a cold check."""
    schema = Schema([
        Attribute("a", AttributeType.NUMERICAL),
        Attribute("b", AttributeType.NUMERICAL),
    ])
    head = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (None, 5.0)]
    tail = [(2.0, 25.0), (0.5, 40.0), (3.0, 30.0)]
    dep = OD(["a"], [("b", ">=")])

    warm = Relation.from_rows(schema, head)
    plan = plan_for(dep)
    with execution(backend="vector"):
        # Warm the sorted projections on the pre-extension relation...
        before = snapshot(dep, warm)
        # ...then extend and re-check through the patched caches.
        extended = warm.extend(tail)
        got = snapshot(dep, extended)
        cold = snapshot(dep, Relation.from_rows(schema, head + tail))
    assert plan is not None
    assert got == cold
    assert before != got  # the tail does change the answer


def test_apply_delta_insert_only_check_parity_vector_backend():
    schema = Schema([
        Attribute("a", AttributeType.NUMERICAL),
        Attribute("b", AttributeType.NUMERICAL),
    ])
    head = [(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]
    dep = DC([pred2("a", "<", "a"), pred2("b", ">=", "b")])

    warm = Relation.from_rows(schema, head)
    with execution(backend="vector"):
        snapshot(dep, warm)  # warm caches
        stepped = warm.apply_delta(
            {"insert": [[1.5, 100.0], [2.5, 0.25]]}
        )
        got = snapshot(dep, stepped)
        cold = snapshot(
            dep,
            Relation.from_rows(schema, head + [(1.5, 100.0), (2.5, 0.25)]),
        )
    assert got == cold


# ---------------------------------------------------------------------------
# apply_delta carries built codebooks through insert+update batches


#: Tail cells per column: mostly numeric, sometimes an ``np.int64``
#: twin of an int (same code, different sweep kind) or — outside the MD
#: metric column A0, whose distance needs numbers — a string (flips
#: numeric safety and the kind).
CARRY_CELLS = [
    st.one_of(NUMERIC, NUMERIC, NUMERIC, st.sampled_from([5, np.int64(5)])),
    st.one_of(NUMERIC, NUMERIC, st.sampled_from(["x", "y", 5, np.int64(5)])),
    st.one_of(NUMERIC, NUMERIC, st.sampled_from(["x", "y", 5, np.int64(5)])),
]


@st.composite
def carry_sequences(draw):
    """A numeric start relation plus insert+update batches (no deletes)."""
    rows = [
        tuple(draw(NUMERIC) for __ in range(3))
        for __ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    n = len(rows)
    batches = []
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        inserts = [
            tuple(draw(cells) for cells in CARRY_CELLS)
            for __ in range(draw(st.integers(min_value=0, max_value=3)))
        ]
        updates = []
        for __ in range(draw(st.integers(0, 2) if n else st.just(0))):
            c = draw(st.integers(0, 2))
            row = draw(st.integers(min_value=0, max_value=n - 1))
            updates.append((row, {f"A{c}": draw(CARRY_CELLS[c])}))
        batches.append(Delta(inserts=inserts, updates=updates))
        n += len(inserts)
    return rows, batches


def _warm(relation):
    """Build every kernel cache a re-probe would: gather, sort, kind."""
    enc = relation.encoding()
    for j in range(len(relation.schema)):
        enc.gather(j)
        enc.column_kind(j)
        if enc.column_codes(j).numeric_safe:
            enc.sorted_projection(j)


def _assert_same_codebook(mine, cold, column):
    assert mine.codes == cold.codes
    assert mine.values == cold.values
    assert mine.codebook == cold.codebook
    assert mine.none_code == cold.none_code
    assert mine.numeric_safe == cold.numeric_safe
    assert mine.self_unequal == cold.self_unequal
    assert mine.kind(column) == cold.kind(column)
    assert np.array_equal(mine.valid_array(), cold.valid_array())
    if cold.numeric_safe:
        assert np.array_equal(
            mine.float_array(column), cold.float_array(column),
            equal_nan=True,
        )
        for got, want in zip(
            mine.sorted_projection(column), cold.sorted_projection(column),
            strict=True,
        ):
            assert np.array_equal(got, want)


CARRY_DEPS = [
    MD({"A0": 2.0}, ["A1"]),
    OD([("A0", "<=")], [("A1", "<=")]),
    DC([pred2("A0", "<="), pred2("A1", ">")]),
]


def _restricted(dep, relation, restrict):
    check = denial_violations if isinstance(dep, DC) else pairwise_violations
    with execution(backend="vector"):
        return [
            (v.tuples, v.reason)
            for v in check(dep, relation, restrict=restrict)
        ]


@given(carry_sequences())
@settings(max_examples=60, deadline=None)
def test_carried_codebooks_match_cold_build(sequence):
    rows, batches = sequence
    schema = Schema(
        [Attribute(f"A{c}", AttributeType.NUMERICAL) for c in range(3)]
    )
    relation = Relation.from_rows(schema, rows)
    for delta in batches:
        _warm(relation)
        relation = relation.apply_delta(delta)
        cold_relation = Relation.from_rows(schema, relation.rows())
        cold = cold_relation.encoding()
        assigned = {
            schema.index_of(a) for __, cells in delta.updates for a, __v in cells
        }
        for j in range(3):
            carried = relation.encoding()._per_column[j]
            if j in assigned:
                assert carried is None
                continue
            assert carried is not None
            _assert_same_codebook(
                carried, cold.column_codes(j), relation._columns[j]
            )
        n_new = len(relation) - len(delta.inserts)
        restrict = {row for row, __ in delta.updates}
        restrict.update(range(n_new, len(relation)))
        for dep in CARRY_DEPS:
            assert _restricted(dep, relation, restrict) == _restricted(
                dep, cold_relation, restrict
            ), f"carried-codebook divergence for {dep.label()}"


def test_carried_kind_reads_cells_not_codes():
    """``5`` and ``np.int64(5)`` share a code, not a sort kind."""
    schema = Schema([Attribute("v", AttributeType.NUMERICAL)])
    base = Relation.from_rows(schema, [(5,), (1.5,)])
    _warm(base)
    assert base.encoding().column_kind(0) == "num"
    child = base.apply_delta(Delta(inserts=[(np.int64(5),)]))
    carried = child.encoding()._per_column[0]
    assert carried is not None and carried.n_distinct == 2
    assert child.encoding().column_kind(0) == "unsortable"
    cold = Relation.from_rows(schema, child.rows()).encoding()
    assert cold.column_kind(0) == "unsortable"
