"""Property tests: the encoded substrate must agree with the value-tuple oracles.

The dictionary-encoded substrate (``repro.relation.encoding``) implements
group-by, projection, distinct counts, stripped-partition construction,
FastFD difference sets and FASTDC evidence sets over integer codes.
These hypothesis tests drive random relations — including ``None``
cells, NaN, bools, and mixed int/float/str values — through it and
require results bit-identical to the value-tuple reference
implementations: ``tests/oracles.py`` for the grouping primitives, and
the per-pair fallbacks the discovery modules keep for inputs the
encoded kernels decline.
"""

from __future__ import annotations


from hypothesis import given, settings, strategies as st

from repro.discovery.dc_discovery import (
    _evidence_sets_naive,
    build_predicate_space,
    evidence_sets,
)
from repro.discovery.fastfd import _difference_sets_naive, difference_sets
from repro.relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    StrippedPartition,
)

from . import oracles

# A single shared NaN object: dict-key semantics (identity shortcut) make
# repeated occurrences group together in a value-tuple dict, and the
# codebook reproduces exactly that.
NAN = float("nan")

MIXED = st.sampled_from(
    [None, 0, 1, 2, 3, True, False, 1.0, 2.5, -1, "x", "y", "", NAN]
)
NUMERIC = st.sampled_from(
    [None, 0, 1, 2, -3, 7, 1.5, 2.5, -0.5, True, NAN, 1 << 60]
)


@st.composite
def relations(draw, values=MIXED, max_cols=4, max_rows=25, numerical=False):
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    dtype = (
        AttributeType.NUMERICAL if numerical else AttributeType.CATEGORICAL
    )
    schema = Schema([Attribute(f"A{c}", dtype) for c in range(n_cols)])
    rows = [
        tuple(draw(values) for __ in range(n_cols)) for __ in range(n_rows)
    ]
    return Relation.from_rows(schema, rows)


def attribute_lists(r):
    """All columns, the first, the last, and none (the trivial grouping)."""
    names = r.schema.names()
    return (names, names[:1], names[-1:], [])


@settings(max_examples=120, deadline=None)
@given(relations())
def test_group_by_parity(r):
    for attrs in attribute_lists(r):
        # Same keys, members and first-occurrence group order.
        assert list(r.group_by(attrs).items()) == list(
            oracles.group_by(r, attrs).items()
        )


@settings(max_examples=120, deadline=None)
@given(relations())
def test_distinct_count_and_project_parity(r):
    for attrs in attribute_lists(r):
        assert r.distinct_count(attrs) == oracles.distinct_count(r, attrs)
        if attrs:  # a zero-column relation holds no rows
            assert r.project(attrs).rows() == oracles.project(r, attrs)


@settings(max_examples=120, deadline=None)
@given(relations())
def test_stripped_partition_parity(r):
    for attrs in attribute_lists(r):
        encoded = StrippedPartition.from_relation(r, attrs)
        expected = oracles.stripped_partition(r, attrs)
        assert encoded == expected
        assert hash(encoded) == hash(expected)


@settings(max_examples=100, deadline=None)
@given(relations(max_cols=4, max_rows=18))
def test_difference_sets_parity(r):
    assert difference_sets(r) == _difference_sets_naive(r)


@settings(max_examples=40, deadline=None)
@given(relations(values=NUMERIC, max_cols=3, max_rows=10, numerical=True))
def test_evidence_sets_parity_numerical(r):
    space = build_predicate_space(r, cross_columns=True)
    assert evidence_sets(r, space) == _evidence_sets_naive(r, space)


@settings(max_examples=40, deadline=None)
@given(relations(max_cols=3, max_rows=10))
def test_evidence_sets_parity_categorical(r):
    space = build_predicate_space(r)
    assert evidence_sets(r, space) == _evidence_sets_naive(r, space)


def test_nan_groups_like_dict_keys():
    """Repeated occurrences of one NaN object share a group, like dicts."""
    schema = Schema([Attribute("A")])
    r = Relation.from_rows(schema, [(NAN,), (NAN,), (1,)])
    encoded = r.group_by(["A"])
    assert encoded == oracles.group_by(r, ["A"])
    assert sorted(len(g) for g in encoded.values()) == [1, 2]


def test_bool_int_float_share_codes():
    """1 == 1.0 == True must collapse to one group (dict equality)."""
    schema = Schema([Attribute("A")])
    r = Relation.from_rows(schema, [(1,), (1.0,), (True,), (2,)])
    encoded = r.group_by(["A"])
    assert encoded == oracles.group_by(r, ["A"])
    assert sorted(len(g) for g in encoded.values()) == [1, 3]
