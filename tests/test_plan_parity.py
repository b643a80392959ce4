"""Property tests: every plan-compiled notation must agree with the oracles.

Every notation with a pair plan is driven over random relations —
mixed ``None``/NaN/bool/int/float/str cells, the same hostile pool as
``test_encoding_parity`` — and compared with the all-pairs reference
scans of ``tests/oracles.py``.  Where a notation runs on the pruned
plan kernels its violations must be *identical*, in order, to the
reference: same pairs, same reasons.  Where it keeps an engine of its
own, the result must match as that engine defines it: FD's group scan
reports the same violating tuple set (its own order and reasons), and
FD's and MFD's own ``holds()`` (group scan, group diameters) return
the same verdict.  The kernel-level ``restrict``/``first_only`` modes
are covered as well.
"""

from __future__ import annotations

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
from repro.plan import pairwise_violations
from repro.relation import Attribute, AttributeType, Relation, Schema

from . import oracles

# A single shared NaN object: dict-key semantics (identity shortcut)
# make repeated occurrences group together; every path must agree.
NAN = float("nan")

MIXED = st.sampled_from(
    [None, 0, 1, 2, 3, True, False, 1.0, 2.5, -1, "x", "y", "", NAN]
)


@st.composite
def relations(draw, max_cols=3, max_rows=16):
    n_cols = draw(st.integers(min_value=3, max_value=max_cols))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    schema = Schema(
        [
            Attribute(f"A{c}", AttributeType.CATEGORICAL)
            for c in range(n_cols)
        ]
    )
    rows = [
        tuple(draw(MIXED) for __ in range(n_cols)) for __ in range(n_rows)
    ]
    return Relation.from_rows(schema, rows)


def make_dependencies():
    """One representative per plan-compiled notation, over A0..A2."""
    return [
        FD(["A0"], ["A1"]),
        FD(["A0", "A1"], ["A2"]),
        MFD(["A0"], ["A1"], 1.0),
        NED({"A0": 2.0}, {"A1": 1.0}),
        DD({"A0": ("<=", 2.0)}, {"A1": (">", 1.0)}),
        DD({"A0": (">=", 3.0)}, {"A1": ("<=", 2.0)}),
        CDD({"A0": ("<=", 2.0)}, {"A1": (">", 1.0)}, {"A2": "x"}),
        MD({"A0": 2.0}, ["A1"]),
        CMD({"A0": 2.0}, "A1", {"A2": 1}),
        CD(
            [SimilarityFunction("A0", "A1", threshold_ij=2.0)],
            SimilarityFunction("A1", "A2", threshold_ij=1.0),
        ),
        FFD(["A0"], ["A1"]),
        PAC({"A0": 2.0}, {"A1": 1.0}, 0.8),
        OD([("A0", "<=")], [("A1", "<=")]),
        OD([("A0", "<")], [("A1", ">=")]),
        OFD(["A0"], ["A1"], ordering="pointwise"),
        OFD(["A0", "A1"], ["A2"], ordering="lex"),
        DC([pred2("A0", "="), pred2("A1", "!=")]),
        DC([pred2("A0", "<="), pred2("A1", ">")]),
        DC([pred2("A0", "<", "A1")]),
        DC([predc("A0", ">", 1.0), predc("A1", "<=", 2.0)]),
        DC([pred2("A0", "="), predc("A2", "=", "x")]),
    ]


def snapshot(dep, relation):
    """Violations as a comparable, order-preserving list."""
    return [(v.tuples, v.reason) for v in dep.violations(relation)]


@given(relations())
@settings(max_examples=60, deadline=None)
def test_violations_parity(relation):
    for dep in make_dependencies():
        expected = oracles.violations(dep, relation)
        got = snapshot(dep, relation)
        if isinstance(dep, FD):
            # FD's group scan has its own pair order and reasons.
            got, expected = (
                {tuples for tuples, __ in report} for report in (got, expected)
            )
        assert got == expected, f"oracle divergence for {dep.label()}"


@given(relations())
@settings(max_examples=40, deadline=None)
def test_holds_parity(relation):
    for dep in make_dependencies():
        expected = oracles.holds(dep, relation)
        assert dep.holds(relation) == expected, (
            f"holds() divergence for {dep.label()}"
        )


@given(relations(), st.sets(st.integers(min_value=0, max_value=15)))
@settings(max_examples=40, deadline=None)
def test_restrict_parity(relation, restrict):
    """Kernel ``restrict`` equals the oracle scan filtered to touched rows.

    This is the contract ``PairProbeChecker`` relies on when it re-probes
    only pairs involving a changed row.
    """
    restrict = {r for r in restrict if r < len(relation)}
    pairwise = [
        d
        for d in make_dependencies()
        if hasattr(type(d), "pair_violation") and not isinstance(d, PAC)
    ]
    for dep in pairwise:
        expected = oracles.pair_violations(dep, relation, restrict)
        got = [
            (v.tuples, v.reason)
            for v in pairwise_violations(dep, relation, restrict=restrict)
        ]
        assert got == expected, f"restrict divergence for {dep.label()}"


@given(relations())
@settings(max_examples=40, deadline=None)
def test_first_only_matches_existence(relation):
    pairwise = [
        d
        for d in make_dependencies()
        if hasattr(type(d), "pair_violation") and not isinstance(d, PAC)
    ]
    for dep in pairwise:
        first = pairwise_violations(dep, relation, first_only=True)
        assert bool(first) == bool(oracles.pair_violations(dep, relation)), (
            f"first_only divergence for {dep.label()}"
        )
