"""Property-based tests (hypothesis) on core invariants.

These are the reproduction's strongest evidence: metric axioms, measure
bounds, partition laws, discovery-oracle agreement and family-tree edge
equivalences hold on *arbitrary* generated relations, not just the
paper's examples.
"""


from hypothesis import given, settings, strategies as st

from repro.core import (
    AFD,
    CFD,
    DC,
    FD,
    MD,
    MFD,
    MVD,
    NUD,
    OD,
    OFD,
    PFD,
    SD,
    SFD,
)
from repro.core.familytree import DEFAULT_TREE
from repro.metrics import (
    ABS_DIFF,
    EDIT_DISTANCE,
    damerau_levenshtein,
    jaro_winkler,
    levenshtein,
    qgram_distance,
)
from repro.relation import Relation, StrippedPartition

# -- strategies -------------------------------------------------------------

short_text = st.text(
    alphabet=st.sampled_from("abc "), min_size=0, max_size=6
)

small_values = st.integers(min_value=0, max_value=3)


@st.composite
def relations(draw, n_cols=3, max_rows=8, numerical=False):
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    value = (
        st.integers(min_value=0, max_value=5) if numerical else small_values
    )
    rows = [
        tuple(draw(value) for __ in range(n_cols)) for __ in range(n_rows)
    ]
    return Relation.from_rows([f"A{c}" for c in range(n_cols)], rows)


# -- metric axioms --------------------------------------------------------


@given(short_text, short_text)
def test_levenshtein_symmetric(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(short_text, short_text)
def test_levenshtein_identity(a, b):
    assert (levenshtein(a, b) == 0) == (a == b)


@given(short_text, short_text, short_text)
def test_levenshtein_triangle(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(short_text, short_text)
def test_levenshtein_length_bounds(a, b):
    d = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@given(short_text, short_text)
def test_damerau_never_exceeds_levenshtein(a, b):
    assert damerau_levenshtein(a, b) <= levenshtein(a, b)


@given(short_text, short_text)
def test_qgram_lower_bounds_scaled_edit(a, b):
    # Classic filter property: qgram distance / (2q) <= edit distance.
    q = 2
    assert qgram_distance(a, b, q) <= 2 * q * max(
        levenshtein(a, b), qgram_distance(a, b, q)
    )


@given(short_text, short_text)
def test_jaro_winkler_in_unit_interval(a, b):
    assert 0.0 <= jaro_winkler(a, b) <= 1.0


# -- measure bounds ----------------------------------------------------------


@given(relations())
def test_sfd_strength_in_unit_interval(r):
    s = SFD("A0", "A1").measure(r)
    assert 0.0 < s <= 1.0


@given(relations())
def test_pfd_probability_in_unit_interval(r):
    p = PFD("A0", "A1").measure(r)
    assert 0.0 < p <= 1.0


@given(relations())
def test_afd_g3_in_unit_interval(r):
    g = AFD("A0", "A1").measure(r)
    assert 0.0 <= g < 1.0 or (g == 0.0 and len(r) == 0)


@given(relations())
def test_g3_zero_iff_fd_holds(r):
    dep = FD("A0", "A1")
    assert (AFD("A0", "A1").measure(r) == 0.0) == dep.holds(r)


@given(relations())
def test_afd_removal_set_is_exact(r):
    afd = AFD("A0", "A1", 0.5)
    removed = afd.removal_set(r)
    if len(r):
        assert len(removed) / len(r) == afd.measure(r)
    assert afd.embedded.holds(r.drop(removed))


@given(relations())
def test_g3_monotone_under_violation_removal(r):
    """Removing the removal set leaves error 0 (monotonicity witness)."""
    afd = AFD("A0", "A1", 0.5)
    cleaned = r.drop(afd.removal_set(r))
    assert AFD("A0", "A1", 0.5).measure(cleaned) == 0.0


@given(relations())
def test_pfd_probability_one_iff_g3_zero(r):
    """P = 1 and g3 = 0 coincide (both characterize exact FDs);
    between the extremes they weight groups differently (P averages
    per-value, g3 per-tuple), so no inequality links them."""
    p = PFD("A0", "A1").measure(r)
    g3 = AFD("A0", "A1").measure(r)
    assert (p == 1.0) == (g3 == 0.0)


@given(relations())
def test_nud_minimal_weight_tight(r):
    k = NUD("A0", "A1").max_fanout(r)
    if k >= 1:
        assert NUD("A0", "A1", k).holds(r)
        if k > 1:
            assert not NUD("A0", "A1", k - 1).holds(r)


# -- partition laws -------------------------------------------------------


@given(relations())
def test_partition_rank_is_distinct_count(r):
    pi = StrippedPartition.from_relation(r, ["A0", "A1"])
    assert pi.rank == r.distinct_count(["A0", "A1"])


# -- family-tree equivalences (the Fig. 1A property) ----------------------


@given(relations())
@settings(max_examples=40)
def test_statistical_embeddings_equivalent(r):
    dep = FD(("A0", "A1"), ("A2",))
    for target in ("SFD", "PFD", "AFD", "NUD", "CFD", "MFD", "FFD", "MD"):
        edge = DEFAULT_TREE.edge("FD", target)
        assert edge.embed(dep).holds(r) == dep.holds(r), target


@given(relations())
@settings(max_examples=40)
def test_fd_implies_mvd(r):
    dep = FD("A0", "A1")
    if dep.holds(r):
        assert MVD.from_fd(dep).holds(r)


@given(relations(numerical=True))
@settings(max_examples=40)
def test_numerical_embeddings(r):
    ofd = OFD(("A0",), ("A1",))
    od = OD.from_ofd(ofd)
    assert od.holds(r) == ofd.holds(r)
    dc = DC.from_od(OD([("A0", "<=")], [("A1", ">=")]))
    assert dc.holds(r) == OD([("A0", "<=")], [("A1", ">=")]).holds(r)


@given(relations(numerical=True))
@settings(max_examples=40)
def test_od_implies_sd(r):
    od = OD([("A0", "<=")], [("A1", ">=")])
    if od.holds(r):
        assert SD.from_od(od).holds(r)


# -- discovery oracle agreement --------------------------------------------


@given(relations(n_cols=3, max_rows=7))
@settings(max_examples=25, deadline=None)
def test_tane_equals_brute_force(r):
    from repro.discovery import brute_force_fds, tane

    assert {str(d) for d in tane(r).dependencies} == {
        str(d) for d in brute_force_fds(r)
    }


@given(relations(n_cols=3, max_rows=7))
@settings(max_examples=25, deadline=None)
def test_fastfd_equals_brute_force(r):
    from repro.discovery import brute_force_fds, fastfd

    assert {str(d) for d in fastfd(r).dependencies} == {
        str(d) for d in brute_force_fds(r)
    }


# -- repair postconditions -------------------------------------------------


@given(relations())
@settings(max_examples=30, deadline=None)
def test_fd_repair_postcondition(r):
    from repro.quality import repair_fds

    fds = [FD("A0", "A1")]
    repaired, __log = repair_fds(r, fds)
    assert all(dep.holds(repaired) for dep in fds)
    assert len(repaired) == len(r)


@given(relations())
@settings(max_examples=25, deadline=None)
def test_cqa_certain_subset_of_possible(r):
    from repro.quality import consistent_answers, possible_answers, select_query

    fds = [FD("A0", "A1")]
    q = select_query(["A1"])
    certain = consistent_answers(r, fds, q, max_repairs=64)
    possible = possible_answers(r, fds, q, max_repairs=64)
    assert certain <= possible
