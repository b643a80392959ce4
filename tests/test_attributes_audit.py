"""Registry-driven audit: ``attributes()`` must cover every column read.

``IncrementalDetector`` routes mutation batches to checkers by the
columns a rule declares via :meth:`Dependency.attributes`.  If a
notation's ``violations()`` reads a column it does not declare, an
update to that column silently skips re-checking and the maintained
violation set drifts from the ground truth.

The audit instruments a relation so every attribute-level read is
recorded, runs one representative instance of each notation through
``violations()`` (the ``plan`` case) and, for notations checked pair by
pair, through the all-pairs reference scan of ``tests/oracles.py`` (the
``naive`` case: it evaluates the notation's own predicate on every
pair, where the pruned kernels skip most), and asserts the recorded
reads are a subset of ``attributes()``.

Notations whose semantics inherently span the whole schema (MVD-style
complements) opt out via the ``reads_whole_relation`` class flag and
are checked separately.
"""

from __future__ import annotations

import pytest

from repro.core.base import Dependency, PairwiseDependency
from repro.core.categorical.afd import AFD
from repro.core.categorical.cfd import CFD
from repro.core.categorical.ecfd import ECFD
from repro.core.categorical.fd import FD
from repro.core.categorical.mvd import AMVD, FHD, MVD
from repro.core.categorical.nud import NUD
from repro.core.categorical.pfd import PFD
from repro.core.categorical.sfd import SFD
from repro.core.heterogeneous.cd import CD, SimilarityFunction
from repro.core.heterogeneous.dd import CDD, DD
from repro.core.heterogeneous.ffd import FFD
from repro.core.heterogeneous.md import CMD, MD
from repro.core.heterogeneous.mfd import MFD
from repro.core.heterogeneous.ned import NED
from repro.core.heterogeneous.pac import PAC
from repro.core.numerical.dc import DC, pred2, predc
from repro.core.numerical.od import OD
from repro.core.numerical.ofd import OFD
from repro.core.numerical.sd import CSD, SD
from repro.relation import Attribute, AttributeType, Relation, Schema

from . import oracles


class TrackingRelation(Relation):
    """A relation recording which attributes are read through its API.

    Row-level accessors (``record_at``, ``tuple_at``, ``rows`` and
    iteration) touch every column and record the full schema; the
    targeted accessors record only the columns they were asked for.
    Row-subsetting (``take``/``drop``) is attribute-agnostic and not
    counted — only *which columns* feed the verdict matters for
    routing.
    """

    def __init__(self, schema, columns):
        super().__init__(schema, columns)
        self.reads: set[str] = set()

    def _note(self, attribute) -> None:
        name = attribute.name if isinstance(attribute, Attribute) else attribute
        self.reads.add(name)

    def _note_all(self) -> None:
        self.reads.update(self.schema.names())

    # -- targeted reads --------------------------------------------------
    def column(self, attribute):
        self._note(attribute)
        return super().column(attribute)

    def value_at(self, i, attribute):
        self._note(attribute)
        return super().value_at(i, attribute)

    def values_at(self, i, attributes):
        for a in attributes:
            self._note(a)
        return super().values_at(i, attributes)

    def group_by(self, attributes):
        for a in attributes:
            self._note(a)
        return super().group_by(attributes)

    def cached_group_by(self, attributes):
        for a in attributes:
            self._note(a)
        return super().cached_group_by(attributes)

    def distinct_count(self, attributes):
        for a in attributes:
            self._note(a)
        return super().distinct_count(attributes)

    def value_counts(self, attribute):
        self._note(attribute)
        return super().value_counts(attribute)

    def project(self, attributes):
        for a in attributes:
            self._note(a)
        return super().project(attributes)

    def project_bag(self, attributes):
        for a in attributes:
            self._note(a)
        return super().project_bag(attributes)

    # -- whole-row reads -------------------------------------------------
    def record_at(self, i):
        self._note_all()
        return super().record_at(i)

    def tuple_at(self, i):
        self._note_all()
        return super().tuple_at(i)

    def rows(self):
        self._note_all()
        return super().rows()

    def __iter__(self):
        self._note_all()
        return super().__iter__()

    def select(self, predicate):
        self._note_all()
        return super().select(predicate)


def fresh_relation() -> TrackingRelation:
    """Five numerical columns with duplicates, near-misses and spread."""
    schema = Schema(
        [Attribute(c, AttributeType.NUMERICAL) for c in "abcde"]
    )
    rows = [
        (1, 10.0, 1, 4.0, 0),
        (1, 12.0, 1, 4.5, 1),
        (2, 10.5, 2, 3.0, 2),
        (2, 10.5, 1, 9.0, 3),
        (3, 30.0, 2, 1.0, 4),
        (1, 11.0, 1, 4.0, 5),
        (5, 50.0, 2, 2.0, 6),
        (4, 10.0, 1, 7.0, 7),
    ]
    columns = [[r[i] for r in rows] for i in range(len(schema))]
    return TrackingRelation(schema, columns)


#: One representative instance per notation with a pair/row evaluation.
CASES: list[Dependency] = [
    FD(["a"], ["b"]),
    AFD(["a"], ["b"], 0.2),
    SFD(["a"], ["b"], 0.9),
    PFD(["a"], ["b"], 0.8),
    NUD(["a"], ["b"], 2),
    CFD(["a"], ["b"], {"a": 1}),
    ECFD(["a", "c"], ["b"], {"a": ("<=", 2)}),
    MFD(["a"], ["b"], 1.0),
    NED({"a": 1.0}, {"b": 0.5}),
    DD({"a": ("<=", 2.0)}, {"b": (">", 0.5)}),
    CDD({"a": ("<=", 2.0)}, {"b": (">", 0.5)}, {"c": 1}),
    MD({"a": 1.5}, ["b"]),
    CMD({"a": 1.5}, "b", {"c": 1}),
    CD(
        [SimilarityFunction("a", "b", threshold_ij=1.0)],
        SimilarityFunction("b", "c", threshold_ij=0.5),
    ),
    FFD(["a"], ["b"]),
    PAC({"a": 1.0}, {"b": 0.5}, 0.8),
    OD([("a", "<=")], [("b", "<=")]),
    OFD(["a"], ["b"], ordering="pointwise"),
    OFD(["a", "b"], ["d"], ordering="lex"),
    SD(["a"], "b", (0.0, 5.0)),
    CSD("a", "b", (0.0, 5.0), [(0.0, 2.5), (2.5, 10.0)]),
    DC([pred2("a", "<="), pred2("b", ">")]),
    DC([predc("a", ">", 3.0), predc("d", "<", 3.0)]),
]


@pytest.mark.parametrize(
    "dep", CASES, ids=lambda d: f"{d.kind}:{d}"
)
@pytest.mark.parametrize("mode", ["plan", "naive"])
def test_violations_reads_subset_of_attributes(dep, mode):
    assert not type(dep).reads_whole_relation
    relation = fresh_relation()
    declared = set(dep.attributes())
    assert declared, f"{dep.kind} declares no attributes"
    if mode == "naive" and isinstance(dep, (PairwiseDependency, DC, PAC)):
        oracles.violations(dep, relation)
    else:
        dep.violations(relation)
    stray = relation.reads - declared
    assert not stray, (
        f"{dep.label()} read undeclared columns {sorted(stray)} "
        f"(declared {sorted(declared)}) under the {mode} path"
    )


@pytest.mark.parametrize("cls", [MVD, FHD, AMVD])
def test_whole_relation_readers_are_flagged(cls):
    """MVD-family semantics complement over the schema: flag, don't audit."""
    assert cls.reads_whole_relation


def test_flag_defaults_false():
    assert Dependency.reads_whole_relation is False
    assert FD.reads_whole_relation is False
