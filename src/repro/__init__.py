"""repro — an executable reproduction of the data-dependency family tree.

This library makes the survey *Data Dependencies Extended for Variety
and Veracity: A Family Tree* (Song, Gao, Huang, Wang; TKDE 2022 / ICDE
2023) executable:

* :mod:`repro.relation` — the relational substrate (schemas, relations,
  stripped partitions, indexes, CSV I/O);
* :mod:`repro.metrics` — distance/similarity metrics and fuzzy
  resemblance relations;
* :mod:`repro.core` — all 24 dependency notations of the survey with
  uniform ``holds``/``violations`` semantics, and the family tree of
  extensions (Fig. 1A) with executable embeddings;
* :mod:`repro.discovery` — the cited discovery algorithms (TANE,
  FastFD, CORDS, CFD/DC/OD/SD discovery, ...);
* :mod:`repro.quality` — the application engines of Table 3 (violation
  detection, repair, dedup, imputation, CQA, optimizer statistics,
  normalization, fairness);
* :mod:`repro.datasets` — the paper's worked-example tables and
  synthetic workload generators;
* :mod:`repro.survey` — machine-readable Tables 2/3 and Figs 1B/2/3.

Quickstart::

    from repro import FD, hotel_r1
    fd1 = FD("address", "region")
    r1 = hotel_r1()
    print(fd1.holds(r1))            # False
    print(fd1.violations(r1))       # (t3, t4) and (t5, t6), 1-based
"""

import importlib

from .relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    read_csv,
    read_csv_text,
)
from .metrics import (
    ABS_DIFF,
    DISCRETE,
    EDIT_DISTANCE,
    Metric,
    MetricRegistry,
)
from .core import (
    AFD,
    ALPHA,
    AMVD,
    BETA,
    CD,
    CDD,
    CFD,
    CFDTableau,
    CMD,
    CSD,
    DC,
    DD,
    DEFAULT_TREE,
    ECFD,
    FD,
    FFD,
    FHD,
    MD,
    MFD,
    MVD,
    NED,
    NUD,
    OD,
    OFD,
    PAC,
    PFD,
    SD,
    SFD,
    Conjunction,
    Dependency,
    DependencyError,
    DifferentialFunction,
    ExtensionEdge,
    FamilyTree,
    Interval,
    MarkedAttribute,
    Pattern,
    Predicate,
    SimilarityFunction,
    SimilarityPredicate,
    Violation,
    ViolationSet,
    pred2,
    predc,
    verify_edge,
)

__version__ = "1.0.0"

#: Top-level names resolved on first use, so that ``import repro.cli``
#: (the ``repro check`` path) loads neither the incremental engine, the
#: quality engines it imports, nor the datasets: name -> its submodule.
_LAZY = {
    **dict.fromkeys(
        ["BatchChange", "Delta", "DeltaError", "IncrementalDetector",
         "parse_mutation_log"],
        "incremental",
    ),
    **dict.fromkeys(
        ["dataspace_person", "fd_workload", "heterogeneous_workload",
         "hotel_r1", "hotel_r5", "hotel_r6", "hotel_r7",
         "ordered_workload", "random_relation"],
        "datasets",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__",
    # substrate
    "Attribute", "AttributeType", "Relation", "Schema",
    "read_csv", "read_csv_text",
    "Metric", "MetricRegistry", "EDIT_DISTANCE", "ABS_DIFF", "DISCRETE",
    # framework
    "Dependency", "DependencyError", "Conjunction",
    "Violation", "ViolationSet",
    # notations
    "FD", "SFD", "PFD", "AFD", "NUD", "CFD", "CFDTableau", "ECFD",
    "MVD", "FHD", "AMVD",
    "MFD", "NED", "DD", "CDD", "CD", "PAC", "FFD", "MD", "CMD",
    "OFD", "OD", "DC", "SD", "CSD",
    # building blocks
    "Pattern", "Interval", "DifferentialFunction", "SimilarityPredicate",
    "SimilarityFunction", "MarkedAttribute", "Predicate", "pred2", "predc",
    "ALPHA", "BETA",
    # family tree
    "FamilyTree", "ExtensionEdge", "verify_edge", "DEFAULT_TREE",
    # incremental validation
    "BatchChange", "Delta", "DeltaError", "IncrementalDetector",
    "parse_mutation_log",
    # datasets
    "hotel_r1", "hotel_r5", "hotel_r6", "hotel_r7", "dataspace_person",
    "fd_workload", "heterogeneous_workload", "ordered_workload",
    "random_relation",
]
