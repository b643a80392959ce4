"""Relational substrate: schemas, relation instances, partitions, encodings.

Everything in the dependency family tree is evaluated against the
:class:`~repro.relation.relation.Relation` defined here — a small,
immutable, column-oriented relation instance with exactly the access
paths the survey's algorithms require (grouping, stripped partitions,
dictionary-encoded columns and sorted projections, projection/join
for MVD semantics).
"""

from .schema import Attribute, AttributeType, Schema, SchemaError, as_attribute_names
from .relation import Relation
from .encoding import HAS_NUMPY, RelationEncoding
from .partition import StrippedPartition
from .partition_cache import CacheStats, PartitionCache, cache_for
from .io import read_csv, read_csv_text, to_csv_text, write_csv

__all__ = [
    "Attribute",
    "AttributeType",
    "Schema",
    "SchemaError",
    "as_attribute_names",
    "Relation",
    "HAS_NUMPY",
    "RelationEncoding",
    "CacheStats",
    "PartitionCache",
    "cache_for",
    "StrippedPartition",
    "read_csv",
    "read_csv_text",
    "to_csv_text",
    "write_csv",
]
