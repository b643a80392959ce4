"""The in-memory relation instance: a small column-store.

This is the substrate every dependency in the family tree is evaluated
against.  A :class:`Relation` stores one Python list per attribute
(column-oriented), which makes the access patterns of the discovery
algorithms cheap:

* ``column(A)`` — a whole column for partitioning (TANE) or for metric
  index construction (DDs/MDs);
* ``tuple_at(i)`` / ``values_at(i, X)`` — tuple access for pairwise
  checks (MFDs, DCs, ...);
* ``group_by(X)`` — the equal-``X`` groups that FD-style semantics
  quantify over;
* ``project``, ``select``, ``natural_join`` — the relational algebra
  needed by tuple-generating dependencies (MVDs decompose/join).

``None`` is the missing-value marker throughout; by SQL convention a
``None`` never equals anything (including another ``None``) in
selections, but tuples compare positionally for the join/set semantics.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from . import encoding as _encoding
from .schema import Attribute, Schema

Value = Any
Row = tuple[Value, ...]


class Relation:
    """An immutable relation instance ``r`` over a schema ``R``.

    Construct with :meth:`from_rows` / :meth:`from_dicts` /
    :meth:`from_columns`.  All mutating operations return new relations.
    """

    __slots__ = (
        "_schema", "_columns", "_size", "_enc", "_cache", "__weakref__",
    )

    def __init__(self, schema: Schema, columns: Sequence[Sequence[Value]]) -> None:
        if len(columns) != len(schema):
            raise ValueError(
                f"{len(schema)} attributes but {len(columns)} columns supplied"
            )
        sizes = {len(c) for c in columns}
        if len(sizes) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(sizes)}")
        self._schema = schema
        self._columns: tuple[tuple[Value, ...], ...] = tuple(
            tuple(c) for c in columns
        )
        self._size = len(self._columns[0]) if self._columns else 0
        self._enc: _encoding.RelationEncoding | None = None
        self._cache = None  # lazily created PartitionCache

    @classmethod
    def _from_trusted(
        cls, schema: Schema, columns: tuple[tuple[Value, ...], ...],
        codes: Sequence[_encoding.ColumnCodes] | None = None,
    ) -> "Relation":
        """Internal constructor for already-validated column tuples.

        Skips the per-column re-tupling of ``__init__`` so derived
        relations (``with_value`` and friends) can share unchanged
        column tuples with their parent.  ``codes``, one codebook per
        column, arrives from a loader that built them while parsing:
        the relation then starts encoded.
        """
        out = cls.__new__(cls)
        out._schema = schema
        out._columns = columns
        out._size = len(columns[0]) if columns else 0
        out._enc = None
        if codes is not None:
            out._enc = _encoding.RelationEncoding(columns, out._size)
            out._enc._per_column = list(codes)
        out._cache = None
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema | Sequence[Attribute | str],
        rows: Iterable[Sequence[Value]],
    ) -> "Relation":
        """Build a relation from an iterable of row sequences."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        materialized = [tuple(row) for row in rows]
        for row in materialized:
            if len(row) != len(schema):
                raise ValueError(
                    f"row of width {len(row)} does not fit schema of width "
                    f"{len(schema)}: {row!r}"
                )
        columns = [
            [row[i] for row in materialized] for i in range(len(schema))
        ]
        return cls(schema, columns)

    @classmethod
    def from_dicts(
        cls,
        schema: Schema | Sequence[Attribute | str],
        rows: Iterable[Mapping[str, Value]],
    ) -> "Relation":
        """Build a relation from an iterable of ``{name: value}`` mappings.

        Missing keys become ``None``.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        names = schema.names()
        return cls.from_rows(
            schema, ([row.get(n) for n in names] for row in rows)
        )

    @classmethod
    def from_columns(
        cls,
        schema: Schema | Sequence[Attribute | str],
        columns: Mapping[str, Sequence[Value]] | Sequence[Sequence[Value]],
    ) -> "Relation":
        """Build a relation from per-attribute columns."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        if isinstance(columns, Mapping):
            ordered = [columns[n] for n in schema.names()]
        else:
            ordered = list(columns)
        return cls(schema, ordered)

    @classmethod
    def empty(cls, schema: Schema | Sequence[Attribute | str]) -> "Relation":
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        return cls(schema, [[] for __ in schema])

    # -- basic protocol -------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        # A relation with zero tuples is still a relation; avoid the
        # truthiness trap of ``if relation:`` meaning non-empty.
        return True

    def __iter__(self) -> Iterator[Row]:
        return (self.tuple_at(i) for i in range(self._size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._columns == other._columns

    def __hash__(self) -> int:
        return hash((self._schema, self._columns))

    def __repr__(self) -> str:
        return f"Relation({list(self._schema.names())}, n={self._size})"

    # -- access ----------------------------------------------------------

    def _column_indices(
        self, attributes: Sequence[Attribute | str]
    ) -> tuple[int, ...]:
        """Resolve an attribute list to column positions, once per call.

        Every bulk operation goes through this so attribute-name lookup
        happens per *call*, never per cell.
        """
        index_of = self._schema.index_of
        return tuple(index_of(a) for a in attributes)

    def encoding(self) -> _encoding.RelationEncoding:
        """The relation's dictionary encoding (built lazily, cached).

        Relations are immutable, so the encoding never invalidates;
        derived relations start with a fresh one, or with one carried
        forward by :meth:`extend` / :meth:`apply_delta`.  A relation
        read from CSV arrives with every codebook built.
        """
        enc = self._enc
        if enc is None:
            enc = _encoding.RelationEncoding(self._columns, self._size)
            self._enc = enc
        return enc

    def _trivial_groups(self) -> dict[Row, list[int]]:
        """The grouping by no attributes (or of no rows): one group of
        every row, or none."""
        return {(): list(range(self._size))} if self._size else {}

    def column(self, attribute: Attribute | str) -> tuple[Value, ...]:
        """The full column of ``attribute``."""
        idx = self._schema.index_of(attribute)
        return self._columns[idx]

    def tuple_at(self, i: int) -> Row:
        """The ``i``-th tuple as a positional value tuple."""
        if not 0 <= i < self._size:
            raise IndexError(f"tuple index {i} out of range [0, {self._size})")
        return tuple(col[i] for col in self._columns)

    def record_at(self, i: int) -> dict[str, Value]:
        """The ``i``-th tuple as a ``{name: value}`` dict."""
        return dict(zip(self._schema.names(), self.tuple_at(i), strict=True))

    def value_at(self, i: int, attribute: Attribute | str) -> Value:
        """Single cell ``t_i[A]``."""
        return self.column(attribute)[i]

    def values_at(
        self, i: int, attributes: Sequence[Attribute | str]
    ) -> Row:
        """Sub-tuple ``t_i[X]`` over the attribute list ``X``."""
        columns = self._columns
        return tuple(
            columns[j][i] for j in self._column_indices(attributes)
        )

    def rows(self) -> list[Row]:
        """All tuples, materialized."""
        return [self.tuple_at(i) for i in range(self._size)]

    # -- relational algebra ----------------------------------------------

    def project(self, attributes: Sequence[Attribute | str]) -> "Relation":
        """Projection *with* duplicate elimination (set semantics).

        MVD/FHD satisfaction is defined via ``r = π_XY(r) ⋈ π_XZ(r)``,
        which requires set semantics on the projections.
        """
        sub = self._schema.project(attributes)
        idxs = self._column_indices(attributes)
        if not idxs or not self._size:
            return Relation.from_rows(sub, list(self._trivial_groups()))
        cols = [self._columns[j] for j in idxs]
        firsts = self.encoding().distinct_first_rows(idxs)
        rows = [tuple(col[i] for col in cols) for i in firsts]
        return Relation.from_rows(sub, rows)

    def project_bag(self, attributes: Sequence[Attribute | str]) -> "Relation":
        """Projection keeping duplicates (bag semantics)."""
        sub = self._schema.project(attributes)
        cols = [self._columns[j] for j in self._column_indices(attributes)]
        if not cols:
            return Relation.from_rows(sub, [()] * self._size)
        return Relation.from_rows(sub, zip(*cols, strict=True))

    def select(self, predicate: Callable[[dict[str, Value]], bool]) -> "Relation":
        """Selection by a predicate over tuple dicts."""
        keep = [
            i for i in range(self._size) if predicate(self.record_at(i))
        ]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "Relation":
        """New relation keeping exactly the tuples at ``indices``."""
        columns = [
            [col[i] for i in indices] for col in self._columns
        ]
        return Relation(self._schema, columns)

    def drop(self, indices: Iterable[int]) -> "Relation":
        """New relation with the tuples at ``indices`` removed."""
        dropped = set(indices)
        keep = [i for i in range(self._size) if i not in dropped]
        return self.take(keep)

    def extend(self, rows: Iterable[Sequence[Value]]) -> "Relation":
        """New relation with ``rows`` appended.

        Appends column-wise — one concat per column, sharing nothing but
        the existing column tuples — so the cost is O(rows added), not
        O(n·m) as the old ``from_rows`` round-trip was.

        As in :meth:`apply_delta`, every already-built dictionary
        codebook carries forward *patched* rather than rebuilt: codes
        extend in first-occurrence order and the kernel-side caches
        (float projections, sorted projections, sweep kinds) are
        merged for the appended tail — never left stale (the
        extend-then-check regression suite pins this against a cold
        rebuild under the vectorized backend).
        """
        added = [tuple(r) for r in rows]
        width = len(self._schema)
        for row in added:
            if len(row) != width:
                raise ValueError(
                    f"row of width {len(row)} does not fit schema of width "
                    f"{width}: {row!r}"
                )
        if not added:
            return self
        columns = tuple(
            col + tuple(row[j] for row in added)
            for j, col in enumerate(self._columns)
        )
        child = Relation._from_trusted(self._schema, columns)
        if self._enc is not None:
            child._enc = self._enc.extended(child._columns, len(child))
        return child

    def apply_delta(self, delta: "object") -> "Relation":
        """New relation with a mutation batch applied — see
        :mod:`repro.incremental`.

        Like :meth:`extend`, the derived relation carries forward every
        built codebook of a column the batch's updates leave untouched
        (none if the batch deletes), which keeps the encoding cost of a
        batch O(batch).  Nothing else carries over: as after
        :meth:`take`/:meth:`with_values`, its partition cache starts
        empty.
        """
        from ..incremental.delta import apply_delta

        return apply_delta(self, delta)

    # -- state serialization ---------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """A JSON-safe, dictionary-encoded serialization of this relation.

        The snapshot format of the server durability layer (see
        :func:`repro.relation.encoding.relation_to_state`): schema with
        declared types plus per-column ``values``/``codes`` pairs.
        Round-trips through :meth:`from_state`.
        """
        return _encoding.relation_to_state(self)

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "Relation":
        """Rebuild a relation serialized by :meth:`to_state`."""
        return _encoding.relation_from_state(state)

    def with_value(
        self, i: int, attribute: Attribute | str, value: Value
    ) -> "Relation":
        """New relation with cell ``t_i[A]`` replaced — the repair primitive.

        Only the touched column is copied; the other column tuples are
        shared with this relation (they are immutable).
        """
        return self.with_values(i, {attribute: value})

    def with_values(
        self, i: int, assignment: Mapping[Attribute | str, Value]
    ) -> "Relation":
        """New relation with several cells of tuple ``i`` replaced at once.

        The batch form of :meth:`with_value`: one column copy per
        touched attribute instead of one whole-relation copy per cell,
        which is what the repair engines hammer on.
        """
        if not 0 <= i < self._size:
            raise IndexError(f"tuple index {i} out of range [0, {self._size})")
        columns = list(self._columns)
        for attribute, value in assignment.items():
            idx = self._schema.index_of(attribute)
            col = list(columns[idx])
            col[i] = value
            columns[idx] = tuple(col)
        return Relation._from_trusted(self._schema, tuple(columns))

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join on shared attribute names (hash join).

        The joined schema lists self's attributes first, then other's
        non-shared attributes, matching the usual π/⋈ identities used in
        MVD semantics.
        """
        shared = [n for n in self._schema.names() if n in other._schema]
        other_only = [
            a for a in other._schema if a.name not in self._schema
        ]
        out_schema = Schema(list(self._schema) + list(other_only))
        shared_left = [
            self._columns[j] for j in self._column_indices(shared)
        ]
        shared_right = [
            other._columns[j] for j in other._column_indices(shared)
        ]
        right_only = [
            other._columns[j]
            for j in other._column_indices([a.name for a in other_only])
        ]
        index: dict[Row, list[int]] = defaultdict(list)
        for j in range(len(other)):
            index[tuple(col[j] for col in shared_right)].append(j)
        rows: list[Row] = []
        for i in range(self._size):
            key = tuple(col[i] for col in shared_left)
            for j in index.get(key, ()):
                rows.append(
                    self.tuple_at(i)
                    + tuple(col[j] for col in right_only)
                )
        return Relation.from_rows(out_schema, rows)

    def distinct(self) -> "Relation":
        """Duplicate-free copy of the relation."""
        return self.project(list(self._schema.names()))

    # -- grouping and counting ---------------------------------------------

    def group_by(
        self, attributes: Sequence[Attribute | str]
    ) -> dict[Row, list[int]]:
        """Tuple indices grouped by their ``X``-value.

        This is the backbone of FD-style semantics: a dependency
        ``X -> Y`` quantifies over each group of equal ``X`` values.
        Groups preserve first-occurrence order of keys via dict ordering.
        """
        idxs = self._column_indices(attributes)
        if not idxs or not self._size:
            return self._trivial_groups()
        return {
            key: list(members)
            for key, members in self.encoding().keyed_table(idxs)
        }

    def _grouped_indices(
        self, attributes: Sequence[Attribute | str], min_size: int = 1
    ) -> Sequence[Sequence[int]]:
        """Equal-``X`` index groups without materializing key tuples.

        The partition-construction kernel: the group keys are never
        decoded at all, the classes come back as normalized (ascending,
        memoized) tuples, and repeated calls are dictionary hits.
        """
        idxs = self._column_indices(attributes)
        if not idxs or not self._size:
            return [
                g for g in self._trivial_groups().values()
                if len(g) >= min_size
            ]
        return self.encoding().stripped_classes(idxs, min_size=min_size)

    def cached_group_by(
        self, attributes: Sequence[Attribute | str]
    ) -> dict[Row, list[int]]:
        """Memoized :meth:`group_by` via the relation's partition cache.

        Callers must treat the returned dict (and its lists) as
        read-only; it is shared across every caller of the same
        attribute list.
        """
        from .partition_cache import cache_for

        return cache_for(self).groups(attributes)

    def distinct_count(self, attributes: Sequence[Attribute | str]) -> int:
        """``|dom(X)|_r`` — number of distinct ``X``-values (SFD strength)."""
        idxs = self._column_indices(attributes)
        if not idxs or not self._size:
            return len(self._trivial_groups())
        return self.encoding().distinct_count(idxs)

    def value_counts(
        self, attribute: Attribute | str
    ) -> dict[Hashable, int]:
        """Frequency of each value in a column."""
        counts: dict[Hashable, int] = defaultdict(int)
        for v in self.column(attribute):
            counts[v] += 1
        return dict(counts)

    def tuple_pairs(self) -> Iterator[tuple[int, int]]:
        """All unordered tuple-index pairs ``i < j``.

        Pairwise dependencies (MFDs, DDs, DCs, ...) quantify over these.
        """
        for i in range(self._size):
            for j in range(i + 1, self._size):
                yield i, j

    def sample(self, k: int, seed: int = 0) -> "Relation":
        """Deterministic pseudo-random sample of ``min(k, n)`` tuples.

        CORDS-style discovery samples the relation; a seeded sample keeps
        discovery reproducible.
        """
        import random

        if k >= self._size:
            return self
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(self._size), k))
        return self.take(indices)

    # -- pretty printing ------------------------------------------------

    def to_text(self, max_rows: int | None = 20) -> str:
        """Fixed-width textual rendering (used by the bench harness)."""
        names = self._schema.names()
        shown = self.rows() if max_rows is None else self.rows()[:max_rows]
        cells = [[str(n) for n in names]] + [
            ["" if v is None else str(v) for v in row] for row in shown
        ]
        widths = [
            max(len(r[c]) for r in cells) for c in range(len(names))
        ]
        lines = []
        for r, row in enumerate(cells):
            lines.append(
                "  ".join(val.ljust(widths[c]) for c, val in enumerate(row))
            )
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        if max_rows is not None and self._size > max_rows:
            lines.append(f"... ({self._size - max_rows} more tuples)")
        return "\n".join(lines)
