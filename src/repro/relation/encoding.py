"""Dictionary encoding: the columnar integer fast path of the substrate.

Every discovery algorithm in the family tree ultimately reduces to a
handful of primitives over the :class:`~repro.relation.relation.Relation`
column-store — grouping equal ``X``-values, counting distinct values,
tabulating group counts, diffing tuple pairs.  Run over Python *value
tuples*, those primitives pay interpreter overhead (attribute
resolution, tuple allocation, generic ``__eq__``) per cell.

This module keeps a cached **per-column codebook** — built lazily, or
while parsing by the CSV loader (:mod:`repro.relation.io`) — that
maps each column to a compact integer vector:

* equal values (under Python ``dict`` equality semantics, exactly the
  semantics of a value-tuple ``dict`` grouping) share one code;
* codes are dense ``0..card-1`` integers assigned in first-occurrence
  order, so single-column code order *is* first-occurrence order;
* attribute sets get a **combined-key encoding** — a radix (mixed-base)
  combination of the per-column codes, re-densified on overflow — so a
  multi-attribute group key is one machine integer instead of a tuple;
* attribute-set pairs ``(X, Y)`` get a **code table**
  (:class:`Contingency`): the group counts of ``X`` and of ``X ∪ Y``
  from one count (or, for a wide key space, one sort) of the combined
  codes.  FD-style discovery and counting read ranks, largest
  subgroups and group sizes from it instead of building partitions or
  listing pairs.

Grouping is one stable argsort over the combined codes, memoized per
attribute set as the **group table** (:meth:`RelationEncoding.group_table`):
the one listing of each group's member rows, which ``group_by``,
stripped partitions and the plan's group kernel all read.

Parity contract (enforced by ``tests/test_encoding_parity.py``): for
every primitive the encoded path returns results *equal* to the
value-tuple reference implementations in ``tests/oracles.py`` — group
keys are decoded from the first-occurrence row, so even the key tuples
match a value-tuple dict's insertion behaviour.

Thread-safety: encodings are built lazily and cached on the (immutable)
relation; concurrent builds are idempotent, so races waste work but
cannot corrupt results.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as _np

Value = Any

#: Largest magnitude an intermediate radix code may reach before the
#: combined vector is re-densified (int64 headroom).
_MAX_RADIX = 1 << 62

#: Integers beyond 2**53 lose precision as floats; columns containing
#: them are not safe for the float-matrix comparison fast paths.
_FLOAT_SAFE_INT = 1 << 53

#: Version stamp of the serialized-relation state format below.
STATE_VERSION = 1


def relation_to_state(relation: Any) -> dict[str, Any]:
    """Serialize a relation as a JSON-safe, dictionary-encoded state.

    The snapshot format of the server durability layer: schema (names +
    declared types) plus one ``{"values", "codes"}`` pair per column —
    the distinct cell values in first-occurrence order and each row's
    index into them, i.e. exactly the dictionary encoding the substrate
    builds, so repeated values serialize once.  A column holding
    unhashable cells (which the encoded substrate cannot index either)
    falls back to a raw ``{"raw": [...]}`` value list.

    Cells must be JSON-representable (the server only ever holds values
    that arrived as JSON); non-finite floats round-trip through the
    encoder's ``NaN``/``Infinity`` extension.
    """
    state = iter_relation_state(relation)
    state["columns"] = list(state["columns"])
    return state


def iter_relation_state(relation: Any) -> dict[str, Any]:
    """:func:`relation_to_state` with ``"columns"`` an iterator that
    encodes one column per step.

    For writers that stream (the durability snapshot): only the column
    being written has its codebook and codes in memory, not every
    column of the relation at once.
    """
    return {
        "version": STATE_VERSION,
        "n": len(relation),
        "schema": [
            {"name": a.name, "type": a.dtype.value} for a in relation.schema
        ],
        "columns": map(_column_state, relation._columns),
    }


def _column_state(column: Sequence[Value]) -> dict[str, Any]:
    codebook: dict[Value, int] = {}
    codes: list[int] = []
    values: list[Value] = []
    try:
        for v in column:
            code = codebook.setdefault(v, len(values))
            if code == len(values):
                values.append(v)
            codes.append(code)
    except TypeError:  # unhashable cell: store the column verbatim
        return {"raw": list(column)}
    return {"values": values, "codes": codes}


def relation_from_state(state: dict[str, Any]) -> Any:
    """Rebuild a relation from :func:`relation_to_state` output.

    Raises :class:`ValueError` on version or shape mismatches — the
    recovery path treats that as a corrupt snapshot, not a crash.
    """
    from .relation import Relation
    from .schema import Attribute, AttributeType, Schema

    version = state.get("version")
    if version != STATE_VERSION:
        raise ValueError(
            f"unsupported relation state version {version!r} "
            f"(expected {STATE_VERSION})"
        )
    schema = Schema(
        Attribute(spec["name"], AttributeType(spec["type"]))
        for spec in state["schema"]
    )
    n = state["n"]
    columns: list[list[Value]] = []
    for j, encoded in enumerate(state["columns"]):
        if "raw" in encoded:
            column = list(encoded["raw"])
        else:
            values = encoded["values"]
            column = [values[c] for c in encoded["codes"]]
        if len(column) != n:
            raise ValueError(
                f"column {j} has {len(column)} cells for {n} rows"
            )
        columns.append(column)
    return Relation.from_columns(schema, columns)


def _sort_kind(kind: str, cells: Iterable[Value]) -> str:
    """Fold ``cells`` (``None``/NaN skipped) into a sorted-sweep kind:
    ``empty``, ``num``, ``str`` or the absorbing ``unsortable``.  Cells,
    not codes: ``5`` and ``np.int64(5)`` share a code, not a kind."""
    for v in cells:
        if v is None or (isinstance(v, float) and v != v):
            continue
        if isinstance(v, (int, float)):  # bool is an int
            k = "num"
        elif isinstance(v, str):
            k = "str"
        else:
            return "unsortable"
        if kind == "empty":
            kind = k
        elif kind != k:
            return "unsortable"
    return kind


class ColumnCodes:
    """Dictionary encoding of one column.

    ``array()[i]`` is the dense integer code of row ``i``'s value;
    ``values[c]`` is the first-seen representative of code ``c``.
    """

    __slots__ = (
        "values", "n_distinct", "self_unequal", "numeric_safe", "none_code",
        "_array", "_codebook", "_floats", "_valid", "_sorted", "_kind",
    )

    def __init__(self, column: Sequence[Value]) -> None:
        codebook: dict[Value, int] = {}
        codes = [codebook.setdefault(v, len(codebook)) for v in column]
        self._init(
            _np.asarray(codes, dtype=_np.int64), codebook, list(codebook)
        )
        self._fold(self.values, ())

    @classmethod
    def from_floats(
        cls, column: Sequence[Value], floats: Any
    ) -> "ColumnCodes":
        """The encoding of a parsed numeric column, from its float vector.

        ``column`` holds ``None`` or finite ints and floats, and
        ``floats`` is ``float(v)`` per cell with ``NaN`` for ``None``
        (so its values are equal exactly where the cells are).  One
        ``np.unique`` replaces the per-cell dictionary pass, its codes
        are renumbered to first-occurrence order, and ``floats`` is
        kept as the column's float projection.  Equal to
        ``ColumnCodes(column)`` in every field; the codebook dict is
        built only if asked for.
        """
        distinct, first, inverse = _np.unique(
            floats, return_index=True, return_inverse=True
        )
        order = _np.argsort(first)
        rank = _np.empty(len(order), dtype=_np.int64)
        rank[order] = _np.arange(len(order), dtype=_np.int64)
        out = cls.__new__(cls)
        out._init(
            rank[inverse], None, [column[i] for i in first[order].tolist()]
        )
        out.n_distinct = len(out.values)
        if distinct.size and _np.isnan(distinct[-1]):  # NaN sorts last
            out.none_code = int(rank[-1])
        # Every int here came from a float, so only one past 2**53
        # can exceed the float-safe range.
        out.numeric_safe = not bool(
            (_np.abs(floats) > _FLOAT_SAFE_INT).any()
        )
        out._floats = floats
        defined = out.n_distinct - (out.none_code >= 0)
        out._kind = "num" if defined else "empty"
        return out

    def _init(
        self, array: Any, codebook: dict[Value, int] | None,
        values: list[Value],
    ) -> None:
        self._array = array
        self._codebook = codebook
        self.values = values
        self.n_distinct = 0
        self.none_code = -1
        self.self_unequal = False
        self.numeric_safe = True
        self._floats = None
        self._valid = None
        self._sorted = None
        self._kind: str | None = None

    @property
    def codes(self) -> list[int]:
        """The codes as a list (a copy; kernels read :meth:`array`)."""
        return self._array.tolist()

    @property
    def codebook(self) -> dict[Value, int]:
        """value -> code, retained so append-only deltas can extend the
        encoding in place instead of rebuilding it."""
        if self._codebook is None:
            self._codebook = dict(
                zip(self.values, range(self.n_distinct), strict=True)
            )
        return self._codebook

    def _fold(self, new_values: Sequence[Value], cells: Sequence[Value]) -> None:
        """Fold values appended to the codebook into the per-value facts,
        and cells appended to the column into the kind, once known."""
        for code, v in enumerate(new_values, self.n_distinct):
            if v is None:
                self.none_code = code
                continue
            try:
                if v != v:
                    self.self_unequal = True
            # staticcheck: disable=SC008 — a user value whose __eq__
            # raises is treated as self-unequal (the safe direction);
            # no budget-governed code runs in the comparison.
            except Exception:
                self.self_unequal = True
            if not isinstance(v, (int, float)) or (
                isinstance(v, int) and abs(v) > _FLOAT_SAFE_INT
            ):
                self.numeric_safe = False
        self.n_distinct += len(new_values)
        if self._kind is not None:
            self._kind = _sort_kind(self._kind, cells)

    def extended(self, column: Sequence[Value], start: int) -> "ColumnCodes":
        """A codebook for ``column`` reusing this one for rows < ``start``.

        ``column`` must agree with the encoded column on every row below
        ``start`` (the append-only delta contract); with no rows past
        ``start`` this codebook itself is returned.  Existing codes are
        memcpy-shared, and new values extend the codebook in
        first-occurrence order — preserving the parity-critical invariant
        that code order equals first-occurrence order.
        """
        if start == len(column):
            return self
        out = ColumnCodes.__new__(ColumnCodes)
        codebook = dict(self.codebook)
        tail = column[start:]
        tail_codes = [codebook.setdefault(v, len(codebook)) for v in tail]
        out._init(
            _np.concatenate(
                [self._array, _np.asarray(tail_codes, dtype=_np.int64)]
            ),
            codebook,
            list(codebook),
        )
        out.n_distinct = self.n_distinct
        out.none_code = self.none_code
        out.self_unequal = self.self_unequal
        out.numeric_safe = self.numeric_safe
        out._kind = self._kind
        out._fold(out.values[self.n_distinct:], tail)
        # The kernel-side caches (float projection, validity mask,
        # sorted projection) must not leak stale: either patch
        # them for the appended tail or drop them.  Patching is only
        # sound while the column stays numeric-safe — a tail value that
        # flips `numeric_safe` invalidates the float view wholesale.
        if out.numeric_safe:
            tail_floats = _np.asarray(
                [float("nan") if v is None else float(v) for v in tail],
                dtype=_np.float64,
            )
            if self._floats is not None:
                out._floats = _np.concatenate([self._floats, tail_floats])
            if self._valid is not None:
                out._valid = _np.concatenate(
                    [
                        self._valid,
                        _np.asarray(
                            [v is not None for v in tail], dtype=bool
                        ),
                    ]
                )
            if self._sorted is not None:
                # Merge the defined tail cells into the cached sorted
                # projection: O(k log n) instead of an O(n log n)
                # rebuild per batch.  Stability: appended rows all have
                # indices above every existing row, so inserting ties
                # with side="right" — and the tail's own ties in stable
                # ascending-row order — reproduces exactly the stable
                # argsort a cold build would produce.
                defined = _np.flatnonzero(~_np.isnan(tail_floats))
                old_rows, old_vals = self._sorted
                if defined.size == 0:
                    out._sorted = (old_rows, old_vals)
                else:
                    new_rows = (defined + start).astype(_np.int64)
                    new_vals = tail_floats[defined]
                    order = _np.argsort(new_vals, kind="stable")
                    new_rows = new_rows[order]
                    new_vals = new_vals[order]
                    pos = _np.searchsorted(old_vals, new_vals, side="right")
                    out._sorted = (
                        _np.insert(old_rows, pos, new_rows),
                        _np.insert(old_vals, pos, new_vals),
                    )
        return out

    def array(self):
        """The codes as an ``int64`` numpy vector."""
        return self._array

    def valid_array(self):
        """Boolean vector: ``True`` where the value is not ``None``."""
        if self._valid is None:
            if self.none_code < 0:
                self._valid = _np.ones(len(self._array), dtype=bool)
            else:
                self._valid = self.array() != self.none_code
        return self._valid

    def float_array(self, column: Sequence[Value]):
        """The raw values as floats, ``NaN`` for ``None``.

        Only meaningful when :attr:`numeric_safe`; ``NaN`` comparisons
        are ``False``, matching the ``None``-never-compares rule.
        """
        if self._floats is None:
            self._floats = _np.asarray(
                [float("nan") if v is None else float(v) for v in column],
                dtype=_np.float64,
            )
        return self._floats

    def kind(self, column: Sequence[Value]) -> str:
        """Cached sorted-sweep kind of ``column`` (:func:`_sort_kind`)."""
        if self._kind is None:
            self._kind = _sort_kind("empty", column)
        return self._kind

    def sorted_projection(self, column: Sequence[Value]):
        """``(rows, values)``: defined cells ascending by float value.

        ``rows`` is an ``int64`` vector of the row indices whose float
        projection is defined (non-``None``, non-NaN), stably sorted by
        value — the shared substrate of ``searchsorted``-style interval
        and order kernels.  Cached; only meaningful when
        :attr:`numeric_safe`.
        """
        if self._sorted is None:
            floats = self.float_array(column)
            rows = _np.flatnonzero(~_np.isnan(floats))
            order = _np.argsort(floats[rows], kind="stable")
            rows = rows[order].astype(_np.int64, copy=False)
            self._sorted = (rows, floats[rows])
        return self._sorted


def _heads(ordered: Any) -> Any:
    """Where each run of a sorted code vector starts, plus its end:
    ``flatnonzero`` of the result bounds the runs."""
    n = len(ordered)
    heads = _np.ones(n + 1, dtype=bool)
    _np.not_equal(ordered[1:], ordered[:-1], out=heads[1:n])
    return heads


def _code_groups(codes: Any, card: int) -> tuple[Any, Any]:
    """``(first row, size)`` of each distinct code in ``[0, card)``,
    ascending by code.

    A key space within a few times the row count is counted
    (``bincount``, first rows by ``minimum.at``); a wider one is sorted.
    """
    n = len(codes)
    if n == 0:
        return codes[:0], codes[:0]
    if card <= 4 * n + 1024:
        counts = _np.bincount(codes)
        present = _np.flatnonzero(counts)
        first = _np.full(len(counts), n)
        _np.minimum.at(first, codes, _np.arange(n))
        return first[present], counts[present]
    order = _np.argsort(codes)
    bounds = _np.flatnonzero(_heads(codes[order]))
    return (
        _np.minimum.reduceat(order, bounds[:-1]),
        bounds[1:] - bounds[:-1],
    )


@dataclass
class CacheStats:
    """Hit/miss counters, exposed so discovery stats can report reuse."""

    hits: int = 0
    misses: int = 0

    def __str__(self) -> str:
        return f"{self.hits} hits / {self.misses} misses"


class Contingency:
    """The group counts of an attribute set ``X`` and of ``X ∪ Y``.

    Groups are equal-code row sets, numbered in code order: ``X``
    groups ascending by their combined ``X`` code, ``X ∪ Y`` groups
    ``X``-major, so the subgroups of one ``X`` group are adjacent.  Per
    ``X ∪ Y`` group ``h``: ``sizes[h]`` rows, first row ``first[h]``
    and ``X`` group ``x_of[h]``.  Per ``X`` group ``g``: first row
    ``x_first[g]`` (so ``argsort(x_first)`` is first-occurrence order).
    ``x_rank`` and ``xy_rank`` count the groups (TANE's ``|π_X|`` and
    ``|π_XY|``); ``kept`` sums each ``X`` group's largest ``X ∪ Y``
    subgroup (the ``max |s|`` of g3).

    Only per-group arrays are kept, never a vector per row.  Read-only:
    tables are shared through :meth:`RelationEncoding.contingency`.
    """

    __slots__ = (
        "n", "x_rank", "xy_rank", "kept", "sizes", "first", "x_of",
        "x_first", "_x_bounds", "_split_pairs",
    )

    def __init__(self, x_codes: Any, xy_codes: Any, card: int) -> None:
        """Tabulate from per-row codes: ``x_codes`` injective on ``X``,
        ``xy_codes`` injective on ``X ∪ Y``, below ``card`` and ordered
        ``X``-major (as a radix combination continued from ``x_codes``
        is)."""
        self.n = len(xy_codes)
        self.first, self.sizes = first, sizes = _code_groups(xy_codes, card)
        x_heads = _heads(x_codes[first])
        # X group g holds the X ∪ Y groups x_bounds[g]:x_bounds[g + 1].
        self._x_bounds = _np.flatnonzero(x_heads)
        self._split_pairs = None
        x_starts = self._x_bounds[:-1]
        self.x_of = _np.cumsum(x_heads[:-1]) - 1
        self.x_rank = len(x_starts)
        self.xy_rank = len(first)
        if self.n:
            self.kept = int(_np.maximum.reduceat(sizes, x_starts).sum())
            self.x_first = _np.minimum.reduceat(first, x_starts)
        else:
            self.kept = 0
            self.x_first = first

    def y_counts(self):
        """Per ``X`` group: how many ``Y`` code combinations it holds."""
        return self._x_bounds[1:] - self._x_bounds[:-1]

    def x_sizes(self):
        """Per ``X`` group: its number of rows."""
        if not self.n:
            return self.sizes
        return _np.add.reduceat(self.sizes, self._x_bounds[:-1])

    def subgroups(self, groups: Any):
        """The ``X ∪ Y`` groups inside the ``X`` groups ``groups``
        (ascending indices), ascending."""
        starts = self._x_bounds[groups]
        ends = self._x_bounds[groups + 1]
        if len(groups) == 1:
            return _np.arange(starts[0], ends[0])
        lengths = ends - starts
        return _np.repeat(ends - _np.cumsum(lengths), lengths) + _np.arange(
            lengths.sum()
        )

    def g3(self) -> float:
        """``g3(X -> Y)``: the share of rows outside each ``X`` group's
        largest ``X ∪ Y`` subgroup (0 on the empty relation)."""
        return (self.n - self.kept) / self.n if self.n else 0.0

    def disagreeing_pairs(self, selected: Any = None) -> int:
        """Row pairs equal on ``X`` but not on ``Y``: the pairs within
        ``X`` groups minus those within ``X ∪ Y`` groups, over the ``X``
        groups ``selected`` keeps (a boolean mask or ascending indices;
        all by default)."""
        if self._split_pairs is None:  # per X group, built on first use
            pairs = self.sizes * (self.sizes - 1) // 2
            if self.n:
                x_sizes = self.x_sizes()
                pairs = x_sizes * (x_sizes - 1) // 2 - _np.add.reduceat(
                    pairs, self._x_bounds[:-1]
                )
            self._split_pairs = pairs
        pairs = self._split_pairs
        return int(pairs.sum() if selected is None else pairs[selected].sum())


class RelationEncoding:
    """Lazily built dictionary encoding of a whole relation.

    Owned by a :class:`~repro.relation.relation.Relation` (which is
    immutable, so no invalidation is ever needed — derived relations
    start with a fresh or :meth:`extended` encoding).  Nothing here
    refers back to the relation, so both die by reference count.
    """

    __slots__ = (
        "_columns", "_n", "_per_column", "_combined", "_distinct",
        "_groups", "_tables", "stats",
    )

    def __init__(self, columns: Sequence[Sequence[Value]], n: int) -> None:
        self._columns = columns
        self._n = n
        self._per_column: list[ColumnCodes | None] = [None] * len(columns)
        #: column-index tuple -> combined ``int64`` codes.
        self._combined: dict[tuple[int, ...], Any] = {}
        self._distinct: dict[tuple[int, ...], int] = {}
        #: column-index tuple -> group table; the relation is
        #: immutable, so these never need invalidation.
        self._groups: dict[tuple[int, ...], list] = {}
        #: (X, Y) -> code table, and its hit/build counts.
        self._tables: dict[tuple, Contingency] = {}
        self.stats = CacheStats()

    def extended(
        self, columns: Sequence[Sequence[Value]], n: int,
        changed: Collection[int] = (),
    ) -> "RelationEncoding":
        """An encoding for an updated and appended copy of this relation.

        ``columns`` must equal this encoding's columns on the first
        ``self._n`` rows, except the ``changed`` ones (cell updates).
        Other already-built codebooks carry over via
        :meth:`ColumnCodes.extended`; changed and unbuilt columns stay
        lazy (a rebuild keeps first-occurrence code order), and the
        combined/group memos start empty (they are cheap to rebuild and
        their keys would all be stale anyway).
        """
        out = RelationEncoding(columns, n)
        for j, cc in enumerate(self._per_column):
            if cc is not None and j not in changed:
                out._per_column[j] = cc.extended(columns[j], self._n)
        return out

    # -- codebooks -----------------------------------------------------

    def column_codes(self, j: int) -> ColumnCodes:
        cc = self._per_column[j]
        if cc is None:
            cc = ColumnCodes(self._columns[j])
            self._per_column[j] = cc
        return cc

    def codes_array(self, j: int):
        return self.column_codes(j).array()

    def valid_array(self, j: int):
        return self.column_codes(j).valid_array()

    def float_array(self, j: int):
        return self.column_codes(j).float_array(self._columns[j])

    def sorted_projection(self, j: int):
        """Cached ``(rows, values)`` sorted float projection of column ``j``."""
        return self.column_codes(j).sorted_projection(self._columns[j])

    def column_kind(self, j: int) -> str:
        """Sorted-sweep kind of column ``j``: cached on its codebook, or
        a row scan if none is built (a build would cost more)."""
        cc = self._per_column[j]
        if cc is None:
            return _sort_kind("empty", self._columns[j])
        return cc.kind(self._columns[j])

    def gather(self, j: int):
        """Batch fetch of one column's kernel arrays.

        Returns ``(codes, floats, valid)``: ``int64`` dictionary codes,
        the float projection (``None`` unless the column is
        numeric-safe), and the non-``None`` validity mask — everything
        the vectorized kernels need for a column, built once and cached
        on the encoding.
        """
        cc = self.column_codes(j)
        floats = (
            cc.float_array(self._columns[j]) if cc.numeric_safe else None
        )
        return cc.array(), floats, cc.valid_array()

    # -- combined keys -------------------------------------------------

    def combined_codes(self, idxs: tuple[int, ...]):
        """One integer per row encoding the value combination ``t[X]``.

        Codes are injective for the attribute set (equal combined code
        iff pairwise-equal values) but *not* dense nor order-preserving
        for multi-attribute sets; use the grouping helpers below.
        """
        cached = self._combined.get(idxs)
        if cached is None:
            cached, __ = self._radix(idxs)
            self._combined[idxs] = cached
        return cached

    def _radix(
        self, idxs: tuple[int, ...], acc: Any = None, card: int = 1
    ) -> tuple[Any, int]:
        """``(codes, cardinality bound)`` of ``idxs``, continuing the
        radix combination ``acc`` (no columns: one code for every row).
        Re-densifying keeps code order, so the result is ordered by the
        columns of ``acc`` first.  Not memoized."""
        for j in idxs:
            cc = self.column_codes(j)
            radix = max(cc.n_distinct, 1)
            if acc is None:
                acc, card = cc.array(), radix
                continue
            if card * radix > _MAX_RADIX:
                __, acc = _np.unique(acc, return_inverse=True)
                acc = acc.astype(_np.int64, copy=False)
                card = int(acc.max()) + 1 if acc.size else 1
                if card * radix > _MAX_RADIX:  # pragma: no cover
                    raise OverflowError("combined key space too large")
            acc = acc * radix + cc.array()
            card *= radix
        if acc is None:
            acc = _np.zeros(self._n, dtype=_np.int64)
        return acc, card

    def contingency(
        self, x_idxs: Sequence[int], y_idxs: Sequence[int]
    ) -> Contingency:
        """The code table of ``X`` and ``X ∪ Y``, memoized per set pair.

        Column order and repeats do not matter, and ``Y`` columns inside
        ``X`` are dropped.  The combined codes are not memoized: only
        the table's per-group arrays are kept, and it records both ranks
        for :meth:`distinct_count`.  Hits and builds are counted in
        :attr:`stats`.
        """
        x = tuple(sorted(set(x_idxs)))
        y = tuple(sorted(set(y_idxs).difference(x)))
        table = self._tables.get((x, y))
        if table is not None:
            self.stats.hits += 1
            return table
        self.stats.misses += 1
        x_codes, card = self._radix(x)
        table = Contingency(x_codes, *self._radix(y, x_codes, card))
        self._tables[(x, y)] = table
        self._distinct[x] = table.x_rank
        self._distinct[tuple(sorted(x + y))] = table.xy_rank
        return table

    # -- grouping primitives -------------------------------------------

    def group_table(
        self, idxs: tuple[int, ...]
    ) -> list[tuple[int, list[int]]]:
        """``(first_row, member_rows)`` per group, first-occurrence order.

        One stable argsort over the combined codes: equal codes stay in
        row order, so each run is ascending (the append order of a
        value-tuple dict grouping) and its head is the group's first
        row.  A single column's groups therefore come in code order.
        Memoized per attribute set — the one listing of member rows;
        callers must treat the table and its lists as read-only.
        """
        cached = self._groups.get(idxs)
        if cached is not None:
            return cached
        codes = self.combined_codes(idxs)
        order = _np.argsort(codes, kind="stable")
        bounds = _np.flatnonzero(_heads(codes[order])).tolist()
        rows = order.tolist()
        table = [
            (rows[s], rows[s:e])
            for s, e in zip(bounds[:-1], bounds[1:], strict=True)
        ]
        table.sort(key=lambda group: group[0])
        self._groups[idxs] = table
        return table

    def stripped_classes(
        self, idxs: tuple[int, ...]
    ) -> tuple[tuple[int, ...], ...]:
        """The group table's groups of two or more rows, as ascending
        member tuples in first-occurrence order (a stripped partition's
        classes)."""
        return tuple(
            tuple(members)
            for __, members in self.group_table(idxs)
            if len(members) >= 2
        )

    def distinct_count(self, idxs: Sequence[int]) -> int:
        """Number of distinct value combinations over the attribute set.

        Memoized per column set (order and repeats ignored), and
        recorded by every :meth:`contingency` build.
        """
        key = tuple(sorted(set(idxs)))
        cached = self._distinct.get(key)
        if cached is not None:
            return cached
        if len(key) == 1:
            count = self.column_codes(key[0]).n_distinct
        else:
            count = int(_np.unique(self._radix(key)[0]).size)
        self._distinct[key] = count
        return count

    def distinct_first_rows(self, idxs: tuple[int, ...]) -> list[int]:
        """First-occurrence row of each distinct combination, ascending.

        Ascending first-occurrence rows reproduce the duplicate
        elimination order of a value-tuple scan.
        """
        __, first = _np.unique(self.combined_codes(idxs), return_index=True)
        first.sort()
        return first.tolist()

    # -- pairwise primitives -------------------------------------------

    def difference_masks(self, idxs: tuple[int, ...]) -> set[int] | None:
        """Distinct per-pair disagreement bitmasks over all tuple pairs.

        Bit ``b`` of a mask is set iff the pair disagrees on the
        ``b``-th attribute of ``idxs`` (FastFD's difference sets, as
        integers).  Returns ``None`` when the vectorized kernel cannot
        guarantee parity with raw ``!=`` comparisons — more than 62
        attributes, or a column holding NaN-like values that are
        unequal to themselves (raw ``!=`` sees a difference where
        equal dictionary codes would not).
        """
        k = len(idxs)
        if not 1 <= k <= 62 or self._n < 2:
            return None
        cols = []
        for j in idxs:
            cc = self.column_codes(j)
            if cc.self_unequal:
                return None
            cols.append(cc.array())
        matrix = _np.stack(cols, axis=1)
        weights = _np.left_shift(
            _np.int64(1), _np.arange(k, dtype=_np.int64)
        )
        seen: set[int] = set()
        for i in range(self._n - 1):
            neq = matrix[i + 1:] != matrix[i]
            seen.update(
                _np.unique(neq.astype(_np.int64) @ weights).tolist()
            )
        seen.discard(0)
        return seen
