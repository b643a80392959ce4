"""Tuple-level mutation batches and their application.

A :class:`Delta` describes one batch of mutations against a relation:
cell updates, tuple deletions, and tuple insertions, applied in that
order.  Surviving tuples keep their relative order, so the old-to-new
index mapping (:meth:`Delta.remap`) is monotone — which is what lets
the incremental checkers translate cached violation indices instead of
recomputing them.

:func:`apply_delta` is the engine behind ``Relation.apply_delta``.  It
builds the mutated relation column-wise (copy-on-touch: column tuples
untouched by the batch are shared with the parent) and carries forward
only the parent's dictionary codebooks: for batches without deletes,
every built codebook of a column the batch's updates leave untouched is
*extended* — existing codes are reused and new values append in
first-occurrence order — so the encoding cost of such a batch is
O(batch).

A column the updates assign, and every column of a batch with deletes,
gets a fresh (lazy) codebook: patching its codes in place would break
the first-occurrence code order that the encoded substrate's parity
with value-tuple grouping depends on.  The child's partition cache
starts empty, as after ``take``/``extend``/``with_values``, so a batch
costs the same whatever the parent had cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from ..relation.relation import Relation, Row

Value = Any

#: One update: (pre-batch row index, ((attribute, new value), ...)).
Update = tuple[int, tuple[tuple[str, Value], ...]]


class DeltaError(ValueError):
    """Raised for malformed mutation batches."""


@dataclass(frozen=True)
class Delta:
    """One batch of mutations: updates, then deletes, then inserts.

    ``deletes`` and update row indices address the *pre-batch* relation;
    an update to a row the same batch deletes is applied and then
    discarded.  Constructor inputs are normalized: deletes are sorted
    and deduplicated, updates accept either a ``{row: {attr: value}}``
    mapping or ``(row, {attr: value})`` pairs (later assignments to the
    same cell win).
    """

    inserts: tuple[Row, ...] = ()
    deletes: tuple[int, ...] = ()
    updates: tuple[Update, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inserts", tuple(tuple(r) for r in self.inserts)
        )
        for i in self.deletes:
            if not isinstance(i, int) or isinstance(i, bool):
                raise DeltaError(f"delete index {i!r} is not an integer")
        object.__setattr__(self, "deletes", tuple(sorted(set(self.deletes))))
        merged: dict[int, dict[str, Value]] = {}
        raw = self.updates
        items = raw.items() if isinstance(raw, Mapping) else raw
        for row, assignment in items:
            if not isinstance(row, int) or isinstance(row, bool):
                raise DeltaError(f"update row {row!r} is not an integer")
            cells = (
                assignment.items()
                if isinstance(assignment, Mapping)
                else assignment
            )
            target = merged.setdefault(row, {})
            for attr, value in cells:
                target[str(attr)] = value
        object.__setattr__(
            self,
            "updates",
            tuple(
                (row, tuple(assignment.items()))
                for row, assignment in sorted(merged.items())
            ),
        )

    # -- introspection -------------------------------------------------

    def is_empty(self) -> bool:
        return not (self.inserts or self.deletes or self.updates)

    def new_size(self, n: int) -> int:
        return n - len(self.deletes) + len(self.inserts)

    def remap(self, n: int) -> list[int | None]:
        """Old index -> new index (``None`` for deleted rows).

        Monotone on survivors, so any index-order property (sortedness,
        ties broken by index) survives translation.
        """
        deleted = set(self.deletes)
        out: list[int | None] = []
        shift = 0
        for i in range(n):
            if i in deleted:
                out.append(None)
                shift += 1
            else:
                out.append(i - shift)
        return out

    def validate(self, relation: Relation) -> None:
        """Raise :class:`DeltaError` unless the batch fits ``relation``."""
        n = len(relation)
        schema = relation.schema
        width = len(schema)
        for row in self.inserts:
            if len(row) != width:
                raise DeltaError(
                    f"insert of width {len(row)} does not fit schema of "
                    f"width {width}: {row!r}"
                )
        for i in self.deletes:
            if not 0 <= i < n:
                raise DeltaError(f"delete index {i} out of range [0, {n})")
        for row, assignment in self.updates:
            if not 0 <= row < n:
                raise DeltaError(f"update row {row} out of range [0, {n})")
            for attr, __ in assignment:
                if attr not in schema:
                    raise DeltaError(
                        f"update assigns unknown attribute {attr!r}"
                    )

    def __str__(self) -> str:
        parts = []
        if self.updates:
            parts.append(f"~{len(self.updates)}")
        if self.deletes:
            parts.append(f"-{len(self.deletes)}")
        if self.inserts:
            parts.append(f"+{len(self.inserts)}")
        return f"Delta({' '.join(parts) or 'empty'})"

    # -- mutation-log serialization ------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The canonical mutation-log wire form of this batch.

        Inserts come back positional (schema-order lists), so
        ``Delta.from_json(delta.to_json())`` round-trips without a
        schema and reproduces an equal batch — the fidelity contract
        the server's write-ahead log replays through (see
        ``tests/test_incremental.py::TestDeltaJsonRoundTrip``).
        ``None`` cells survive as JSON ``null``; non-finite floats rely
        on the encoder's ``NaN``/``Infinity`` extension, which the WAL
        enables on both ends.
        """
        out: dict[str, Any] = {}
        if self.inserts:
            out["insert"] = [list(row) for row in self.inserts]
        if self.deletes:
            out["delete"] = list(self.deletes)
        if self.updates:
            out["update"] = [
                {"row": row, "set": dict(assignment)}
                for row, assignment in self.updates
            ]
        return out

    # -- mutation-log parsing ------------------------------------------

    @classmethod
    def from_json(
        cls, payload: Mapping[str, Any], schema: "object" = None
    ) -> "Delta":
        """Parse one mutation-log entry.

        The wire format (one JSON object per batch)::

            {"insert": [{"A": 1, "B": "x"}, [2, "y"]],
             "delete": [3, 5],
             "update": [{"row": 0, "set": {"B": "z"}}]}

        Inserted rows may be positional lists or ``{name: value}``
        objects (missing names become ``None``; the latter requires
        ``schema``).
        """
        unknown = set(payload) - {"insert", "delete", "update"}
        if unknown:
            raise DeltaError(
                f"unknown mutation-log keys {sorted(unknown)}; expected "
                "'insert', 'delete', 'update'"
            )
        inserts: list[Row] = []
        for row in payload.get("insert", ()):
            if isinstance(row, Mapping):
                if schema is None:
                    raise DeltaError(
                        "object-form inserts need the relation schema"
                    )
                names = schema.names()
                stray = set(row) - set(names)
                if stray:
                    raise DeltaError(
                        f"insert mentions unknown attributes {sorted(stray)}"
                    )
                inserts.append(tuple(row.get(n) for n in names))
            else:
                inserts.append(tuple(row))
        updates: list[tuple[int, Mapping[str, Value]]] = []
        for entry in payload.get("update", ()):
            if not isinstance(entry, Mapping) or "row" not in entry:
                raise DeltaError(
                    f"update entry {entry!r} must be "
                    '{"row": i, "set": {...}}'
                )
            assignment = entry.get("set")
            if not isinstance(assignment, Mapping) or not assignment:
                raise DeltaError(
                    f"update entry for row {entry['row']!r} needs a "
                    'non-empty "set" object'
                )
            updates.append((entry["row"], assignment))
        return cls(
            inserts=tuple(inserts),
            deletes=tuple(payload.get("delete", ())),
            updates=tuple(updates),
        )


def parse_mutation_log(
    lines: Iterable[str], schema: "object" = None
) -> Iterator[Delta]:
    """Parse a JSONL mutation log (blank lines and ``#`` comments skipped)."""
    import json

    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DeltaError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise DeltaError(f"line {lineno}: batch must be a JSON object")
        yield Delta.from_json(payload, schema)


# -- application -------------------------------------------------------


def apply_delta(relation: Relation, delta: Delta | Mapping[str, Any]) -> Relation:
    """Apply a mutation batch, carrying built codebooks forward."""
    if not isinstance(delta, Delta):
        delta = Delta.from_json(delta, relation.schema)
    delta.validate(relation)
    if delta.is_empty():
        return relation

    schema = relation.schema
    index_of = schema.index_of
    updates_by_col: dict[int, list[tuple[int, Value]]] = {}
    for row, assignment in delta.updates:
        for attr, value in assignment:
            updates_by_col.setdefault(index_of(attr), []).append((row, value))
    deleted = set(delta.deletes)
    n = len(relation)
    keep = [i for i in range(n) if i not in deleted] if deleted else None
    tails = (
        [tuple(row[j] for row in delta.inserts) for j in range(len(schema))]
        if delta.inserts
        else None
    )
    new_columns: list[tuple[Value, ...]] = []
    for j, col in enumerate(relation._columns):
        cell_updates = updates_by_col.get(j)
        if cell_updates is None and keep is None:
            # Untouched column: share the parent's tuple outright.
            new_columns.append(col + tails[j] if tails else col)
            continue
        buf = list(col)
        if cell_updates:
            for row, value in cell_updates:
                buf[row] = value
        if keep is not None:
            buf = [buf[i] for i in keep]
        if tails:
            buf.extend(tails[j])
        new_columns.append(tuple(buf))
    child = Relation._from_trusted(schema, tuple(new_columns))

    if relation._enc is not None and not deleted:
        child._enc = relation._enc.extended(
            child._columns, len(child), changed=updates_by_col.keys()
        )
    return child
