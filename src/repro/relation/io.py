"""Reading and writing relations (CSV and inline literals).

Kept deliberately small: the library's data lives either in the paper's
literal tables (:mod:`repro.datasets.paper`) or in generated workloads,
but downstream users need CSV round-tripping to run the tooling on their
own data.

Malformed input raises :class:`~repro.runtime.errors.InputError` (a
``ValueError`` subclass) carrying the offending 1-based line number and
column name, so a bad cell in row 40k of a wide file is locatable
without bisecting the input.  Non-finite numbers (``nan``, ``inf``)
are rejected by default — silently admitting them would poison every
distance-based metric and partition downstream — with an explicit
``allow_nonfinite=True`` opt-out that maps them to nulls.

Every reader parses its input once, column by column, and returns the
relation with its dictionary encoding already built
(:mod:`repro.relation.encoding`); :func:`load_relation` infers the
column types from the same pass.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from collections.abc import Collection, Sequence

import numpy as np

from ..runtime.errors import InputError
from .encoding import ColumnCodes
from .relation import Relation, Value
from .schema import Attribute, AttributeType, Schema

_NAN = float("nan")


def read_csv(
    path: str | Path,
    schema: Schema | Sequence[Attribute | str] | None = None,
    *,
    delimiter: str = ",",
    allow_nonfinite: bool = False,
) -> Relation:
    """Load a relation from a CSV file with a header row.

    If ``schema`` is omitted, every column is treated as categorical; the
    header order must match the schema order when one is given.  NaN and
    infinite values in numerical columns are rejected with an
    :class:`~repro.runtime.errors.InputError` unless
    ``allow_nonfinite=True``, which maps them to nulls.
    """
    with open(path, newline="", encoding="utf-8") as f:
        return _load(f, schema, delimiter, allow_nonfinite, source=str(path))


def read_csv_text(
    text: str,
    schema: Schema | Sequence[Attribute | str] | None = None,
    *,
    delimiter: str = ",",
    allow_nonfinite: bool = False,
) -> Relation:
    """Load a relation from CSV text (header row required)."""
    return _load(io.StringIO(text), schema, delimiter, allow_nonfinite)


def load_relation(
    path: str, numerical: Sequence[str] = (), text: Sequence[str] = ()
) -> Relation:
    """Load a CSV with auto-detected (or overridden) column types.

    A column is numerical iff every non-empty cell parses as a number
    (and one does), unless it is named in ``numerical`` or ``text``.
    One pass over the file: each column is typed from the cells already
    parsed, then coerced and encoded.
    """
    with open(path, newline="", encoding="utf-8") as f:
        return _load(
            f, None, ",", False, source=str(path),
            overrides=(set(numerical), set(text)),
        )


def _load(
    f, schema, delimiter: str, allow_nonfinite: bool,
    source: str | None = None,
    overrides: tuple[Collection[str], Collection[str]] | None = None,
) -> Relation:
    """The columnar core of every CSV reader.

    With ``overrides`` (``numerical``, ``text``) the column types are
    inferred instead of taken from ``schema``.  The reader appends each
    cell to its column's list; then each column in turn is typed,
    coerced and encoded, and its raw strings are freed.  The relation
    comes back encoded.

    Errors keep the precedence of a row-by-row read: the first bad line
    wins, whether it holds a bad cell, a ragged row or text the ``csv``
    module rejects (``csv.Error``).  Inference reads the whole file
    before typing it, so there a ragged row or a ``csv.Error`` wins
    wherever it is.
    """
    reader = csv.reader(f, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(
            "CSV input has no header row", source=source
        ) from None
    header = [h.strip() for h in header]
    if overrides is not None or schema is None:
        schema = Schema(header)
    elif not isinstance(schema, Schema):
        schema = Schema(schema)
    if list(schema.names()) != header:
        raise InputError(
            f"CSV header {header} does not match schema "
            f"{list(schema.names())}",
            row=1,
            source=source,
        )
    width = len(schema)
    cells: list[list[str] | None] = [[] for __ in range(width)]
    lines: list[int] = []  # 1-based input line of each row
    stop: Exception | None = None  # the error that ended the read
    try:
        for raw in reader:
            if len(raw) != width:
                if not raw:
                    continue
                stop = InputError(
                    f"CSV row of width {len(raw)} does not match schema "
                    f"of width {width}: {raw!r}",
                    row=reader.line_num,
                    source=source,
                )
                break
            lines.append(reader.line_num)
            for column, cell in zip(cells, raw, strict=True):
                column.append(cell)
    except csv.Error as exc:
        stop = exc
    if stop is not None and overrides is not None:
        raise stop

    attrs = list(schema)
    columns: list[tuple[Value, ...]] = []
    codes: list[ColumnCodes] = []
    first_bad: tuple[int, InputError] | None = None
    for j, attr in enumerate(attrs):
        stripped = list(map(str.strip, cells[j]))
        cells[j] = None
        floats = None
        if overrides is not None:
            dtype, floats = _infer(attr.name, stripped, *overrides)
            attr = attrs[j] = Attribute(attr.name, dtype)
        if attr.dtype is AttributeType.NUMERICAL:
            coerced = _numeric(stripped, floats, allow_nonfinite)
            if coerced is None:
                i, message = _first_bad_cell(stripped, allow_nonfinite)
                if first_bad is None or i < first_bad[0]:
                    first_bad = i, InputError(
                        message, row=lines[i], column=attr.name,
                        source=source,
                    )
                continue
            values, array = coerced
            codes.append(ColumnCodes.from_floats(values, array))
        else:
            values = [c or None for c in stripped]
            codes.append(ColumnCodes(values))
        columns.append(tuple(values))
    if first_bad is not None:
        raise first_bad[1]
    if stop is not None:
        raise stop
    if overrides is not None:
        schema = Schema(attrs)
    return Relation._from_trusted(schema, tuple(columns), codes)


def _infer(
    name: str, cells: list[str], numerical: Collection[str],
    text: Collection[str],
) -> tuple[AttributeType, list[float] | None]:
    """A column's type, and its parsed floats if numerical: numerical
    iff every non-empty cell is a number and one exists, unless an
    override names the column."""
    if name in numerical:
        return AttributeType.NUMERICAL, None
    if name in text or not any(cells):
        return AttributeType.TEXT, None
    floats = _parse_floats(cells)
    if floats is None:
        return AttributeType.TEXT, None
    return AttributeType.NUMERICAL, floats


def _parse_floats(cells: list[str]) -> list[float] | None:
    """``float`` of each stripped cell, ``NaN`` for an empty one; ``None``
    if some cell is not a number."""
    try:
        return list(map(float, cells))
    except ValueError:
        pass
    try:
        return [float(c) if c else _NAN for c in cells]
    except ValueError:
        return None


def _numeric(
    cells: list[str], floats: list[float] | None, allow_nonfinite: bool
) -> tuple[list[Value], np.ndarray] | None:
    """A numerical column's values and float vector from its stripped
    cells (and their floats, if parsed already), or ``None`` if it holds
    a cell it rejects.

    A value is ``int(f)`` when ``f`` is integral, else ``f``; an empty
    (or, allowed, non-finite) cell is ``None``, and ``NaN`` in the
    vector.  The vector holds ``float(value)``, so ``-0.0`` reads
    ``0.0``.
    """
    if floats is None:
        floats = _parse_floats(cells)
        if floats is None:
            return None
    array = np.array(floats, dtype=np.float64)
    values: list[Value] = [int(f) if f.is_integer() else f for f in floats]
    for i in np.flatnonzero(~np.isfinite(array)).tolist():
        if cells[i] and not allow_nonfinite:
            return None
        values[i] = None
        array[i] = _NAN
    array += 0.0
    return values, array


def _first_bad_cell(
    cells: list[str], allow_nonfinite: bool
) -> tuple[int, str]:
    """Row index and message of the first cell a numerical column
    rejects (one must exist)."""
    for i, text in enumerate(cells):
        if text == "":
            continue
        try:
            f = float(text)
        except ValueError:
            return i, f"non-numeric value {text!r} in numerical column"
        if not math.isfinite(f) and not allow_nonfinite:
            return i, (
                f"non-finite value {text!r} in numerical column "
                "(pass allow_nonfinite=True to map it to null)"
            )
    raise AssertionError("no rejected cell")  # pragma: no cover


def write_csv(relation: Relation, path: str | Path) -> None:
    """Write a relation to CSV with a header row; ``None`` becomes empty."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(relation.schema.names())
        for row in relation.rows():
            writer.writerow(["" if v is None else v for v in row])


def to_csv_text(relation: Relation) -> str:
    """Render a relation as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(relation.schema.names())
    for row in relation.rows():
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()
