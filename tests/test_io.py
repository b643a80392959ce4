"""Unit tests for CSV I/O, and parity of the one-pass loader.

The loader parses a file once into columns and builds each column's
codebook on the way (:mod:`repro.relation.io`).  The parity suite
checks it against the row-by-row, two-pass read in
:mod:`tests.oracles`: the same schema, values and errors, and
codebooks equal to a cold build.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import load_relation
from repro.incremental import Delta
from repro.relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    read_csv,
    read_csv_text,
    to_csv_text,
    write_csv,
)
from repro.relation.encoding import ColumnCodes
from repro.runtime import InputError

from . import oracles

CSV = "name,price\nalpha,10\nbeta,20.5\ngamma,\n"


def numeric_schema():
    return Schema(
        [Attribute("name"), Attribute("price", AttributeType.NUMERICAL)]
    )


class TestRead:
    def test_untyped_read_keeps_strings(self):
        r = read_csv_text(CSV)
        # No numeric coercion without a typed schema; empties are None.
        assert r.column("price") == ("10", "20.5", None)

    def test_typed_read_coerces_numbers(self):
        r = read_csv_text(CSV, numeric_schema())
        assert r.column("price") == (10, 20.5, None)

    def test_int_preserved_as_int(self):
        r = read_csv_text(CSV, numeric_schema())
        assert isinstance(r.value_at(0, "price"), int)

    def test_header_mismatch_raises(self):
        with pytest.raises(ValueError):
            read_csv_text(CSV, ["x", "y"])

    def test_ragged_row_raises(self):
        with pytest.raises(ValueError):
            read_csv_text("a,b\n1\n")

    def test_no_header_raises(self):
        with pytest.raises(ValueError):
            read_csv_text("")

    def test_bad_number_raises(self):
        with pytest.raises(ValueError):
            read_csv_text("price\nabc\n", numeric_schema().project(["price"]))


class TestInputErrorContext:
    """Malformed CSVs raise typed InputErrors locating the bad cell."""

    def test_bad_number_carries_row_and_column(self):
        text = "name,price\nalpha,10\nbeta,oops\n"
        with pytest.raises(InputError) as exc:
            read_csv_text(text, numeric_schema())
        assert exc.value.row == 3  # header is line 1
        assert exc.value.column == "price"
        assert "non-numeric value" in str(exc.value)
        assert "line 3" in str(exc.value) and "price" in str(exc.value)

    def test_ragged_row_carries_row_number(self):
        with pytest.raises(InputError) as exc:
            read_csv_text("a,b\n1,2\n3\n")
        assert exc.value.row == 3

    def test_file_errors_carry_source(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("price\nnope\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            read_csv(p, numeric_schema().project(["price"]))
        assert exc.value.source == str(p)
        assert str(p) in str(exc.value)

    def test_no_header_is_input_error(self):
        with pytest.raises(InputError):
            read_csv_text("")

    def test_header_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            read_csv_text(CSV, ["x", "y"])


class TestNonFinite:
    """NaN/inf are rejected by default, mapped to null on opt-in."""

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_nonfinite_rejected_by_default(self, bad):
        text = f"name,price\nalpha,{bad}\n"
        with pytest.raises(InputError) as exc:
            read_csv_text(text, numeric_schema())
        assert exc.value.row == 2
        assert exc.value.column == "price"
        assert "non-finite" in str(exc.value)
        assert "allow_nonfinite" in str(exc.value)  # actionable message

    def test_opt_out_maps_to_none(self):
        text = "name,price\nalpha,nan\nbeta,inf\ngamma,3\n"
        r = read_csv_text(text, numeric_schema(), allow_nonfinite=True)
        assert r.column("price") == (None, None, 3)

    def test_opt_out_on_file_reader(self, tmp_path):
        p = tmp_path / "nf.csv"
        p.write_text("price\ninf\n", encoding="utf-8")
        with pytest.raises(InputError):
            read_csv(p, numeric_schema().project(["price"]))
        r = read_csv(
            p, numeric_schema().project(["price"]), allow_nonfinite=True
        )
        assert r.column("price") == (None,)

    def test_nonfinite_in_text_column_is_fine(self):
        # Only numerical columns police finiteness.
        r = read_csv_text("name,price\nnan,1\n", numeric_schema())
        assert r.value_at(0, "name") == "nan"


class TestRoundTrip:
    def test_text_roundtrip(self):
        r = read_csv_text(CSV, numeric_schema())
        again = read_csv_text(to_csv_text(r), numeric_schema())
        assert again == r

    def test_file_roundtrip(self, tmp_path):
        r = read_csv_text(CSV, numeric_schema())
        path = tmp_path / "out.csv"
        write_csv(r, path)
        assert read_csv(path, numeric_schema()) == r

    def test_none_written_as_empty(self):
        r = Relation.from_rows(["a", "b"], [(None, "x")])
        lines = to_csv_text(r).splitlines()
        assert lines == ["a,b", ",x"]


# -- one-pass loader parity ---------------------------------------------------

#: Cells every numerical column accepts: empties, whitespace, int and
#: float spellings, signed zero, integers past 2**53, underscores,
#: non-ASCII digits and spaces.
FINITE = [
    "", " ", "1", "1.0", "01", "1e3", "-0.0", "0", " 2 ", "-3", "2.5",
    "0.1", "9007199254740993", "18446744073709551617", "1e300", "1_000",
    "\u0663", "\u20031\u2003",
]
NONFINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity"]
TEXT = ["abc", "a,b", "x\ny", 'say "hi"', "  pad ", "1 2", "-", "\u00e9"]
POOLS = [FINITE, FINITE + NONFINITE, FINITE + TEXT[:2], TEXT, FINITE + NONFINITE + TEXT]

TYPES = list(AttributeType)


@st.composite
def csv_inputs(draw):
    """CSV text plus its (stripped) header names.

    Columns draw their cells from one pool each, so whole columns come
    out numerical, non-finite or mixed.  Rows may be separated by blank
    lines, one row may have the wrong width, and one line may hold a
    stray carriage return in an unquoted cell (a ``csv.Error`` in text
    read without newline translation, a line break in a file).
    """
    width = draw(st.integers(1, 4))
    names = [f"c{j}" for j in range(width)]
    pools = [draw(st.sampled_from(POOLS)) for __ in names]
    n = draw(st.integers(0, 8))
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for __ in range(n)]
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + ["x"]
    stray = draw(st.none() | st.integers(0, n))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([f" {name}" if j % 2 else name for j, name in enumerate(names)])
    for i, row in enumerate([*rows, None]):
        if i == stray:
            out.write(",".join(["1\r2"] + [""] * (width - 1)) + "\n")
        if row is None:
            break
        writer.writerow(row)
        if draw(st.booleans()) and draw(st.booleans()):
            out.write("\n")
    return out.getvalue(), names


def outcome(load, *args, **kwargs):
    """``("ok", relation)`` or ``("error", type, message)``."""
    try:
        return ("ok", load(*args, **kwargs))
    except Exception as exc:  # parity covers every error type
        return ("error", type(exc), str(exc))


def typed(relation):
    return [[(type(v), v) for v in col] for col in relation._columns]


def assert_encoded_like_cold(relation):
    """Every column arrives encoded, equal to a cold build field by field."""
    enc = relation._enc
    assert enc is not None
    cold = Relation.from_columns(relation.schema, relation._columns).encoding()
    for j, column in enumerate(relation._columns):
        got = enc._per_column[j]
        want = ColumnCodes(column)
        assert got is not None
        assert got.codes == want.codes
        assert got.array().dtype == want.array().dtype == np.int64
        assert [(type(v), v) for v in got.values] == [
            (type(v), v) for v in want.values
        ]
        assert list(got.codebook.items()) == list(want.codebook.items())
        for field in ("n_distinct", "none_code", "numeric_safe", "self_unequal"):
            assert getattr(got, field) == getattr(want, field), field
        assert got.kind(column) == want.kind(column)
        assert np.array_equal(got.valid_array(), want.valid_array())
        if want.numeric_safe:
            assert (
                got.float_array(column).tobytes()
                == want.float_array(column).tobytes()
            )
        assert enc.group_table((j,)) == cold.group_table((j,))


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got == want
        return
    assert got[1].schema == want[1].schema
    assert typed(got[1]) == typed(want[1])
    assert_encoded_like_cold(got[1])


@settings(max_examples=300, deadline=None)
@given(csv_inputs(), st.data(), st.booleans())
def test_read_csv_text_matches_row_reader(given_input, data, allow_nonfinite):
    text, names = given_input
    schema = data.draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(TYPES), min_size=len(names), max_size=len(names))
            .map(lambda ts: Schema(
                [Attribute(n, t) for n, t in zip(names, ts, strict=True)]
            )),
        )
    )
    assert_same(
        outcome(read_csv_text, text, schema, allow_nonfinite=allow_nonfinite),
        outcome(
            oracles.read_csv_rows, io.StringIO(text), schema,
            allow_nonfinite=allow_nonfinite,
        ),
    )


@settings(max_examples=300, deadline=None)
@given(csv_inputs(), st.data())
def test_load_relation_matches_two_pass_detection(given_input, data):
    text, names = given_input
    candidates = [*names, "absent"]
    numerical = data.draw(st.lists(st.sampled_from(candidates), max_size=2))
    text_cols = data.draw(st.lists(st.sampled_from(candidates), max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        assert_same(
            outcome(load_relation, path, numerical, text_cols),
            outcome(oracles.load_relation, path, numerical, text_cols),
        )
        assert_same(outcome(load_relation, path), outcome(oracles.load_relation, path))
        typed_schema = outcome(oracles.detect_schema, path, set(), set())
        if typed_schema[0] == "ok":
            for allow in (False, True):
                assert_same(
                    outcome(read_csv, path, typed_schema[1], allow_nonfinite=allow),
                    outcome(oracles.read_csv, path, typed_schema[1], allow),
                )


class TestLoaderErrors:
    """Which error wins when a file has several."""

    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_first_bad_line_wins_in_read_csv(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\nnan,x\n3\n")
        schema = Schema(
            [Attribute("a", AttributeType.NUMERICAL), Attribute("b")]
        )
        with pytest.raises(InputError) as exc:
            read_csv(path, schema)
        assert exc.value.row == 3 and exc.value.column == "a"
        late = self.write(tmp_path, "a,b\n1,2\n3\nnan,x\n")
        with pytest.raises(InputError) as exc:
            read_csv(late, schema)
        assert exc.value.row == 3 and "width 1" in str(exc.value)

    def test_earliest_cell_wins_across_columns(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,inf\nnan,2\n")
        with pytest.raises(InputError) as exc:
            load_relation(path)
        assert (exc.value.row, exc.value.column) == (2, "b")
        same_line = self.write(tmp_path, "a,b\n1,2\ninf,nan\n")
        with pytest.raises(InputError) as exc:
            load_relation(same_line)
        assert (exc.value.row, exc.value.column) == (3, "a")

    def test_ragged_row_anywhere_wins_in_detection(self, tmp_path):
        path = self.write(tmp_path, "a,b\nnan,1\n2\n")
        with pytest.raises(InputError) as exc:
            load_relation(path)
        assert exc.value.row == 3 and "width 1" in str(exc.value)

    def test_bad_cell_before_a_csv_error_wins_in_read_csv(self, tmp_path):
        schema = Schema([Attribute("a", AttributeType.NUMERICAL)])
        # Without newline translation a stray CR in an unquoted cell
        # stops the reader, on a line after the bad cell.
        with pytest.raises(InputError) as exc:
            read_csv_text("a\nx\n1\r2\n", schema)
        assert (exc.value.row, exc.value.column) == (2, "a")
        with pytest.raises(csv.Error):
            read_csv_text("a\n1\n1\r2\nx\n", schema)
        big = "9" * (csv.field_size_limit() + 1)
        path = self.write(tmp_path, f"a\nx\n{big}\n")
        with pytest.raises(InputError) as exc:
            read_csv(path, schema)
        assert (exc.value.row, exc.value.column) == (2, "a")
        # Detection reads the whole file first: the csv.Error wins.
        with pytest.raises(csv.Error, match="field larger"):
            load_relation(path, numerical=["a"])

    def test_quoted_newlines_keep_line_numbers(self, tmp_path):
        path = self.write(tmp_path, 'a,b\n1,"x\ny"\n\n2,z\nnan,w\n')
        with pytest.raises(InputError) as exc:
            load_relation(path)
        assert exc.value.row == 6


CARRY_SCHEMA = Schema(
    [Attribute("key"), Attribute("num", AttributeType.NUMERICAL)]
)
CARRY_CELLS = st.tuples(
    st.sampled_from(["k1", "k2", " k3 ", ""]),
    st.sampled_from(["1", "", "2.5", "-0.0", "1e3", " 7 ", "9007199254740993"]),
)
BATCH_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["k1", "k3", "k4", None]),
        st.sampled_from([0, 1, 2.5, -3, 7.0, None, 2**60]),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(CARRY_CELLS, max_size=8), BATCH_ROWS, st.booleans())
def test_loaded_codebooks_carry_through_apply_delta(cells, rows, warm):
    """A CSV-loaded relation extended by a batch encodes like a cold build."""
    text = "key,num\n" + "".join(f"{k},{v}\n" for k, v in cells)
    loaded = read_csv_text(text, CARRY_SCHEMA)
    if warm:  # member lists built before the batch carry over as well
        for j in range(len(CARRY_SCHEMA)):
            loaded.encoding().group_table((j,))
    out = loaded.apply_delta(Delta(inserts=rows))
    assert out == Relation.from_rows(CARRY_SCHEMA, out.rows())
    assert_encoded_like_cold(out)
    assert_encoded_like_cold(loaded)  # shared member lists stay the parent's
