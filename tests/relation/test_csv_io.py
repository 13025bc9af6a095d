"""Tests for CSV reading/writing."""

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CSV_READ, FAULTS
from repro.relation import Relation, SchemaError, read_csv, read_csv_text, write_csv
from repro.relation.encoded import (
    _BLOCK_ROWS,
    STORAGE_MODES,
    encode_relation,
    use_storage,
)


class TestRead:
    def test_basic(self):
        rel = read_csv_text("a,b\n1,2\n3,4\n")
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("1", "3")

    def test_empty_fields_become_null(self):
        rel = read_csv_text("a,b\n1,\n,2\n")
        assert rel.column("a") == ("1", None)
        assert rel.column("b") == (None, "2")

    def test_custom_null_values(self):
        rel = read_csv_text("a\nNA\nx\n", null_values={"NA", ""})
        assert rel.column("a") == (None, "x")

    def test_bare_string_null_value_is_one_marker(self):
        # Regression: null_values="NA" used to be iterated as a string,
        # silently nulling every field equal to 'N' or 'A' instead of
        # matching the marker "NA" itself.
        rel = read_csv_text("a\nNA\nN\nA\nx\n", null_values="NA")
        assert rel.column("a") == (None, "N", "A", "x")

    def test_no_header(self):
        rel = read_csv_text("1,2\n3,4\n", has_header=False)
        assert rel.column_names == ("column_0", "column_1")
        assert rel.n_rows == 2

    def test_delimiter(self):
        rel = read_csv_text("a;b\n1;2\n", delimiter=";")
        assert rel.column("b") == ("2",)

    def test_header_only(self):
        rel = read_csv_text("a,b\n")
        assert rel.n_rows == 0

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            read_csv_text("")

    def test_ragged_line_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            read_csv_text("a,b\n1,2\n3\n")
        assert "line 3" in str(excinfo.value)

    def test_quoted_fields(self):
        rel = read_csv_text('a,b\n"x,y",2\n')
        assert rel.column("a") == ("x,y",)

    def test_from_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        rel = read_csv(path)
        assert rel.name == "data"
        assert rel.n_rows == 1

    def test_utf8_bom_stripped_from_header(self, tmp_path):
        # Excel exports prepend a UTF-8 BOM; it must not leak into the
        # first column name (a "﻿a" column silently breaks every
        # by-name lookup downstream).
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        rel = read_csv(path)
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("1",)


class TestWrite:
    def test_roundtrip(self, tmp_path):
        rel = Relation.from_rows(["a", "b"], [("1", "x"), ("2", None)])
        path = tmp_path / "out.csv"
        write_csv(rel, path)
        back = read_csv(path)
        assert back.column("a") == ("1", "2")
        assert back.column("b") == ("x", None)

    def test_write_to_handle(self):
        rel = Relation.from_rows(["a"], [("v",)])
        buffer = io.StringIO()
        write_csv(rel, buffer)
        assert buffer.getvalue().strip().splitlines() == ["a", "v"]

    def test_custom_null_repr(self):
        rel = Relation.from_rows(["a"], [(None,)])
        buffer = io.StringIO()
        write_csv(rel, buffer, null_repr="NULL")
        assert "NULL" in buffer.getvalue()

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abc,\" \n", max_size=5).map(lambda s: s or None),
                st.text(alphabet="xyz;'", max_size=5).map(lambda s: s or None),
            ),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, rows):
        rel = Relation.from_rows(["c0", "c1"], rows)
        buffer = io.StringIO()
        write_csv(rel, buffer)
        buffer.seek(0)
        back = read_csv(buffer, name="roundtrip")
        assert list(back.iter_rows()) == list(rel.iter_rows())


class _CountingLines:
    """Line iterator that records how many lines were pulled from it."""

    def __init__(self, lines):
        self._iterator = iter(lines)
        self.consumed = 0

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._iterator)
        self.consumed += 1
        return line


class TestStreaming:
    """read_csv must decode incrementally, not materialize the raw rows."""

    def test_stops_at_ragged_line_without_reading_the_rest(self):
        lines = ["a,b\n", "1,2\n", "3\n"] + ["4,5\n"] * 500
        source = _CountingLines(lines)
        with pytest.raises(SchemaError, match="line 3"):
            read_csv(source, name="broken")
        assert source.consumed <= 5, (
            "a ragged line early in the file must abort the read before "
            f"the whole input is pulled (consumed {source.consumed} lines)"
        )

    def test_streamed_read_matches_eager_semantics(self):
        text = "a,b\nx,\n,y\nx,y\n"
        rel = read_csv(io.StringIO(text), name="t")
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("x", None, "x")
        assert rel.column("b") == (None, "y", "y")

    def test_duplicate_header_rejected_before_reading_data(self):
        source = _CountingLines(["a,b,a\n"] + ["1,2,3\n"] * 500)
        with pytest.raises(SchemaError, match="duplicate column names"):
            read_csv(source, name="dup")
        assert source.consumed <= 2, (
            "a duplicate header must fail before the data is read "
            f"(consumed {source.consumed} lines)"
        )

    def test_streamed_no_header_decodes_first_line(self):
        rel = read_csv(io.StringIO("1,\n2,3\n"), has_header=False)
        assert rel.column_names == ("column_0", "column_1")
        assert rel.column("column_0") == ("1", "2")
        assert rel.column("column_1") == (None, "3")


NULL_MARKERS = ("", "NA", "null")


@st.composite
def _multi_block_rows(draw):
    """Rows of three string columns spanning more than two read blocks.

    Values carry quoted commas, quotes and newlines; each NULL marker
    first appears mid-block, past the first block, and then recurs.
    """
    n_rows = draw(st.integers(2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS))
    cardinalities = draw(st.lists(st.integers(1, 3000), min_size=3, max_size=3))
    starts = draw(
        st.lists(
            st.integers(_BLOCK_ROWS + 1, n_rows - 1).filter(
                lambda row: row % _BLOCK_ROWS
            ),
            min_size=len(NULL_MARKERS),
            max_size=len(NULL_MARKERS),
        )
    )
    rows = []
    for i in range(n_rows):
        row = []
        for column, cardinality in enumerate(cardinalities):
            value = f"v{i * (column + 3) % cardinality}"
            if i % 17 == column:
                value += ',"q"\nx'
            row.append(value)
        for offset, (marker, start) in enumerate(zip(NULL_MARKERS, starts)):
            if i >= start and (i - start) % 7 == 0:
                row[(i + offset) % 3] = marker
        rows.append(row)
    return rows


class TestBlockBoundaries:
    """The read encodes and hashes in blocks of rows; nothing it produces
    may depend on where the block boundaries fall."""

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    @settings(max_examples=8, deadline=None)
    @given(rows=_multi_block_rows())
    def test_matches_post_hoc_encoding(self, mode, rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        with use_storage(mode):
            streamed = read_csv(
                io.StringIO(buffer.getvalue()),
                has_header=False,
                null_values=NULL_MARKERS,
            )
        columns = [
            [None if value in NULL_MARKERS else value for value in column]
            for column in zip(*rows)
        ]
        post_hoc = encode_relation(
            Relation(streamed.column_names, columns), storage=mode
        )
        assert streamed.n_rows == len(rows)
        for index in range(streamed.n_columns):
            mine, theirs = streamed.encoding(index), post_hoc.encoding(index)
            assert mine.dictionary == theirs.dictionary
            assert bytes(mine.codes) == bytes(theirs.codes)
        assert streamed.fingerprint() == post_hoc.fingerprint()

    def test_ragged_first_row_of_second_block_reports_its_line(self):
        good = "".join(f"{i},{i}\n" for i in range(_BLOCK_ROWS))
        with pytest.raises(
            SchemaError, match=rf"^line {_BLOCK_ROWS + 2}: expected 2 fields, found 1$"
        ):
            read_csv_text("a,b\n" + good + "x\n1,2\n")
        with pytest.raises(SchemaError, match=rf"^line {_BLOCK_ROWS + 1}: "):
            read_csv_text(good + "x\n1,2\n", has_header=False)

    @pytest.mark.parametrize("has_header", [True, False])
    def test_fault_point_is_hit_once_per_data_row(self, has_header):
        n_rows = 2 * _BLOCK_ROWS + 3
        text = ("a,b\n" if has_header else "") + "".join(
            f"{i},x\n" for i in range(n_rows)
        )
        FAULTS.arm(CSV_READ, at=10 * n_rows)  # counts hits, never fires
        try:
            read_csv_text(text, has_header=has_header)
            assert FAULTS.hits(CSV_READ) == n_rows
        finally:
            FAULTS.disarm(CSV_READ)


def _golden_csv() -> str:
    lines = ["id,city,note"]
    for i in range(2600):
        city = ("", "Berlin", "Köln", "NA", "Zürich")[i * 7 % 5]
        note = f'"n{i % 97}, ""q""\nx"' if i % 11 == 0 else f"n{i % 97}"
        lines.append(f"{i % 1500},{city},{note}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", STORAGE_MODES)
def test_golden_fingerprint_is_stable(mode):
    # Result-cache and checkpoint keys are fingerprints: a change to the
    # read path must not change the bytes it hashes.  This digest was
    # computed by the per-value read that preceded the block read.
    with use_storage(mode):
        relation = read_csv_text(_golden_csv(), null_values=("", "NA"))
    assert relation.n_rows == 2600
    assert relation.fingerprint() == (
        "6cd1f999ffb4740f7d82ab24c7baa9153b60ccf43cda1b3c8e7f2f32d118a551"
    )
