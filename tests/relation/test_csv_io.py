"""Tests for CSV reading/writing.

The read, write and streaming tests run once per storage mode: the
classes below hold the default mode, and a subclass per other mode at
the end of the module repeats them with the columns' codes there.
"""

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CSV_READ, FAULTS
from repro.relation import Relation, SchemaError, read_csv, read_csv_text, write_csv
from repro.relation.encoded import _BLOCK_ROWS, STORAGE_MODES, encode_column

from ..conftest import encoded_in


class TestRead:
    storage = "encoded"

    def read(self, text, **options):
        return read_csv(io.StringIO(text), storage=self.storage, **options)

    def test_basic(self):
        rel = self.read("a,b\n1,2\n3,4\n")
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("1", "3")
        assert rel.encoding("a").storage == self.storage

    def test_empty_fields_become_null(self):
        rel = self.read("a,b\n1,\n,2\n")
        assert rel.column("a") == ("1", None)
        assert rel.column("b") == (None, "2")

    def test_custom_null_values(self):
        rel = self.read("a\nNA\nx\n", null_values={"NA", ""})
        assert rel.column("a") == (None, "x")

    def test_bare_string_null_value_is_one_marker(self):
        # Regression: null_values="NA" used to be iterated as a string,
        # silently nulling every field equal to 'N' or 'A' instead of
        # matching the marker "NA" itself.
        rel = self.read("a\nNA\nN\nA\nx\n", null_values="NA")
        assert rel.column("a") == (None, "N", "A", "x")

    def test_no_header(self):
        rel = self.read("1,2\n3,4\n", has_header=False)
        assert rel.column_names == ("column_0", "column_1")
        assert rel.n_rows == 2

    def test_delimiter(self):
        rel = self.read("a;b\n1;2\n", delimiter=";")
        assert rel.column("b") == ("2",)

    def test_header_only(self):
        rel = self.read("a,b\n")
        assert rel.n_rows == 0

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            self.read("")

    def test_ragged_line_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            self.read("a,b\n1,2\n3\n")
        assert "line 3" in str(excinfo.value)

    def test_quoted_fields(self):
        rel = self.read('a,b\n"x,y",2\n')
        assert rel.column("a") == ("x,y",)

    def test_from_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        rel = read_csv(path, storage=self.storage)
        assert rel.name == "data"
        assert rel.n_rows == 1

    def test_utf8_bom_stripped_from_header(self, tmp_path):
        # Excel exports prepend a UTF-8 BOM; it must not leak into the
        # first column name (a "﻿a" column silently breaks every
        # by-name lookup downstream).
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        rel = read_csv(path, storage=self.storage)
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("1",)


ROUNDTRIP_ROWS = st.lists(
    st.tuples(
        st.text(alphabet="abc,\" \n", max_size=5).map(lambda s: s or None),
        st.text(alphabet="xyz;'", max_size=5).map(lambda s: s or None),
    ),
    max_size=8,
)


class TestWrite:
    storage = "encoded"

    def relation(self, names, rows):
        return encoded_in(Relation.from_rows(names, rows), self.storage)

    def test_roundtrip(self, tmp_path):
        rel = self.relation(["a", "b"], [("1", "x"), ("2", None)])
        path = tmp_path / "out.csv"
        write_csv(rel, path)
        back = read_csv(path, storage=self.storage)
        assert back.column("a") == ("1", "2")
        assert back.column("b") == ("x", None)
        assert back == rel
        assert back.fingerprint() == rel.fingerprint()

    def test_write_to_handle(self):
        rel = self.relation(["a"], [("v",)])
        buffer = io.StringIO()
        write_csv(rel, buffer)
        assert buffer.getvalue().strip().splitlines() == ["a", "v"]

    def test_custom_null_repr(self):
        rel = self.relation(["a"], [(None,)])
        buffer = io.StringIO()
        write_csv(rel, buffer, null_repr="NULL")
        assert "NULL" in buffer.getvalue()

    @given(ROUNDTRIP_ROWS)
    def test_roundtrip_property(self, rows):
        self.check_roundtrip(rows)

    def check_roundtrip(self, rows):
        rel = self.relation(["c0", "c1"], rows)
        buffer = io.StringIO()
        write_csv(rel, buffer)
        buffer.seek(0)
        back = read_csv(buffer, name="roundtrip", storage=self.storage)
        assert list(back.iter_rows()) == list(rel.iter_rows())


def test_writing_values_encodes_nothing():
    rel = Relation.from_rows(["a"], [("v",), ("w",)])
    write_csv(rel, io.StringIO())
    assert type(rel.column("a")) is tuple


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

    storage = "encoded"

    def test_stops_at_ragged_line_without_reading_the_rest(self):
        lines = ["a,b\n", "1,2\n", "3\n"] + ["4,5\n"] * 500
        source = _CountingLines(lines)
        with pytest.raises(SchemaError, match="line 3"):
            read_csv(source, name="broken", storage=self.storage)
        assert source.consumed <= 5, (
            "a ragged line early in the file must abort the read before "
            f"the whole input is pulled (consumed {source.consumed} lines)"
        )

    def test_streamed_read_matches_eager_semantics(self):
        text = "a,b\nx,\n,y\nx,y\n"
        rel = read_csv(io.StringIO(text), name="t", storage=self.storage)
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("x", None, "x")
        assert rel.column("b") == (None, "y", "y")

    def test_duplicate_header_rejected_before_reading_data(self):
        source = _CountingLines(["a,b,a\n"] + ["1,2,3\n"] * 500)
        with pytest.raises(SchemaError, match="duplicate column names"):
            read_csv(source, name="dup", storage=self.storage)
        assert source.consumed <= 2, (
            "a duplicate header must fail before the data is read "
            f"(consumed {source.consumed} lines)"
        )

    def test_streamed_no_header_decodes_first_line(self):
        rel = read_csv(
            io.StringIO("1,\n2,3\n"), has_header=False, storage=self.storage
        )
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
        streamed = read_csv(
            io.StringIO(buffer.getvalue()),
            has_header=False,
            null_values=NULL_MARKERS,
            storage=mode,
        )
        columns = [
            encode_column(
                [None if value in NULL_MARKERS else value for value in column],
                storage=mode,
            )
            for column in zip(*rows)
        ]
        post_hoc = Relation(streamed.column_names, columns)
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
    relation = read_csv(
        io.StringIO(_golden_csv()), null_values=("", "NA"), storage=mode
    )
    assert relation.n_rows == 2600
    assert relation.fingerprint() == (
        "6cd1f999ffb4740f7d82ab24c7baa9153b60ccf43cda1b3c8e7f2f32d118a551"
    )


class TestReadMmap(TestRead):
    storage = "mmap"


class TestWriteMmap(TestWrite):
    storage = "mmap"

    # Hypothesis wants one test class per @given function.
    @given(ROUNDTRIP_ROWS)
    def test_roundtrip_property(self, rows):
        self.check_roundtrip(rows)


class TestStreamingMmap(TestStreaming):
    storage = "mmap"
