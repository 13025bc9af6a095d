"""Tests for the column-oriented Relation model."""

import pytest
from hypothesis import given

from repro import profile
from repro.relation import Relation, SchemaError, read_csv_text
from repro.relation.encoded import (
    SPILL_DIR_ENV,
    STORAGE_MODES,
    encode_relation,
    use_storage,
)

from ..conftest import relations


class TestConstruction:
    def test_from_rows(self):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (3, 4)])
        assert rel.n_rows == 2
        assert rel.n_columns == 2
        assert rel.column("A") == (1, 3)
        assert rel.column(1) == (2, 4)

    def test_from_dict(self):
        rel = Relation.from_dict({"x": [1, 2], "y": [3, 4]})
        assert rel.column_names == ("x", "y")
        assert rel.row(1) == (2, 4)

    def test_empty_relation(self):
        rel = Relation.from_rows(["A", "B"], [])
        assert rel.n_rows == 0
        assert list(rel.iter_rows()) == []

    def test_zero_columns(self):
        rel = Relation([], [])
        assert rel.n_columns == 0
        assert rel.n_rows == 0

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", "A"], [[1], [2]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", "B"], [[1, 2], [3]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(["A", "B"], [(1, 2), (3,)])

    def test_name_column_count_mismatch(self):
        with pytest.raises(SchemaError):
            Relation(["A"], [[1], [2]])


class TestAccess:
    def test_column_index_by_name_and_position(self, employees):
        assert employees.column_index("zip") == 2
        assert employees.column_index(2) == 2

    def test_unknown_column_name(self, employees):
        with pytest.raises(KeyError):
            employees.column("nope")

    def test_column_index_out_of_range(self, employees):
        with pytest.raises(IndexError):
            employees.column(17)

    def test_iter_rows_matches_rows(self, employees):
        listed = list(employees.iter_rows())
        assert listed[0] == employees.row(0)
        assert len(listed) == employees.n_rows


class TestTransformations:
    def test_project(self, employees):
        projected = employees.project(["city", "state"])
        assert projected.column_names == ("city", "state")
        assert projected.n_rows == employees.n_rows

    def test_head(self, employees):
        assert employees.head(2).n_rows == 2
        assert employees.head(100).n_rows == employees.n_rows

    def test_head_negative(self, employees):
        with pytest.raises(ValueError):
            employees.head(-1)

    def test_deduplicated_removes_duplicates(self):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        assert rel.has_duplicate_rows()
        deduped = rel.deduplicated()
        assert deduped.n_rows == 2
        assert not deduped.has_duplicate_rows()

    def test_deduplicated_noop_returns_self(self, employees):
        assert employees.deduplicated() is employees

    def test_deduplicated_keeps_first_occurrence(self):
        rel = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y"), (1, "x")])
        assert list(rel.deduplicated().iter_rows()) == [(1, "x"), (2, "y")]

    @given(relations(max_columns=4, max_rows=10))
    def test_deduplicated_is_idempotent(self, rel):
        once = rel.deduplicated()
        assert once.deduplicated() == once
        assert not once.has_duplicate_rows()


class TestDunder:
    def test_equality(self):
        a = Relation.from_rows(["A"], [(1,), (2,)])
        b = Relation.from_rows(["A"], [(1,), (2,)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_data(self):
        a = Relation.from_rows(["A"], [(1,)])
        b = Relation.from_rows(["A"], [(2,)])
        assert a != b

    def test_repr_mentions_shape(self, employees):
        assert "5 columns" in repr(employees)
        assert "5 rows" in repr(employees)


class TestProjectionAppendIsolation:
    """A projection — or a relation constructed from another relation's
    columns — holds the same encoded column objects, and appends grow
    encoded columns in place: an append to either relation must still
    leave the other one exactly as it was."""

    NAMES = ["a", "b", "c"]
    ROWS = [("1", "x", "p"), ("2", "y", "p"), ("3", "x", "q"), ("4", "z", None)]
    BATCH = [("1", "y", "q"), ("5", "x", "r")]

    def _parent(self, source, mode):
        if source == "csv":
            text = "a,b,c\n" + "".join(
                ",".join(value or "" for value in row) + "\n" for row in self.ROWS
            )
            return read_csv_text(text)
        # In-memory object columns with sidecar encodings.
        return encode_relation(
            Relation.from_rows(self.NAMES, self.ROWS), storage=mode
        )

    @staticmethod
    def _state(relation):
        encodings = [relation.encoding(i) for i in range(relation.n_columns)]
        return (
            relation.n_rows,
            list(relation.iter_rows()),
            [len(relation.column(i)) for i in range(relation.n_columns)],
            [None if e is None else len(e) for e in encodings],
            relation.fingerprint(),
        )

    @pytest.mark.parametrize("appender", ["projection", "parent"])
    @pytest.mark.parametrize("sharing", ["project", "constructor"])
    @pytest.mark.parametrize("source", ["csv", "memory"])
    @pytest.mark.parametrize("mode", STORAGE_MODES)
    def test_append_leaves_the_other_relation_unchanged(
        self, mode, source, sharing, appender, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        with use_storage(mode):
            parent = self._parent(source, mode)
            if sharing == "project":
                projection = parent.project(["a", "b"])
            else:
                # The parent's encodings become the new relation's
                # columns: its columns themselves for a CSV, its sidecars
                # for an in-memory relation.
                projection = Relation(
                    ["a", "b"], [parent.encoding(i) for i in range(2)]
                )
            grown, other = (
                (projection, parent)
                if appender == "projection"
                else (parent, projection)
            )
            state = self._state(other)
            result = profile(other)

            grown.append_rows([row[: grown.n_columns] for row in self.BATCH])

            assert grown.n_rows == len(self.ROWS) + len(self.BATCH)
            assert self._state(other) == state
            # The cached fingerprint still describes the rows it holds.
            rebuilt = Relation.from_rows(other.column_names, other.iter_rows())
            assert rebuilt.fingerprint() == other.fingerprint()
            assert profile(other).same_metadata(result)
            # The appending side sees its own rows, encodings included.
            assert list(grown.iter_rows())[len(self.ROWS):] == [
                row[: grown.n_columns] for row in self.BATCH
            ]
            assert all(
                len(grown.encoding(i)) == grown.n_rows
                for i in range(grown.n_columns)
            )
