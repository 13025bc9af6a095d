"""Tests for the column-oriented Relation model.

The transformation and equality tests run on columns of values (the
classes below) and again, through a subclass per storage mode at the end
of the module, on columns encoded in that mode.
"""

import io

import pytest
from hypothesis import given

from repro import profile
from repro.relation import Relation, SchemaError, read_csv
from repro.relation.encoded import SPILL_DIR_ENV, STORAGE_MODES, EncodedColumn

from ..conftest import encoded_in, relations


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


class _InStorage:
    #: ``None``: columns of values; a storage mode: columns encoded in it.
    storage = None

    def make(self, relation):
        if self.storage is None:
            return relation
        return encoded_in(relation, self.storage)


class TestTransformations(_InStorage):
    def test_project(self, employees):
        employees = self.make(employees)
        projected = employees.project(["city", "state"])
        assert projected.column_names == ("city", "state")
        assert projected.n_rows == employees.n_rows
        assert projected.column("city") is employees.column("city")

    def test_head(self, employees):
        employees = self.make(employees)
        assert employees.head(2).n_rows == 2
        assert employees.head(2).row(1) == employees.row(1)
        assert employees.head(100).n_rows == employees.n_rows

    def test_head_negative(self, employees):
        with pytest.raises(ValueError):
            self.make(employees).head(-1)

    def test_head_and_deduplicated_return_values(self, employees):
        # Both keep each column's representation: values stay values, and
        # an encoded column is re-encoded in its own storage mode, so a
        # relation read into mmap stays there.
        employees = self.make(employees)
        duplicated = self.make(
            Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        )
        for derived in (employees.head(2), duplicated.deduplicated()):
            for index in range(derived.n_columns):
                column = derived.column(index)
                if self.storage is None:
                    assert not isinstance(column, EncodedColumn)
                else:
                    assert column.storage == self.storage
                    assert len(column.codes) == derived.n_rows

    def test_deduplicated_removes_duplicates(self):
        rel = self.make(Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)]))
        assert rel.has_duplicate_rows()
        deduped = rel.deduplicated()
        assert deduped.n_rows == 2
        assert not deduped.has_duplicate_rows()

    def test_deduplicated_noop_returns_self(self, employees):
        employees = self.make(employees)
        assert employees.deduplicated() is employees

    def test_deduplicated_keeps_first_occurrence(self):
        rel = self.make(
            Relation.from_rows(["A", "B"], [(1, "x"), (2, "y"), (1, "x")])
        )
        assert list(rel.deduplicated().iter_rows()) == [(1, "x"), (2, "y")]

    @given(relations(max_columns=4, max_rows=10))
    def test_deduplicated_is_idempotent(self, rel):
        self.check_deduplicated_is_idempotent(rel)

    def check_deduplicated_is_idempotent(self, rel):
        once = self.make(rel).deduplicated()
        assert once.deduplicated() == once
        assert not once.has_duplicate_rows()


class TestDunder(_InStorage):
    def test_equality(self):
        # Equal content is equal whether a column holds values or codes.
        a = self.make(Relation.from_rows(["A"], [(1,), (2,)]))
        b = Relation.from_rows(["A"], [(1,), (2,)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_data(self):
        a = self.make(Relation.from_rows(["A"], [(1,)]))
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
            return read_csv(io.StringIO(text), storage=mode)
        # In-memory values: encoded in memory on first use, or up front
        # in the other mode.
        relation = Relation.from_rows(self.NAMES, self.ROWS)
        return relation if mode == "encoded" else encoded_in(relation, mode)

    @staticmethod
    def _state(relation):
        return (
            relation.n_rows,
            list(relation.iter_rows()),
            [len(relation.encoding(i)) for i in range(relation.n_columns)],
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
        parent = self._parent(source, mode)
        if sharing == "project":
            projection = parent.project(["a", "b"])
        else:
            # The parent's encodings become the new relation's columns.
            projection = Relation(["a", "b"], [parent.encoding(i) for i in range(2)])
        grown, other = (
            (projection, parent) if appender == "projection" else (parent, projection)
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
            len(grown.encoding(i)) == grown.n_rows for i in range(grown.n_columns)
        )


class TestTransformationsEncoded(TestTransformations):
    storage = "encoded"

    # Hypothesis wants one test class per @given function.
    @given(relations(max_columns=4, max_rows=10))
    def test_deduplicated_is_idempotent(self, rel):
        self.check_deduplicated_is_idempotent(rel)


class TestTransformationsMmap(TestTransformations):
    storage = "mmap"

    @given(relations(max_columns=4, max_rows=10))
    def test_deduplicated_is_idempotent(self, rel):
        self.check_deduplicated_is_idempotent(rel)


class TestDunderEncoded(TestDunder):
    storage = "encoded"


class TestDunderMmap(TestDunder):
    storage = "mmap"
