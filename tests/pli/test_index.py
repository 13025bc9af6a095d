"""Tests for the shared RelationIndex."""

from hypothesis import given

from repro.pli import RelationIndex
from repro.relation import Relation
from repro.relation.columnset import full_mask

from ..conftest import relations
from ..oracles import holds_fd, is_unique


class TestIndexBasics:
    def test_shapes(self, employees):
        index = RelationIndex(employees)
        assert index.n_rows == 5
        assert index.n_columns == 5

    def test_vectors_group_equal_values(self, employees):
        index = RelationIndex(employees)
        city = index.vector(1)
        assert city[0] == city[1]  # Portland == Portland
        assert city[0] != city[2]

    def test_distinct_values_first_seen_order(self):
        rel = Relation.from_rows(["A"], [("b",), ("a",), ("b",)])
        index = RelationIndex(rel)
        assert index.distinct_values(0) == ["b", "a"]

    def test_empty_mask_pli_rejected(self, employees):
        index = RelationIndex(employees)
        try:
            index.pli(0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_pli_memoized(self, employees):
        index = RelationIndex(employees)
        first = index.pli(0b110)
        before = index.intersections
        again = index.pli(0b110)
        assert first is again
        assert index.intersections == before

    def test_distinct_count_of_empty_set(self, employees):
        index = RelationIndex(employees)
        assert index.distinct_count(0) == 1


class TestChecksAgainstDefinitions:
    @given(relations(max_columns=4, max_rows=10))
    def test_is_unique_matches_definition(self, rel):
        index = RelationIndex(rel)
        for mask in range(1, 1 << rel.n_columns):
            assert index.is_unique(mask) == is_unique(rel, mask)

    @given(relations(max_columns=4, max_rows=10))
    def test_check_fd_matches_definition(self, rel):
        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        for rhs in range(rel.n_columns):
            for lhs in range(1, universe + 1):
                if lhs >> rhs & 1:
                    assert index.check_fd(lhs, rhs)  # trivial FD
                else:
                    assert index.check_fd(lhs, rhs) == holds_fd(rel, lhs, rhs)

    @given(relations(max_columns=4, max_rows=10, allow_nulls=True))
    def test_valid_rhs_matches_single_checks(self, rel):
        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        for lhs in range(1, universe + 1):
            batch = index.valid_rhs(lhs, universe)
            for rhs in range(rel.n_columns):
                assert bool(batch >> rhs & 1) == index.check_fd(lhs, rhs)

    @given(relations(max_columns=4, max_rows=8))
    def test_counters_move(self, rel):
        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        if universe:
            index.is_unique(universe)
            assert index.uniqueness_checks == 1
