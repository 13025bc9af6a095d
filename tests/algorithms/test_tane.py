"""Tests for TANE (level-wise FD discovery with C+ pruning)."""

from hypothesis import given

from repro.algorithms import tane, tane_on_relation
from repro.pli import RelationIndex
from repro.relation import Relation

from ..conftest import relations
from ..oracles import naive_fds, naive_uccs


class TestBasics:
    def test_textbook_fd(self):
        rel = Relation.from_rows(
            ["zip", "city"], [("1", "P"), ("1", "P"), ("2", "S")]
        )
        assert (0b01, 1) in tane_on_relation(rel).fds

    def test_reports_minimal_keys(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 2), (2, 1)])
        assert tane_on_relation(rel).minimal_keys == [0b11]

    def test_key_lhs_fd_found_despite_pruned_siblings(self):
        """Regression: the key-pruning minimality test must not drop FDs
        whose sibling nodes were pruned in earlier levels."""
        rel = Relation.from_rows(
            ["A", "B", "C", "D"],
            [(2, 2, 2, 1), (0, 1, 1, 0), (0, 0, 2, 1)],
        )
        fds = tane_on_relation(rel).fds
        assert (0b0101, 1) in fds  # {A,C} -> B, with key {B} pruned early
        assert (0b1001, 1) in fds  # {A,D} -> B


class TestEmptyLhsSemantics:
    def test_default_excludes_empty_lhs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 9), (2, 9)])
        assert tane_on_relation(rel).fds == [(0b01, 1)]

    def test_empty_lhs_mode(self):
        rel = Relation.from_rows(["A", "B"], [(1, 9), (2, 9)])
        assert tane_on_relation(rel, include_empty_lhs=True).fds == [(0, 1)]

    @given(relations(max_columns=4, max_rows=10))
    def test_empty_lhs_matches_naive(self, rel):
        got = tane_on_relation(rel, include_empty_lhs=True).fds
        assert got == naive_fds(rel, include_empty_lhs=True)


class TestAgainstOracle:
    @given(relations(max_columns=5, max_rows=14))
    def test_matches_naive(self, rel):
        assert tane(RelationIndex(rel)).fds == naive_fds(rel)

    @given(relations(max_columns=5, max_rows=14, allow_nulls=True))
    def test_matches_naive_with_nulls(self, rel):
        assert tane(RelationIndex(rel)).fds == naive_fds(rel)

    @given(relations(max_columns=5, max_rows=12))
    def test_keys_match_minimal_uccs(self, rel):
        assert sorted(tane(RelationIndex(rel)).minimal_keys) == naive_uccs(rel)

    @given(relations(max_columns=4, max_rows=10))
    def test_agrees_with_fun(self, rel):
        from repro.algorithms import fun

        assert tane(RelationIndex(rel)).fds == fun(RelationIndex(rel)).fds
