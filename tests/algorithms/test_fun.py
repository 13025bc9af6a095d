"""Tests for FUN (level-wise FD discovery over free sets)."""

from hypothesis import given

from repro.algorithms import fun, fun_on_relation
from repro.pli import RelationIndex
from repro.relation import Relation
from repro.relation.columnset import is_proper_subset, size

from ..conftest import relations
from ..oracles import naive_fds, naive_uccs


class TestBasics:
    def test_textbook_fd(self):
        rel = Relation.from_rows(
            ["zip", "city", "state"],
            [("97201", "P", "OR"), ("97201", "P", "OR2"), ("97301", "S", "OR")],
        )
        result = fun_on_relation(rel)
        assert (0b001, 1) in result.fds  # zip -> city

    def test_constant_column_gets_singleton_lhs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 9), (2, 9)])
        assert fun_on_relation(rel).fds == [(0b01, 1)]

    def test_collects_minimal_uccs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 2), (2, 1)])
        result = fun_on_relation(rel)
        assert result.minimal_uccs == [0b11]

    def test_empty_relation(self):
        rel = Relation.from_rows(["A", "B"], [])
        result = fun_on_relation(rel)
        assert result.minimal_uccs == [0b01, 0b10]

    def test_counters_populated(self):
        rel = Relation.from_rows(["A", "B", "C"], [(1, 2, 3), (4, 5, 6)])
        result = fun_on_relation(rel)
        assert result.fd_checks > 0
        assert result.free_sets >= 3


class TestLemmas:
    @given(relations(max_columns=5, max_rows=12))
    def test_lemma3_minimal_uccs_are_found_by_free_set_traversal(self, rel):
        """Lemma 3: every minimal UCC is a free set, so FUN's traversal
        must surface exactly the minimal UCCs."""
        assert fun(RelationIndex(rel)).minimal_uccs == naive_uccs(rel)

    @given(relations(max_columns=5, max_rows=12))
    def test_lemma2_uccs_determine_everything(self, rel):
        """Lemma 2: a UCC functionally determines all other columns — the
        FD closure over a UCC must cover the whole schema."""
        result = fun(RelationIndex(rel))
        index = RelationIndex(rel)
        for ucc in result.minimal_uccs:
            for rhs in range(rel.n_columns):
                if not ucc >> rhs & 1:
                    assert index.check_fd(ucc, rhs)


class TestAgainstOracle:
    @given(relations(max_columns=5, max_rows=14))
    def test_matches_naive(self, rel):
        assert fun(RelationIndex(rel)).fds == naive_fds(rel)

    @given(relations(max_columns=5, max_rows=14, allow_nulls=True))
    def test_matches_naive_with_nulls(self, rel):
        assert fun(RelationIndex(rel)).fds == naive_fds(rel)

    @given(relations(max_columns=5, max_rows=12))
    def test_results_are_minimal_and_nontrivial(self, rel):
        fds = fun(RelationIndex(rel)).fds
        by_rhs: dict[int, list[int]] = {}
        for lhs, rhs in fds:
            assert size(lhs) >= 1
            assert not lhs >> rhs & 1
            by_rhs.setdefault(rhs, []).append(lhs)
        for lhs_list in by_rhs.values():
            for a in lhs_list:
                for b in lhs_list:
                    assert a == b or not is_proper_subset(a, b)
