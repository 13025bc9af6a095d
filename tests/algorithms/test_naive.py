"""Tests for the brute-force oracles themselves (hand-checked cases)."""

from repro.relation import Relation

from ..oracles import holds_fd, is_unique, naive_fds, naive_inds, naive_uccs


class TestNaiveInds:
    def test_simple_containment(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 2)])
        # values(A)={1} ⊆ values(B)={1,2}
        assert naive_inds(rel) == [(0, 1)]

    def test_nulls_ignored(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (None, 2)])
        assert (0, 1) in naive_inds(rel)

    def test_all_null_column_included_everywhere(self):
        rel = Relation.from_rows(["A", "B"], [(None, 1), (None, 2)])
        assert (0, 1) in naive_inds(rel)
        assert (1, 0) not in naive_inds(rel)

    def test_cross_type_string_comparison(self):
        rel = Relation.from_rows(["A", "B"], [(1, "1"), (2, "2")])
        assert naive_inds(rel) == [(0, 1), (1, 0)]

    def test_search_space_size(self):
        rel = Relation.from_rows(["A", "B", "C"], [(1, 1, 1)])
        assert len(naive_inds(rel)) <= 3 * 2  # n(n-1) candidates (§2.1)


class TestNaiveUccs:
    def test_single_key(self):
        rel = Relation.from_rows(["A", "B"], [(1, 5), (2, 5)])
        assert naive_uccs(rel) == [0b01]

    def test_composite_key_only(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 2), (2, 1)])
        assert naive_uccs(rel) == [0b11]

    def test_duplicate_rows_no_uccs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 1)])
        assert naive_uccs(rel) == []

    def test_minimality(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (2, 2)])
        # A alone and B alone are keys; AB is not minimal.
        assert naive_uccs(rel) == [0b01, 0b10]

    def test_is_unique_empty_mask(self):
        rel = Relation.from_rows(["A"], [(1,), (2,)])
        assert not is_unique(rel, 0)
        assert is_unique(Relation.from_rows(["A"], [(1,)]), 0)


class TestNaiveFds:
    def test_simple_fd(self):
        rel = Relation.from_rows(
            ["zip", "city"], [("1", "P"), ("1", "P"), ("2", "S")]
        )
        assert (0b01, 1) in naive_fds(rel)

    def test_holds_fd_definition(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 2)])
        assert not holds_fd(rel, 0b01, 1)
        assert holds_fd(rel, 0b10, 0)

    def test_constant_column_semantics_default(self):
        rel = Relation.from_rows(["A", "B"], [(1, 9), (2, 9)])
        # Default: no empty-lhs FDs; every other column determines B.
        assert naive_fds(rel) == [(0b01, 1)]

    def test_constant_column_semantics_empty_lhs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 9), (2, 9)])
        assert naive_fds(rel, include_empty_lhs=True) == [(0, 1)]

    def test_minimality(self):
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [(1, 1, 1), (1, 2, 1), (2, 1, 2)],
        )
        fds = naive_fds(rel)
        # A -> C minimal, so AB -> C must not appear.
        assert (0b001, 2) in fds
        assert (0b011, 2) not in fds

    def test_empty_relation_all_fds_hold(self):
        rel = Relation.from_rows(["A", "B"], [])
        assert (0b01, 1) in naive_fds(rel)
        assert (0b10, 0) in naive_fds(rel)
