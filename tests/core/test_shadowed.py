"""Tests for MUDS phase 3c: shadowed-FD machinery (Algorithms 2-4)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.check_cache import CheckCache
from repro.core.shadowed import (
    generate_shadowed_tasks,
    minimize_shadowed_tasks,
    remove_uccs,
)
from repro.lattice import PrefixTree
from repro.pli import RelationIndex
from repro.relation import Relation
from repro.relation.columnset import is_subset, iter_bits


def col_mask(text: str) -> int:
    return sum(1 << (ord(c) - ord("A")) for c in text)


class TestRemoveUccs:
    def test_no_contained_ucc_is_identity(self):
        tree = PrefixTree([col_mask("XYZ")])
        assert remove_uccs(col_mask("AB"), tree) == [col_mask("AB")]
        assert remove_uccs(col_mask("AB"), PrefixTree()) == [col_mask("AB")]

    def test_single_ucc_broken_every_way(self):
        tree = PrefixTree([col_mask("AB")])
        reduced = remove_uccs(col_mask("ABC"), tree)
        assert sorted(reduced) == sorted([col_mask("AC"), col_mask("BC")])

    def test_overlapping_uccs_minimal_removals(self):
        # UCCs AB and BC inside ABC: removing just B breaks both.
        tree = PrefixTree([col_mask("AB"), col_mask("BC")])
        reduced = remove_uccs(col_mask("ABC"), tree)
        assert col_mask("AC") in reduced

    @given(
        st.sets(st.integers(1, 63), min_size=1, max_size=5),
        st.integers(0, 63),
    )
    def test_results_are_ucc_free_and_maximal(self, uccs, lhs):
        tree = PrefixTree(uccs)
        for reduced in remove_uccs(lhs, tree):
            assert is_subset(reduced, lhs)
            # No contained UCC remains.
            assert not any(is_subset(u, reduced) for u in uccs)
            # Maximality: adding back any removed column re-introduces one.
            for column in iter_bits(lhs & ~reduced):
                grown = reduced | (1 << column)
                assert any(is_subset(u, grown) for u in uccs)


class TestPaperExample:
    def test_section_4_3_shadowed_fd(self):
        """§4.3: with minimal UCCs BCD, CDE, AD, the FD AC → B cannot be
        reached through UCC subsets (A and C never co-occur in one UCC);
        the shadowed machinery must recover it."""
        # Build a concrete instance realizing the example's structure.
        rows = [
            ("a1", "b1", "c1", "d1", "e1"),
            ("a1", "b2", "c2", "d2", "e1"),
            ("a2", "b1", "c1", "d2", "e2"),
            ("a2", "b2", "c2", "d1", "e2"),
            ("a3", "b3", "c1", "d1", "e3"),
        ]
        rel = Relation.from_rows(["A", "B", "C", "D", "E"], rows)
        from ..oracles import naive_fds, naive_uccs
        from repro.core.muds import Muds

        truth = set(naive_fds(rel))
        result = Muds(seed=1).profile(rel)
        got = {
            (fd.lhs_mask(rel.column_names), rel.column_names.index(fd.rhs))
            for fd in result.fds
        }
        assert got == truth


class TestGenerateAndMinimize:
    def make(self, rel):
        index = RelationIndex(rel)
        from ..oracles import naive_uccs

        uccs = naive_uccs(rel)
        return CheckCache(index), PrefixTree(uccs)

    def test_no_fds_no_tasks(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (2, 2)])
        cache, tree = self.make(rel)
        assert generate_shadowed_tasks(cache, tree, {}) == []

    def test_tasks_are_validated_fds(self):
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 2)],
        )
        cache, tree = self.make(rel)
        from ..oracles import naive_fds

        seed_fds = {lhs: 0 for lhs, __ in naive_fds(rel)}
        for lhs, rhs in naive_fds(rel):
            seed_fds[lhs] |= 1 << rhs
        tasks = generate_shadowed_tasks(cache, tree, seed_fds)
        from ..oracles import holds_fd

        for lhs, rhs_mask in tasks:
            for rhs in iter_bits(rhs_mask):
                assert holds_fd(rel, lhs, rhs)

    def test_minimize_emits_only_minimal(self):
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [(1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 2, 2)],
        )
        cache, __ = self.make(rel)
        # A -> C holds; feed the wider AB -> C as a task.
        fds: dict[int, int] = {}
        minimize_shadowed_tasks(cache, [(0b011, 0b100)], fds)
        assert fds == {0b001: 0b100}
