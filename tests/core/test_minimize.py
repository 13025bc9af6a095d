"""Tests for MUDS phase 3a: connector lookup and Algorithm 1."""

from hypothesis import given

from repro.core.check_cache import CheckCache
from repro.core.minimize import connector_lookup, minimize_fds_from_uccs
from repro.lattice import PrefixTree
from repro.pli import RelationIndex
from repro.relation import Relation
from repro.relation.columnset import is_subset, iter_bits

from ..conftest import relations
from ..oracles import naive_fds, naive_uccs


def col_mask(text: str) -> int:
    return sum(1 << (ord(c) - ord("A")) for c in text)


class TestConnectorLookup:
    def test_paper_table2(self):
        """Table 2: UCCs AFG, BDFG, DEF, CEFG; connector FG yields the
        union ABCDE of the matched UCCs' non-connector columns."""
        tree = PrefixTree(
            [col_mask("AFG"), col_mask("BDFG"), col_mask("DEF"), col_mask("CEFG")]
        )
        assert connector_lookup(tree, col_mask("FG")) == col_mask("ABCDE")

    def test_unmatched_connector(self):
        tree = PrefixTree([col_mask("AB")])
        assert connector_lookup(tree, col_mask("C")) == 0

    def test_empty_connector_matches_all(self):
        tree = PrefixTree([col_mask("AB"), col_mask("C")])
        assert connector_lookup(tree, 0) == col_mask("ABC")


class TestMinimizeFdsFromUccs:
    def run_phase(self, rel):
        index = RelationIndex(rel)
        uccs = naive_uccs(rel)
        z_mask = 0
        for ucc in uccs:
            z_mask |= ucc
        fds = minimize_fds_from_uccs(
            CheckCache(index), PrefixTree(uccs), uccs, z_mask
        )
        return fds, z_mask, set(naive_fds(rel))

    def test_fig4_style_minimization(self):
        """An FD between overlapping minimal UCCs must be reported at its
        minimal lhs: UCCs are {A,B} and {B,C}, A determines C, and the
        descent from {A,B} with connector B must minimize down to A → C."""
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [(1, 1, 5), (1, 2, 5), (2, 1, 6), (2, 2, 6)],
        )
        fds, __, truth = self.run_phase(rel)
        pairs = {
            (lhs, rhs) for lhs, mask in fds.items() for rhs in iter_bits(mask)
        }
        assert pairs <= truth
        assert (0b001, 2) in pairs  # A -> C, minimized below the UCC {A,B}

    @given(relations(max_columns=5, max_rows=12))
    def test_outputs_are_valid_fds_with_rhs_in_z(self, rel):
        """Phase 3a only ever emits valid FDs whose rhs lies inside Z."""
        from ..oracles import holds_fd

        fds, z_mask, __ = self.run_phase(rel)
        for lhs, mask in fds.items():
            assert is_subset(mask, z_mask)
            for rhs in iter_bits(mask):
                assert holds_fd(rel, lhs, rhs)
                assert not lhs >> rhs & 1

    @given(relations(max_columns=5, max_rows=12))
    def test_never_reports_fd_inside_one_ucc(self, rel):
        """Pruning rule 1: no FD may be fully contained in a minimal UCC."""
        fds, __, ___ = self.run_phase(rel)
        uccs = naive_uccs(rel)
        for lhs, mask in fds.items():
            for rhs in iter_bits(mask):
                assert not any(is_subset(lhs | 1 << rhs, u) for u in uccs)
