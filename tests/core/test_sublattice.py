"""Tests for MUDS phase 3b: per-rhs sub-lattice walks over R∖Z."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.sublattice import discover_r_minus_z
from repro.pli import RelationIndex
from repro.relation import Relation
from repro.relation.columnset import iter_bits

from ..conftest import relations
from ..oracles import naive_fds, naive_uccs


def run_phase(rel, seed=0, use_ucc_pruning=True):
    index = RelationIndex(rel)
    uccs = naive_uccs(rel)
    z_mask = 0
    for ucc in uccs:
        z_mask |= ucc
    fds, stats = discover_r_minus_z(
        index, uccs, z_mask, random.Random(seed), use_ucc_pruning=use_ucc_pruning
    )
    return fds, stats, z_mask


class TestDiscoverRMinusZ:
    def test_no_rz_columns_no_work(self):
        # Every column in some key: A and B are both keys.
        rel = Relation.from_rows(["A", "B"], [(1, 1), (2, 2)])
        fds, stats, __ = run_phase(rel)
        assert fds == {}
        assert stats.sublattices == 0

    def test_finds_fd_with_rhs_outside_z(self):
        # C is constant-ish and outside every key.
        rel = Relation.from_rows(
            ["A", "B", "C"], [(1, 1, 9), (1, 2, 9), (2, 1, 9), (2, 2, 9)]
        )
        fds, stats, z_mask = run_phase(rel)
        assert stats.sublattices >= 1
        # Every singleton determines the constant C.
        assert fds.get(0b001, 0) & 0b100
        assert fds.get(0b010, 0) & 0b100

    @given(relations(max_columns=5, max_rows=12), st.integers(0, 99))
    def test_complete_and_minimal_for_rz_rhs(self, rel, seed):
        """Phase 3b must find exactly the minimal FDs whose rhs ∉ Z."""
        fds, __, z_mask = run_phase(rel, seed=seed)
        got = {
            (lhs, rhs) for lhs, mask in fds.items() for rhs in iter_bits(mask)
        }
        expected = {
            (lhs, rhs)
            for lhs, rhs in naive_fds(rel)
            if not z_mask >> rhs & 1
        }
        assert got == expected

    @given(relations(max_columns=4, max_rows=10), st.integers(0, 49))
    def test_ucc_pruning_does_not_change_results(self, rel, seed):
        """Ablation hook: disabling inter-task pruning only costs checks."""
        with_pruning, __, ___ = run_phase(rel, seed=seed)
        without_pruning, __, ___ = run_phase(rel, seed=seed, use_ucc_pruning=False)
        assert with_pruning == without_pruning
