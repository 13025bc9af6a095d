"""Tests encoding the paper's formal claims (lemmas and pruning rules).

Each test names the claim it verifies; together they pin the theory the
algorithms rely on to executable checks over random relations.
"""

from hypothesis import given

from repro.lattice import fd_candidate_count, ind_candidate_count, ucc_candidate_count
from repro.relation.columnset import (
    all_subsets,
    full_mask,
    is_subset,
    iter_bits,
    size,
)

from .conftest import relations
from .oracles import holds_fd, is_unique, naive_fds, naive_uccs


class TestLemma1PartitionRefinement:
    @given(relations(max_columns=4, max_rows=10))
    def test_fd_iff_equal_cardinalities(self, rel):
        """Lemma 1: X → A  ⇔  |X|_r = |X ∪ {A}|_r."""
        from repro.pli import RelationIndex

        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        for lhs in range(1, universe + 1):
            for rhs in range(rel.n_columns):
                if lhs >> rhs & 1:
                    continue
                same_card = index.distinct_count(lhs) == index.distinct_count(
                    lhs | 1 << rhs
                )
                assert holds_fd(rel, lhs, rhs) == same_card


class TestLemma2UccsFromFds:
    @given(relations(max_columns=4, max_rows=10))
    def test_determining_everything_makes_a_ucc(self, rel):
        """Lemma 2: on duplicate-free relations, U → R∖U ⇒ U is a UCC."""
        deduped = rel.deduplicated()
        universe = full_mask(deduped.n_columns)
        for mask in all_subsets(universe):
            if mask == 0:
                continue
            determines_all = all(
                holds_fd(deduped, mask, rhs)
                for rhs in iter_bits(universe & ~mask)
            )
            if determines_all:
                assert is_unique(deduped, mask)


class TestLemma3UccsAreFreeSets:
    @given(relations(max_columns=4, max_rows=10))
    def test_no_subset_of_minimal_ucc_has_equal_cardinality(self, rel):
        """Lemma 3: minimal UCCs are free sets (Definition 1)."""
        from repro.pli import RelationIndex

        index = RelationIndex(rel)
        for ucc in naive_uccs(rel):
            for sub in all_subsets(ucc):
                if sub in (0, ucc):
                    continue
                assert index.distinct_count(sub) < index.distinct_count(ucc)


class TestLemma4DownwardPruning:
    @given(relations(max_columns=4, max_rows=10))
    def test_non_fd_propagates_to_subsets(self, rel):
        """Lemma 4: X ↛ A ⇒ X' ↛ A for every X' ⊆ X."""
        universe = full_mask(rel.n_columns)
        for lhs in range(1, universe + 1):
            for rhs in range(rel.n_columns):
                if lhs >> rhs & 1:
                    continue
                if not holds_fd(rel, lhs, rhs):
                    for sub in all_subsets(lhs):
                        if sub != lhs:
                            assert not holds_fd(rel, sub, rhs)
                    break  # one witness per relation keeps this cheap


class TestPruningRules:
    @given(relations(max_columns=4, max_rows=12))
    def test_rule1_no_fd_inside_a_minimal_ucc(self, rel):
        """§4 rule 1: both sides inside one minimal UCC ⇒ FD impossible."""
        uccs = naive_uccs(rel.deduplicated())
        fds = naive_fds(rel.deduplicated())
        for lhs, rhs in fds:
            assert not any(is_subset(lhs | 1 << rhs, ucc) for ucc in uccs)

    @given(relations(max_columns=4, max_rows=12))
    def test_rule2_no_fd_from_r_minus_z_into_z(self, rel):
        """§4 rule 2: lhs ⊆ R∖Z with rhs ∈ Z ⇒ FD impossible."""
        deduped = rel.deduplicated()
        uccs = naive_uccs(deduped)
        z_mask = 0
        for ucc in uccs:
            z_mask |= ucc
        for lhs, rhs in naive_fds(deduped):
            if z_mask >> rhs & 1 and uccs:
                assert lhs & z_mask or not lhs, (
                    f"minimal FD {lhs:b}->{rhs} has lhs fully in R\\Z "
                    f"but rhs in Z"
                )

    @given(relations(max_columns=4, max_rows=12))
    def test_key_pruning_no_minimal_fd_lhs_contains_a_ucc(self, rel):
        """§2.3/§5: a minimal FD lhs never (properly) contains a UCC."""
        deduped = rel.deduplicated()
        uccs = naive_uccs(deduped)
        for lhs, __ in naive_fds(deduped):
            assert not any(
                is_subset(ucc, lhs) and ucc != lhs for ucc in uccs
            )


class TestSearchSpaceClaims:
    def test_section_2_4_fd_space_dominates(self):
        """§2.4: FD space O(n·2^n) dominates UCC O(2^n) and IND O(n²)."""
        for n in range(2, 12):
            assert fd_candidate_count(n) >= ucc_candidate_count(n) - 1
            assert ucc_candidate_count(n) > ind_candidate_count(n) or n <= 4

    @given(relations(max_columns=4, max_rows=8))
    def test_substitution_rule(self, rel):
        """§4.1: an FD X → A with A in a minimal UCC U implies that
        X ∪ U∖{A} is unique."""
        deduped = rel.deduplicated()
        uccs = naive_uccs(deduped)
        for lhs, rhs in naive_fds(deduped):
            for ucc in uccs:
                if ucc >> rhs & 1:
                    substituted = lhs | (ucc & ~(1 << rhs))
                    assert is_unique(deduped, substituted)
