"""Tests for the §3.1 "FDs first" strategy (UCCs derived from FDs)."""

from hypothesis import given

from repro.core.fds_first import (
    FdsFirstProfiler,
    candidate_keys_from_fds,
    closure_of,
)
from repro.core.holistic_fun import HolisticFun
from repro.relation import Relation

from ..conftest import relations
from ..oracles import naive_fds, naive_uccs


class TestClosure:
    def test_fixpoint(self):
        # A -> B, B -> C: closure(A) = ABC
        fds = [(0b001, 1), (0b010, 2)]
        assert closure_of(0b001, fds) == 0b111

    def test_no_applicable_fds(self):
        assert closure_of(0b010, [(0b001, 2)]) == 0b010

    def test_empty_set_closure(self):
        assert closure_of(0, [(0, 1)]) == 0b10  # constant column FD


class TestCandidateKeys:
    def test_textbook_example(self):
        # R = {A,B,C}, FDs: A -> B, B -> A; keys: {A,C}, {B,C}.
        fds = [(0b001, 1), (0b010, 0)]
        assert candidate_keys_from_fds(fds, 3) == [0b101, 0b110]

    def test_no_fds_full_set_is_the_key(self):
        assert candidate_keys_from_fds([], 3) == [0b111]

    def test_zero_columns(self):
        assert candidate_keys_from_fds([], 0) == []

    @given(relations(max_columns=5, max_rows=12))
    def test_lemma2_derivation_matches_ducc(self, rel):
        """Lemma 2: on duplicate-free data, candidate keys over the
        minimal-FD cover are exactly the minimal UCCs."""
        deduped = rel.deduplicated()
        if deduped.n_rows <= 1:
            return  # every singleton is unique; the FD cover is degenerate
        keys = candidate_keys_from_fds(naive_fds(deduped), deduped.n_columns)
        assert keys == naive_uccs(deduped)


class TestFdsFirstProfiler:
    @given(relations(max_columns=5, max_rows=12))
    def test_matches_holistic_fun(self, rel):
        deduped = rel.deduplicated()
        if deduped.n_rows <= 1:
            return
        ours = FdsFirstProfiler().profile(deduped)
        reference = HolisticFun().profile(deduped)
        assert ours.same_metadata(reference)

    def test_duplicate_rows_no_uccs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 1), (2, 2)])
        result = FdsFirstProfiler().profile(rel)
        assert result.uccs == []

    def test_derivation_phase_reported(self, employees):
        result = FdsFirstProfiler().profile(employees)
        assert "derive_uccs" in result.phase_seconds
