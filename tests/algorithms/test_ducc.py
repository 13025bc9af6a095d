"""Tests for DUCC (random-walk minimal UCC discovery)."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import ducc, ducc_on_relation
from repro.pli import RelationIndex
from repro.relation import Relation
from repro.relation.columnset import is_proper_subset

from ..conftest import relations
from ..oracles import naive_uccs


class TestBasics:
    def test_single_column_key(self):
        rel = Relation.from_rows(["A", "B"], [(1, 5), (2, 5)])
        assert ducc_on_relation(rel).minimal_uccs == [0b01]

    def test_composite_key(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 2), (2, 1)])
        result = ducc_on_relation(rel)
        assert result.minimal_uccs == [0b11]
        assert sorted(result.maximal_non_uccs) == [0b01, 0b10]

    def test_duplicate_rows_mean_no_uccs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 1), (2, 2)])
        result = ducc_on_relation(rel)
        assert result.minimal_uccs == []
        assert result.maximal_non_uccs == [0b11]

    def test_empty_relation(self):
        rel = Relation.from_rows(["A", "B"], [])
        assert ducc_on_relation(rel).minimal_uccs == [0b01, 0b10]

    def test_checks_are_counted(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (2, 2)])
        assert ducc_on_relation(rel).checks > 0


class TestAgainstOracle:
    @given(relations(max_columns=5, max_rows=14), st.integers(0, 999))
    def test_matches_naive(self, rel, seed):
        result = ducc(RelationIndex(rel), rng=random.Random(seed))
        assert result.minimal_uccs == naive_uccs(rel)

    @given(relations(max_columns=5, max_rows=12), st.integers(0, 999))
    def test_borders_are_antichains(self, rel, seed):
        result = ducc(RelationIndex(rel), rng=random.Random(seed))
        for border in (result.minimal_uccs, result.maximal_non_uccs):
            for a in border:
                for b in border:
                    assert a == b or not is_proper_subset(a, b)

    @given(relations(max_columns=5, max_rows=12))
    def test_deterministic_for_fixed_seed(self, rel):
        runs = [
            ducc(RelationIndex(rel), rng=random.Random(11)).minimal_uccs
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @given(relations(max_columns=5, max_rows=12), st.integers(0, 99))
    def test_seed_does_not_change_result(self, rel, seed):
        a = ducc(RelationIndex(rel), rng=random.Random(seed)).minimal_uccs
        b = ducc(RelationIndex(rel), rng=random.Random(seed + 1)).minimal_uccs
        assert a == b
