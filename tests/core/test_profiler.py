"""Tests for the profile() facade and algorithm selection heuristic."""

import io

import pytest
from hypothesis import given

from repro import Relation, choose_algorithm, profile
from repro.core.profiler import ALGORITHMS, MUDS_COLUMN_THRESHOLD
from repro.relation import read_csv
from repro.relation.encoded import StorageUnavailable

from ..conftest import relations


def wide_relation(n_columns: int) -> Relation:
    names = [f"c{i}" for i in range(n_columns)]
    rows = [tuple(range(r, r + n_columns)) for r in range(4)]
    return Relation.from_rows(names, rows)


class TestChooseAlgorithm:
    def test_narrow_relations_use_holistic_fun(self):
        assert choose_algorithm(wide_relation(MUDS_COLUMN_THRESHOLD - 1)) == "holistic_fun"

    def test_wide_relations_use_muds(self):
        """§6.5: MUDS from ten columns up."""
        assert choose_algorithm(wide_relation(MUDS_COLUMN_THRESHOLD)) == "muds"


class TestProfileFacade:
    def test_unknown_algorithm_rejected(self, employees):
        with pytest.raises(ValueError):
            profile(employees, algorithm="quantum")

    def test_unknown_storage_rejected(self, employees):
        # The storage mode is chosen where a CSV is read, not per profile.
        with pytest.raises(TypeError):
            profile(employees, storage="mmap")
        with pytest.raises(StorageUnavailable):
            read_csv(io.StringIO("a\n1\n"), storage="objects")

    def test_algorithms_tuple_is_public(self):
        assert set(ALGORITHMS) == {"auto", "muds", "holistic_fun", "baseline"}

    @given(relations(max_columns=4, max_rows=10))
    def test_all_algorithms_agree(self, rel):
        results = [
            profile(rel, algorithm=name)
            for name in ("muds", "holistic_fun", "baseline")
        ]
        assert results[0].same_metadata(results[1])
        assert results[1].same_metadata(results[2])

    def test_auto_runs(self, employees):
        result = profile(employees)
        assert result.relation_name == "employees"
        assert result.fds
