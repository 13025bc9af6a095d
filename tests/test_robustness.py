"""Robustness and failure-injection tests.

Degenerate shapes (0/1 rows, 1 column, all-NULL, constant, all-unique),
resource-constrained configurations (zero-capacity PLI cache), and error
paths that must fail loudly rather than silently.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import BaselineProfiler, HolisticFun, Muds, profile
from repro.pli import RelationIndex
from repro.relation import Relation, SchemaError

from .conftest import fds_as_pairs, uccs_as_masks
from .oracles import naive_fds, naive_uccs


def degenerate_relations() -> list[Relation]:
    return [
        Relation.from_rows(["A"], []),
        Relation.from_rows(["A"], [(1,)]),
        Relation.from_rows(["A", "B"], []),
        Relation.from_rows(["A"], [(None,), (None,)]),
        Relation.from_rows(["A", "B"], [(None, None), (None, 1)]),
        Relation.from_rows(["A", "B"], [(7, 7)] * 5),  # constant + dups
        Relation.from_rows(["A", "B", "C"], [(i, i, i) for i in range(6)]),
        Relation.from_rows(["only"], [(i,) for i in range(10)]),
    ]


class TestDegenerateShapes:
    @pytest.mark.parametrize("rel", degenerate_relations(), ids=repr)
    def test_all_profilers_handle(self, rel):
        for profiler in (Muds(), HolisticFun(), BaselineProfiler()):
            result = profiler.profile(rel)
            assert uccs_as_masks(result, rel) == naive_uccs(rel)
            assert fds_as_pairs(result, rel) == naive_fds(rel)

    def test_zero_column_relation(self):
        rel = Relation([], [])
        result = HolisticFun().profile(rel)
        assert result.inds == []
        assert result.uccs == []
        assert result.fds == []


class TestConstrainedCache:
    @given(st.integers(0, 2))
    def test_tiny_pli_cache_stays_correct(self, capacity):
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [(1, 1, 2), (1, 2, 2), (2, 1, 3), (2, 2, 4)],
        )
        index = RelationIndex(rel)
        index.cache.capacity = capacity
        reference = RelationIndex(rel)
        for mask in range(1, 1 << 3):
            assert index.pli(mask) == reference.pli(mask)
        # Repeated access still correct after (forced) evictions.
        for mask in range(1, 1 << 3):
            assert index.pli(mask) == reference.pli(mask)

    def test_muds_with_tiny_cache(self):
        rel = Relation.from_rows(
            ["A", "B", "C", "D"],
            [(1, 1, 2, 0), (1, 2, 2, 1), (2, 1, 3, 0), (2, 2, 4, 1)],
        )
        index = RelationIndex(rel)
        index.cache.capacity = 1
        report = Muds().run(index)
        expected = naive_fds(rel)
        got = sorted(
            (lhs, rhs)
            for lhs, mask in report.fds.items()
            for rhs in _bits(mask)
        )
        assert got == expected


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TestLoudFailures:
    def test_ragged_csv_raises_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        from repro.relation import read_csv

        with pytest.raises(SchemaError):
            read_csv(path)

    def test_cli_reports_ragged_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        from repro.cli import main

        assert main([str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_framework_contains_profiler_crash(self):
        # A crashing profiler must not take the comparison run down: the
        # framework records it as an ERR execution with the cause, instead
        # of propagating (Metanome's crash-containment contract).
        from repro.harness import Framework

        class Broken:
            def profile(self, relation):
                raise RuntimeError("injected failure")

        framework = Framework()
        framework.register("broken", lambda: Broken())
        rel = Relation.from_rows(["A"], [(1,)])
        execution = framework.run("broken", rel)
        assert execution.status == "error"
        assert execution.marker == "ERR"
        assert "injected failure" in execution.error
        assert execution.counts == (0, 0, 0)

    def test_unknown_profile_algorithm(self):
        rel = Relation.from_rows(["A"], [(1,)])
        with pytest.raises(ValueError):
            profile(rel, algorithm="bogus")


class TestUnicodeAndOddValues:
    def test_unicode_values_and_names(self):
        rel = Relation.from_rows(
            ["städt", "plz"],
            [("Köln", "50667"), ("München", "80331"), ("Köln", "50667")],
        )
        result = profile(rel)
        assert any("städt" in fd.lhs or fd.rhs == "städt" for fd in result.fds)

    def test_values_of_mixed_types(self):
        rel = Relation.from_rows(
            ["A", "B"],
            [(1, "1"), ("x", 2.5), ((1, 2), True), (None, frozenset())],
        )
        result = Muds().profile(rel)
        assert fds_as_pairs(result, rel) == naive_fds(rel)

    def test_very_wide_single_row(self):
        names = [f"c{i}" for i in range(24)]
        rel = Relation.from_rows(names, [tuple(range(24))])
        result = HolisticFun().profile(rel)
        assert len(result.uccs) == 24  # every singleton is a key
