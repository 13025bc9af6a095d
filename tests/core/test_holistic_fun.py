"""Tests for the Holistic FUN profiler."""

from hypothesis import given

from repro.core.holistic_fun import HolisticFun

from ..conftest import fds_as_pairs, inds_as_pairs, relations, uccs_as_masks
from ..oracles import naive_fds, naive_inds, naive_uccs


class TestHolisticFun:
    @given(relations(max_columns=5, max_rows=12))
    def test_all_three_metadata_match_brute_force(self, rel):
        result = HolisticFun().profile(rel)
        assert inds_as_pairs(result, rel) == sorted(naive_inds(rel))
        assert uccs_as_masks(result, rel) == naive_uccs(rel)
        assert fds_as_pairs(result, rel) == naive_fds(rel)

    def test_single_input_pass(self, employees):
        """§3.2: UCCs come for free from FUN's traversal — one read, one
        set of PLIs shared by SPIDER and FUN."""
        result = HolisticFun().profile(employees)
        assert "read_and_pli" in result.phase_seconds
        assert "spider" in result.phase_seconds
        assert "fun" in result.phase_seconds
        # No separate DUCC phase: UCCs fall out of the FD traversal.
        assert "ducc" not in result.phase_seconds

    def test_counters(self, employees):
        result = HolisticFun().profile(employees)
        assert result.counters["fd_checks"] > 0
        assert result.counters["free_sets"] >= employees.n_columns
