"""Tests for the sequential baseline profiler."""

import pytest
from hypothesis import given

from repro.core.baseline import BaselineProfiler
from repro.core.holistic_fun import HolisticFun
from repro.guard import Budget, BudgetExceeded, guarded

from ..conftest import relations


class TestSequentialBaseline:
    @given(relations(max_columns=5, max_rows=12))
    def test_matches_holistic_results(self, rel):
        """Sequential execution must find identical metadata — it only
        pays more (three input passes instead of one)."""
        baseline = BaselineProfiler(seed=1).profile(rel)
        holistic = HolisticFun().profile(rel)
        assert baseline.same_metadata(holistic)

    def test_three_separate_phases(self, employees):
        result = BaselineProfiler().profile(employees)
        assert set(result.phase_seconds) == {"spider", "ducc", "fun"}

    def test_counters(self, employees):
        result = BaselineProfiler().profile(employees)
        assert result.counters["ucc_checks"] > 0
        assert result.counters["fd_checks"] > 0

    def test_budget_exhaustion_carries_partials(self, employees):
        """A budget that kills the PLI-based tasks still yields SPIDER's
        INDs as a partial result."""
        with pytest.raises(BudgetExceeded) as excinfo:
            with guarded(Budget(max_intersections=0, checkpoint_stride=1)):
                BaselineProfiler().profile(employees)
        partial = excinfo.value.partial_result
        assert partial is not None
        assert excinfo.value.reason == "timeout"
        assert len(partial.inds) > 0  # SPIDER does no PLI intersections
