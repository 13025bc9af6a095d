"""End-to-end tests for MUDS: exactness, soundness, determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.muds import Muds
from repro.relation import Relation

from ..conftest import fds_as_pairs, inds_as_pairs, relations, uccs_as_masks
from ..oracles import naive_fds, naive_inds, naive_uccs


class TestExactMode:
    """Default configuration: results certified exact."""

    @given(relations(max_columns=5, max_rows=14), st.integers(0, 999))
    def test_all_three_metadata_match_brute_force(self, rel, seed):
        result = Muds(seed=seed).profile(rel)
        assert inds_as_pairs(result, rel) == sorted(naive_inds(rel))
        assert uccs_as_masks(result, rel) == naive_uccs(rel)
        assert fds_as_pairs(result, rel) == naive_fds(rel)

    @given(relations(max_columns=5, max_rows=12, allow_nulls=True))
    def test_exact_with_nulls(self, rel):
        result = Muds().profile(rel)
        assert fds_as_pairs(result, rel) == naive_fds(rel)

    @settings(max_examples=20, deadline=None)
    @given(relations(max_columns=7, min_columns=6, max_rows=20))
    def test_exact_on_wider_tables(self, rel):
        """Wider lattices exercise deeper descents and larger borders."""
        result = Muds(seed=1).profile(rel)
        assert fds_as_pairs(result, rel) == naive_fds(rel)
        assert uccs_as_masks(result, rel) == naive_uccs(rel)

    def test_duplicate_rows_degrade_gracefully(self):
        """§3 assumes duplicate-free input; with duplicates there are no
        UCCs, Z is empty, and the R∖Z walks still find every FD."""
        rel = Relation.from_rows(
            ["A", "B", "C"], [(1, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 7)]
        )
        result = Muds().profile(rel)
        assert result.uccs == []
        assert fds_as_pairs(result, rel) == naive_fds(rel)


class TestFaithfulMode:
    """As-published configuration (verify_completeness=False):
    deterministic and sound, but — a finding of this reproduction —
    not complete on adversarial inputs."""

    @given(relations(max_columns=5, max_rows=12), st.integers(0, 99))
    def test_sound_subset_of_truth(self, rel, seed):
        result = Muds(seed=seed, verify_completeness=False).profile(rel)
        assert set(fds_as_pairs(result, rel)) <= set(naive_fds(rel))
        assert uccs_as_masks(result, rel) == naive_uccs(rel)

    @settings(max_examples=25)
    @given(relations(max_columns=5, max_rows=12))
    def test_deterministic(self, rel):
        runs = [
            fds_as_pairs(
                Muds(seed=3, verify_completeness=False).profile(rel), rel
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_known_incompleteness_example(self):
        """Characterization: this table is one where the published phases
        miss a minimal FD ({B,D} → E) that the completion walk recovers.
        If this ever starts passing in faithful mode, the paper's phases
        became complete and DESIGN.md should be updated."""
        rows = [
            (2, 1, 1, 0, 1), (0, 1, 2, 2, 1), (0, 1, 0, 2, 1),
            (1, 0, 1, 2, 2), (1, 0, 2, 1, 1), (1, 2, 2, 1, 0),
            (2, 1, 2, 2, 1), (1, 0, 0, 0, 0),
        ]
        rel = Relation.from_rows(["A", "B", "C", "D", "E"], rows)
        truth = set(naive_fds(rel))
        faithful = Muds(seed=9, verify_completeness=False).profile(rel)
        exact = Muds(seed=9).profile(rel)
        assert set(fds_as_pairs(exact, rel)) == truth
        assert (0b01010, 4) in truth
        assert (0b01010, 4) not in set(fds_as_pairs(faithful, rel))


class TestConfiguration:
    @given(relations(max_columns=4, max_rows=10), st.integers(0, 20))
    def test_ucc_pruning_ablation_is_equivalent(self, rel, seed):
        on = Muds(seed=seed, use_ucc_pruning=True).profile(rel)
        off = Muds(seed=seed, use_ucc_pruning=False).profile(rel)
        assert on.same_metadata(off)


class TestReporting:
    def test_phase_timings_present(self, employees):
        result = Muds().profile(employees)
        for phase in (
            "read_and_pli",
            "spider",
            "ducc",
            "minimize_fds",
            "calculate_r_minus_z",
            "generate_shadowed_tasks",
            "minimize_shadowed_tasks",
            "completion_walk",
        ):
            assert phase in result.phase_seconds

    def test_counters_present(self, employees):
        result = Muds().profile(employees)
        for counter in ("ucc_checks", "fd_checks", "pli_intersections"):
            assert counter in result.counters

    def test_faithful_mode_has_no_completion_phase(self, employees):
        result = Muds(verify_completeness=False).profile(employees)
        assert "completion_walk" not in result.phase_seconds
