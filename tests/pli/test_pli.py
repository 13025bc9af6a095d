"""Unit and property tests for PLIs (stripped partitions)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pli import (
    KERNEL_STATS,
    PLI,
    pli_from_column,
    pli_from_vector,
    value_vector,
)

from ..oracles import legacy_intersect

columns = st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=30)
two_columns = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25
)


def brute_partition(values):
    """Reference partition: groups of row ids by value, size >= 2."""
    groups = {}
    for row, value in enumerate(values):
        groups.setdefault(value, []).append(row)
    return sorted(tuple(g) for g in groups.values() if len(g) >= 2)


class TestConstruction:
    def test_strips_singletons(self):
        pli = PLI([[0], [1, 2], [3]], 4)
        assert pli.clusters == ((1, 2),)

    def test_normalizes_order(self):
        a = PLI([[5, 1], [2, 0]], 6)
        b = PLI([[0, 2], [1, 5]], 6)
        assert a == b
        assert hash(a) == hash(b)

    def test_from_column(self):
        pli = pli_from_column(["a", "b", "a", "c", "b"])
        assert pli.clusters == ((0, 2), (1, 4))

    def test_none_is_a_normal_value(self):
        pli = pli_from_column([None, 1, None])
        assert pli.clusters == ((0, 2),)

    @given(columns)
    def test_matches_brute_partition(self, values):
        assert list(pli_from_column(values).clusters) == brute_partition(values)


class TestConstructorValidation:
    """The public constructor rejects corrupt partitions up front.

    Out-of-range ids would otherwise surface later as an ``IndexError``
    mid-intersection; overlapping clusters as silently wrong probe-vector
    entries.  Both failure shapes must be loud and immediate.
    """

    def test_row_id_beyond_n_rows_rejected(self):
        with pytest.raises(ValueError, match=r"row id 4 .*\[0, 4\)"):
            PLI([[0, 4]], 4)

    def test_negative_row_id_rejected(self):
        with pytest.raises(ValueError, match=r"row id -1 "):
            PLI([[-1, 2]], 4)

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ValueError, match=r"\[2\].*more than one cluster"):
            PLI([[0, 2], [2, 3]], 4)

    def test_duplicates_within_a_cluster_are_deduped(self):
        assert PLI([[1, 2, 1]], 3).clusters == ((1, 2),)

    def test_cluster_collapsing_to_one_distinct_row_is_stripped(self):
        # [2, 2] is one distinct row repeated — a singleton in disguise.
        assert PLI([[2, 2], [0, 1]], 3).clusters == ((0, 1),)


class TestMeasures:
    def test_empty_column_is_unique(self):
        pli = pli_from_column([])
        assert pli.is_unique
        assert pli.distinct_count == 0

    def test_distinct_count(self):
        pli = pli_from_column(["a", "a", "b", "c", "c", "c"])
        assert pli.distinct_count == 3
        assert pli.error == 3
        assert pli.n_clustered_rows == 5
        assert pli.n_clusters == 2

    @given(columns)
    def test_distinct_count_matches_set(self, values):
        assert pli_from_column(values).distinct_count == len(set(values))

    @given(columns)
    def test_unique_iff_all_distinct(self, values):
        assert pli_from_column(values).is_unique == (
            len(set(values)) == len(values)
        )


class TestIntersect:
    def test_simple(self):
        a = pli_from_column([1, 1, 2, 2])
        b = pli_from_column([1, 2, 1, 1])
        joint = a.intersect(b)
        # rows sharing both values: rows 2,3 (a=2, b=1)
        assert joint.clusters == ((2, 3),)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pli_from_column([1, 1]).intersect(pli_from_column([1, 1, 1]))

    @given(two_columns)
    def test_matches_tuple_partition(self, rows):
        left = pli_from_column([r[0] for r in rows])
        right = pli_from_column([r[1] for r in rows])
        assert list(left.intersect(right).clusters) == brute_partition(rows)

    @given(two_columns)
    def test_commutative(self, rows):
        left = pli_from_column([r[0] for r in rows])
        right = pli_from_column([r[1] for r in rows])
        assert left.intersect(right) == right.intersect(left)

    @given(columns)
    def test_self_intersection_is_identity(self, values):
        pli = pli_from_column(values)
        assert pli.intersect(pli) == pli

    def test_fully_stripped_partner_yields_empty_pli(self):
        # Every clustered row of ``a`` is a stripped singleton in ``b``
        # (partner == -1 for all of them), so nothing survives.
        a = pli_from_column([1, 1, 2, 2, 3, 4])  # clusters (0,1), (2,3)
        b = pli_from_column([0, 1, 2, 3, 9, 9])  # cluster (4,5) only
        joint = a.intersect(b)
        assert joint.clusters == ()
        assert joint.is_unique
        assert joint.n_rows == 6


class TestRefines:
    def test_valid_fd(self):
        # zip -> city
        zips = pli_from_column(["97201", "97201", "97301"])
        cities = value_vector(["Portland", "Portland", "Salem"])
        assert zips.refines(cities)

    def test_invalid_fd(self):
        city = pli_from_column(["P", "P", "S"])
        zips = value_vector(["97201", "97209", "97301"])
        assert not city.refines(zips)

    @given(two_columns)
    def test_refines_iff_cardinalities_match(self, rows):
        """Lemma 1: X -> A iff |X| == |X u A|."""
        left = pli_from_column([r[0] for r in rows])
        right_vector = value_vector([r[1] for r in rows])
        joint = left.intersect(pli_from_column([r[1] for r in rows]))
        assert left.refines(right_vector) == (
            left.distinct_count == joint.distinct_count
        )


class TestVectors:
    @given(columns)
    def test_value_vector_preserves_equality_structure(self, values):
        vector = value_vector(values)
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (a == b) == (vector[i] == vector[j])

    @given(columns)
    def test_to_vector_roundtrip(self, values):
        pli = pli_from_column(values)
        assert pli_from_vector(pli.to_vector()) == pli

    def test_to_vector_default_gives_singletons_unique_ids(self):
        # With singleton_id=-1 every stripped row gets its *own* negative
        # id, so the vector is itself a valid value vector: rebuilding a
        # PLI from it must not glue the singletons into a fake cluster.
        pli = pli_from_column(["a", "x", "a", "y", "z"])
        vector = pli.to_vector(singleton_id=-1)
        assert vector[0] == vector[2] == 0
        singles = [vector[1], vector[3], vector[4]]
        assert len(set(singles)) == 3
        assert all(value < 0 for value in singles)
        assert pli_from_vector(vector) == pli

    def test_to_vector_shared_singleton_id_merges_stripped_rows(self):
        # An explicit shared id is the lossy variant: stripped rows become
        # one value, so the round-trip clusters them together.
        pli = pli_from_column(["a", "x", "a", "y"])
        rebuilt = pli_from_vector(pli.to_vector(singleton_id=99))
        assert rebuilt.clusters == ((0, 2), (1, 3))


class TestProbeVector:
    def test_singletons_are_negative(self):
        pli = pli_from_column(["a", "b", "a", "c"])
        assert list(pli.probe_vector()) == [0, -1, 0, -1]

    def test_memoized(self):
        pli = pli_from_column([1, 1, 2, 2])
        assert pli.probe_vector() is pli.probe_vector()

    @given(columns)
    def test_probe_matches_cluster_membership(self, values):
        pli = pli_from_column(values)
        probe = pli.probe_vector()
        assert len(probe) == pli.n_rows
        for cluster_id, cluster in enumerate(pli.clusters):
            for row in cluster:
                assert probe[row] == cluster_id
        clustered = {row for cluster in pli.clusters for row in cluster}
        for row in range(pli.n_rows):
            if row not in clustered:
                assert probe[row] == -1

    def test_kernel_stats_count_builds_and_reuses(self):
        before = KERNEL_STATS.snapshot()
        a = pli_from_column([1, 1, 2, 2, 3, 3])
        b = pli_from_column([1, 2, 1, 2, 1, 2])
        a.intersect(b)
        a.intersect(b)
        after = KERNEL_STATS.snapshot()
        assert after["pli_intersections"] - before["pli_intersections"] == 2
        assert after["probe_builds"] - before["probe_builds"] == 1
        assert after["probe_reuses"] - before["probe_reuses"] == 1


class TestCanonicalForm:
    """The trusted constructor path must emit the canonical representation."""

    @given(columns)
    def test_from_column_is_canonical(self, values):
        pli = pli_from_column(values)
        renormalized = PLI(pli.clusters, pli.n_rows)
        assert pli.clusters == renormalized.clusters

    @given(two_columns)
    def test_intersect_output_is_canonical(self, rows):
        left = pli_from_column([r[0] for r in rows])
        right = pli_from_column([r[1] for r in rows])
        joint = left.intersect(right)
        renormalized = PLI(joint.clusters, joint.n_rows)
        assert joint.clusters == renormalized.clusters

    @given(two_columns)
    def test_intersect_matches_legacy_kernel(self, rows):
        left = pli_from_column([r[0] for r in rows])
        right = pli_from_column([r[1] for r in rows])
        assert left.intersect(right) == legacy_intersect(left, right)


class TestRefinesGuard:
    def test_short_vector_rejected_with_both_sizes(self):
        pli = pli_from_column(["a", "a", "b", "b"])
        with pytest.raises(ValueError, match=r"2 entries.*4 rows"):
            pli.refines([0, 0])

    def test_long_vector_rejected(self):
        pli = pli_from_column(["a", "a"])
        with pytest.raises(ValueError, match=r"5 entries.*2 rows"):
            pli.refines([0, 0, 1, 1, 2])

    def test_matching_length_accepted(self):
        pli = pli_from_column(["a", "a", "b"])
        assert pli.refines([7, 7, 9])


def test_kernel_stats_delta_brackets_a_run():
    before = KERNEL_STATS.snapshot()
    a = pli_from_column([1, 1, 2, 2, 3, 3])
    b = pli_from_column([1, 2, 1, 2, 1, 2])
    a.intersect(b)
    delta = KERNEL_STATS.delta(before)
    assert delta == {
        "pli_intersections": 1,
        "probe_builds": 1,
        "probe_reuses": 0,
        "refine_calls": 0,
        "refine_cluster_scans": 0,
        "delta_merges": 0,
        "delta_reclustered_rows": 0,
    }
    # Missing keys in the snapshot count from zero (forward-compatible
    # bracketing across counter additions).
    assert KERNEL_STATS.delta({})["pli_intersections"] >= 1


class TestRefinesEarlyAbort:
    """Regression: ``refines`` must stop at the first violating cluster.

    Pinned through the kernel's cluster-scan counter (added once per
    call, at cluster granularity) plus a counting probe vector — a
    full-scan regression would show up in both.
    """

    def test_violation_in_first_cluster_scans_one_cluster(self):
        # Clusters (0,1), (2,3), (4,5); the very first cluster violates.
        pli = pli_from_column(["a", "a", "b", "b", "c", "c"])
        vector = [0, 1, 2, 2, 3, 3]
        before = KERNEL_STATS.snapshot()
        assert not pli.refines(vector)
        delta = KERNEL_STATS.delta(before)
        assert delta["refine_calls"] == 1
        assert delta["refine_cluster_scans"] == 1

    def test_valid_fd_scans_every_cluster(self):
        pli = pli_from_column(["a", "a", "b", "b", "c", "c"])
        vector = [7, 7, 8, 8, 9, 9]
        before = KERNEL_STATS.snapshot()
        assert pli.refines(vector)
        assert KERNEL_STATS.delta(before)["refine_cluster_scans"] == len(
            pli.clusters
        )

    def test_violation_in_kth_cluster_stops_there(self):
        pli = pli_from_column(["a", "a", "b", "b", "c", "c"])
        vector = [7, 7, 8, 9, 0, 0]  # second cluster violates
        before = KERNEL_STATS.snapshot()
        assert not pli.refines(vector)
        assert KERNEL_STATS.delta(before)["refine_cluster_scans"] == 2

    def test_first_violation_stops_vector_reads(self):
        """Row-granular proof: an immediate violation reads exactly the
        two probe-vector entries that witness it."""

        class CountingVector(list):
            reads = 0

            def __getitem__(self, item):
                CountingVector.reads += 1
                return super().__getitem__(item)

        pli = pli_from_column(["a"] * 50 + ["b"] * 50)
        vector = CountingVector([0, 1] + [2] * 48 + [3] * 50)
        CountingVector.reads = 0
        assert not pli.refines(vector)
        assert CountingVector.reads == 2
