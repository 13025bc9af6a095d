"""Delta-PLI maintenance: merging an append batch into an existing
substrate must equal rebuilding that substrate from row 0 — on every
kernel backend, under every column-storage mode.
"""

from __future__ import annotations

import random

import pytest

from repro.faults import FAULTS, INCREMENTAL_APPEND, FaultInjected
from repro.pli import KERNEL_STATS, PliStore, available_backends, use_backend
from repro.pli.delta import ColumnDelta, merge_column
from repro.relation import Relation
from repro.relation.columnset import full_mask
from repro.relation.encoded import STORAGE_MODES

from ..conftest import encoded_in, random_relation

SEED = 20160315


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    FAULTS.disarm()


def _split(relation: Relation, fraction: float = 0.7):
    rows = list(relation.iter_rows())
    cut = max(1, int(len(rows) * fraction))
    return rows[:cut], rows[cut:]


def _all_masks(n_columns: int):
    return range(1, full_mask(n_columns) + 1)


def _assert_equal_substrates(maintained, fresh, n_columns: int):
    for mask in _all_masks(n_columns):
        assert maintained.pli(mask).clusters == fresh.pli(mask).clusters, (
            f"PLI mismatch on mask {mask:#b}"
        )
        assert maintained.is_unique(mask) == fresh.is_unique(mask)


@pytest.mark.parametrize("storage_mode", STORAGE_MODES)
@pytest.mark.parametrize("backend_name", available_backends())
def test_merged_substrate_equals_rebuilt(
    backend_name, storage_mode, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    rng = random.Random(SEED)
    with use_backend(backend_name):
        for case in range(25):
            whole = random_relation(rng, f"delta-{case}", max_rows=14)
            if whole.n_rows < 2:
                continue
            base_rows, batch_rows = _split(whole)
            if not batch_rows:
                continue
            names = list(whole.column_names)
            grown = encoded_in(
                Relation.from_rows(names, base_rows, name=whole.name), storage_mode
            )
            store = PliStore()
            index, delta = store.append_rows(grown, batch_rows)
            assert delta is not None
            assert grown.fingerprint() == whole.fingerprint()
            rebuilt = Relation.from_rows(names, base_rows + batch_rows)
            fresh = PliStore().index_for(encoded_in(rebuilt, storage_mode))
            _assert_equal_substrates(index, fresh, whole.n_columns)


@pytest.mark.parametrize("backend_name", available_backends())
def test_double_append_accumulates(backend_name):
    with use_backend(backend_name):
        names = ["A", "B", "C"]
        rows = [(i, i % 2, i % 3) for i in range(9)]
        grown = Relation.from_rows(names, rows[:3], name="double")
        store = PliStore()
        store.append_rows(grown, rows[3:6])
        index, _ = store.append_rows(grown, rows[6:])
        fresh = PliStore().index_for(Relation.from_rows(names, rows))
        _assert_equal_substrates(index, fresh, 3)


class TestCompositeInvalidation:
    # Base: column A is unique-and-stays-unique for the batch (fresh
    # values), while B and C both gain colliding values — so composites
    # containing A survive the append untouched and B|C must be
    # delta-merged from its old clusters.
    NAMES = ["A", "B", "C"]
    BASE = [(1, "a", "q"), (2, "b", "r"), (3, "c", "s")]
    BATCH = [(4, "a", "q"), (5, "b", "s")]

    def _warm(self, store, relation):
        index = store.index_for(relation)
        for mask in (0b011, 0b101, 0b110, 0b111):
            index.pli(mask)
        return index

    def test_kept_and_deferred_counts(self):
        grown = Relation.from_rows(self.NAMES, self.BASE, name="composites")
        store = PliStore()
        self._warm(store, grown)
        index, delta = store.append_rows(grown, self.BATCH)
        # A's perturbed set is empty (values 4, 5 are new), so A|B, A|C,
        # and A|B|C are kept; B|C intersects both perturbed sets and is
        # deferred — it leaves the cache, and its next request merges the
        # batch into the old clusters instead of re-intersecting: batch
        # row 3 ("a", "q") pairs with old singleton row 0.
        assert delta.kept_composites == 3
        assert delta.deferred_composites == 1
        assert index.cache.peek(0b110) is None
        KERNEL_STATS.reset()
        before = index.intersections
        assert index.pli(0b110).clusters == ((0, 3),)
        assert KERNEL_STATS.snapshot()["delta_merges"] == 1
        assert index.intersections == before

    def test_batch_only_cluster_is_born(self):
        # Two batch rows recur on a batch-born value pair: no old partner
        # exists, the merged composite clusters them among themselves.
        grown = Relation.from_rows(
            self.NAMES, [(1, "a", "q"), (2, "b", "r")], name="composites"
        )
        store = PliStore()
        self._warm(store, grown)
        index, delta = store.append_rows(
            grown, [(3, "n", "m"), (4, "n", "m")]
        )
        assert delta.deferred_composites == 1
        assert index.pli(0b110).clusters == ((2, 3),)

    def test_merge_bails_to_rebuild_beyond_scan_budget(self):
        # Old rows hold only the (0, 0) and (1, 1) value pairs on B|C, so
        # an appended (0, 1) matches no cluster representative and its
        # collider pools are both half the table — the merge refuses the
        # scan and the request falls back to the chained-intersection
        # rebuild, which still produces the right partition.
        rows = [(i, i % 2, i % 2) for i in range(400)]
        grown = Relation.from_rows(self.NAMES, rows, name="composites")
        store = PliStore()
        self._warm(store, grown)
        index, delta = store.append_rows(grown, [(400, 0, 1)])
        assert delta.deferred_composites == 1
        before = index.intersections
        fresh = PliStore().index_for(
            Relation.from_rows(self.NAMES, rows + [(400, 0, 1)])
        )
        assert index.pli(0b110).clusters == fresh.pli(0b110).clusters
        assert index.intersections > before

    def test_unrequested_deferrals_lapse_at_the_next_append(self):
        # B|C is deferred by the first batch but never requested; the
        # second append clears the stale snapshot, and the next request
        # rebuilds exactly.
        grown = Relation.from_rows(self.NAMES, self.BASE, name="composites")
        store = PliStore()
        self._warm(store, grown)
        store.append_rows(grown, self.BATCH[:1])
        index, delta = store.append_rows(grown, self.BATCH[1:])
        fresh = PliStore().index_for(
            Relation.from_rows(self.NAMES, self.BASE + self.BATCH)
        )
        assert index.pli(0b110).clusters == fresh.pli(0b110).clusters

    def test_kept_composites_are_correct(self):
        grown = Relation.from_rows(self.NAMES, self.BASE, name="composites")
        store = PliStore()
        self._warm(store, grown)
        index, _ = store.append_rows(grown, self.BATCH)
        fresh = PliStore().index_for(
            Relation.from_rows(self.NAMES, self.BASE + self.BATCH)
        )
        _assert_equal_substrates(index, fresh, 3)


class TestCounterAccounting:
    def test_one_merge_per_column(self):
        relation = Relation.from_rows(
            ["A", "B"], [(1, "x"), (2, "y")], name="counters"
        )
        store = PliStore()
        store.index_for(relation)
        KERNEL_STATS.reset()
        store.append_rows(relation, [(3, "x"), (1, "z")])
        snapshot = KERNEL_STATS.snapshot()
        assert snapshot["delta_merges"] == relation.n_columns
        assert snapshot["delta_reclustered_rows"] > 0

    def test_merge_column_advances_delta_in_place(self):
        # Column "a", "b", "a" as codes 0, 1, 0; the batch appends "b"
        # (code 1) and the new value "c" (code 2).
        delta = ColumnDelta.from_codes([0, 1, 0], 2)
        pli = PliStore().index_for(
            Relation.from_rows(["A"], [("a",), ("b",), ("a",)])
        ).column_pli(0)
        merged, perturbed, partners, colliders = merge_column(
            pli, delta, [1, 2], 3, 5
        )
        assert merged.clusters == ((0, 2), (1, 3))
        assert perturbed == {3}
        assert partners == {1}
        # "b" was an old singleton at row 1; "c" is batch-born and has no
        # collider pool.
        assert colliders == {1: (1,)}
        # The delta now counts "c" once, first seen at row 4.
        assert delta.counts == [2, 2, 1]
        assert delta.first_rows == [0, 1, 4]


class TestFaultContainmentAtAppend:
    def test_trip_leaves_substrate_untouched(self):
        relation = Relation.from_rows(
            ["A", "B"], [(1, "x"), (2, "y")], name="faulted"
        )
        store = PliStore()
        index = store.index_for(relation)
        fingerprint = relation.fingerprint()
        FAULTS.arm(INCREMENTAL_APPEND, at=1)
        with pytest.raises(FaultInjected, match="incremental.append"):
            store.append_rows(relation, [(3, "z")])
        FAULTS.disarm()
        # The fault fires before any mutation: relation, fingerprint, and
        # store registration are all pre-append.
        assert relation.n_rows == 2
        assert relation.fingerprint() == fingerprint
        assert store.index_for(relation) is index
        # The retried append then succeeds normally.
        retried, delta = store.append_rows(relation, [(3, "z")])
        assert delta is not None
        assert relation.n_rows == 3
