"""Tests for the cross-algorithm shared PLI store."""

import random

import pytest

from repro.algorithms.ducc import ducc_on_relation
from repro.algorithms.fun import fun_on_relation
from repro.algorithms.spider import spider_on_relation
from repro.algorithms.tane import tane_on_relation
from repro.core.baseline import BaselineProfiler
from repro.core.fds_first import FdsFirstProfiler
from repro.core.holistic_fun import HolisticFun
from repro.core.muds import Muds
from repro.core.statistics import profile_statistics
from repro.pli import PliStore
from repro.relation import Relation


@pytest.fixture
def relation() -> Relation:
    return Relation.from_rows(
        ["employee_id", "city", "zip", "state", "work_state"],
        [
            ("E1", "Portland", "97201", "OR", "OR"),
            ("E2", "Portland", "97201", "OR", "WA"),
            ("E3", "Salem", "97301", "OR", "OR"),
            ("E4", "Seattle", "98101", "WA", "WA"),
            ("E5", "Spokane", "99201", "WA", "OR"),
        ],
        name="employees",
    )


class TestPliStore:
    def test_index_is_built_once_and_shared(self, relation):
        store = PliStore()
        first = store.index_for(relation)
        second = store.index_for(relation)
        assert first is second
        assert store.builds == 1
        assert store.reuses == 1
        assert len(store) == 1
        assert relation in store

    def test_distinct_relations_get_distinct_indexes(self, relation):
        other = Relation.from_rows(["a"], [(1,), (2,)], name="other")
        store = PliStore()
        assert store.index_for(relation) is not store.index_for(other)
        assert store.builds == 2

    def test_discard_and_clear(self, relation):
        store = PliStore()
        store.index_for(relation)
        store.discard(relation)
        assert relation not in store
        store.index_for(relation)
        store.clear()
        assert len(store) == 0
        assert store.builds == 2  # rebuilt after discard


class TestCrossAlgorithmSharing:
    """Acceptance: every algorithm and profiler obtains single-column PLIs
    from the one shared store, producing cache hits on its PliCache."""

    def test_every_algorithm_hits_the_shared_cache(self, relation):
        store = PliStore()
        runs = {
            "spider": lambda: spider_on_relation(relation, store=store),
            "ducc": lambda: ducc_on_relation(
                relation, rng=random.Random(0), store=store
            ),
            "fun": lambda: fun_on_relation(relation, store=store),
            "tane": lambda: tane_on_relation(relation, store=store),
            "muds": lambda: Muds(store=store).profile(relation),
            "hfun": lambda: HolisticFun(store=store).profile(relation),
            "baseline": lambda: BaselineProfiler(store=store).profile(relation),
            "fds_first": lambda: FdsFirstProfiler(store=store).profile(relation),
            "statistics": lambda: profile_statistics(relation, store=store),
        }
        cache = store.index_for(relation).cache
        for name, run in runs.items():
            hits_before = cache.hits
            run()
            assert cache.hits > hits_before, (
                f"{name} did not read from the shared PliCache"
            )
        # One build serves every algorithm; nobody re-indexed the relation.
        assert store.builds == 1
        assert store.reuses >= len(runs)

    def test_shared_store_changes_no_results(self, relation):
        shared = PliStore()
        alone = tane_on_relation(relation)
        together = tane_on_relation(relation, store=shared)
        assert alone.fds == together.fds
        assert alone.minimal_keys == together.minimal_keys
        fun_alone = fun_on_relation(relation)
        fun_together = fun_on_relation(relation, store=shared)
        assert fun_alone.fds == fun_together.fds
        assert fun_alone.minimal_uccs == fun_together.minimal_uccs


class TestStoreProcessLocality:
    def test_stats_reports_traffic(self, relation):
        store = PliStore()
        assert store.stats() == {"relations": 0, "builds": 0, "reuses": 0}
        store.index_for(relation)
        store.index_for(relation)
        stats = store.stats()
        assert stats["relations"] == 1
        assert stats["builds"] == 1
        assert stats["reuses"] == 1

    def test_store_refuses_to_pickle(self):
        """A PliStore is a process-local cache of live PLI objects; workers
        must build their own instead of shipping one across a fork."""
        import pickle

        with pytest.raises(TypeError, match="process-local"):
            pickle.dumps(PliStore())


class TestCounterLifecycle:
    """Explicit traffic-counter lifecycle: stats() accumulates for the
    store's lifetime; reset_counters() is the only reset point."""

    def test_reset_counters_returns_pre_reset_stats(self, relation):
        store = PliStore()
        store.index_for(relation)
        store.index_for(relation)
        before = store.reset_counters()
        assert before == {"relations": 1, "builds": 1, "reuses": 1}
        assert store.stats() == {"relations": 1, "builds": 0, "reuses": 0}

    def test_reset_keeps_indexes_warm(self, relation):
        store = PliStore()
        index = store.index_for(relation)
        store.reset_counters()
        # The warm index survives; the next lookup is a reuse counted
        # against the fresh window (per-phase measurement over a warm
        # store, the documented use).
        assert store.index_for(relation) is index
        assert store.stats() == {"relations": 1, "builds": 0, "reuses": 1}

    def test_nothing_resets_counters_implicitly(self, relation):
        store = PliStore()
        store.index_for(relation)
        store.discard(relation)
        store.index_for(relation)
        store.clear()
        # discard/clear drop indexes but never touch the traffic counters.
        assert store.stats() == {"relations": 0, "builds": 2, "reuses": 0}


class TestFingerprintKeying:
    """Regression: the store keys by content fingerprint, not object
    identity or name.  The seed keyed by ``id(relation)``, so a schema
    sweep holding two loads of the same table built its substrate twice
    and two same-shaped tables could alias after garbage collection."""

    def test_content_identical_objects_share_one_index(self, relation):
        twin = Relation.from_rows(
            relation.column_names,
            list(relation.iter_rows()),
            name="a_different_cosmetic_name",
        )
        assert twin is not relation
        store = PliStore()
        assert store.index_for(relation) is store.index_for(twin)
        assert store.stats() == {"relations": 1, "builds": 1, "reuses": 1}

    def test_same_names_different_content_never_alias(self, relation):
        shuffled_rows = list(relation.iter_rows())[::-1]
        other = Relation.from_rows(
            relation.column_names, shuffled_rows, name=relation.name
        )
        store = PliStore()
        assert store.index_for(relation) is not store.index_for(other)
        assert store.stats() == {"relations": 2, "builds": 2, "reuses": 0}

    def test_discard_is_by_content(self, relation):
        twin = Relation.from_rows(
            relation.column_names, list(relation.iter_rows()), name="twin"
        )
        store = PliStore()
        store.index_for(relation)
        store.discard(twin)  # same content: evicts the shared entry
        assert relation not in store
        store.index_for(relation)
        assert store.builds == 2
