"""Focused sampling: determinism, caps, cluster focus, fault hooks."""

from __future__ import annotations

import pytest

from repro.faults import FAULTS, SAMPLING_HARVEST, FaultInjected
from repro.pli.index import RelationIndex
from repro.relation.relation import Relation
from repro.sampling import focused_sample


def _relation(rows, name="harvest"):
    n = len(rows[0]) if rows else 1
    names = [chr(ord("A") + i) for i in range(n)]
    return Relation.from_rows(names, rows, name=name)


def _clustered_relation() -> Relation:
    """40 rows: column A has one dominant 30-row cluster, column B is a
    row id (all singletons), column C alternates over two values."""
    rows = [
        ("dup" if i < 30 else f"u{i}", str(i), "x" if i % 2 else "y")
        for i in range(40)
    ]
    return _relation(rows)


def test_sample_is_deterministic_capped_and_sorted():
    index = RelationIndex(_clustered_relation())
    sample = focused_sample(index, max_rows=10, seed=3)
    assert sample == focused_sample(index, max_rows=10, seed=3)
    assert sample == sorted(set(sample))
    assert len(sample) == 10
    assert all(0 <= row < index.n_rows for row in sample)
    assert focused_sample(index, max_rows=10, seed=4) != sample


def test_degenerate_relations_yield_empty_samples():
    index = RelationIndex(_relation([("a", "b", "c")]))
    assert focused_sample(index) == []
    assert focused_sample(index, max_rows=0) == []


def test_full_budget_covers_every_row():
    relation = _clustered_relation()
    index = RelationIndex(relation)
    # 40 rows fit under the default MAX_ROWS cap: the sample is all of them.
    assert focused_sample(index) == list(range(relation.n_rows))


def test_sample_focuses_on_large_clusters():
    """With a tight budget, the dominant single-column cluster must
    contribute at least a witness pair — that is the point of focusing."""
    index = RelationIndex(_clustered_relation())
    sample = focused_sample(index, max_rows=6, seed=0)
    in_big_cluster = [row for row in sample if row < 30]
    assert len(in_big_cluster) >= 2


def test_harvest_trips_the_fault_point():
    index = RelationIndex(_clustered_relation())
    FAULTS.arm(SAMPLING_HARVEST, at=2)
    try:
        with pytest.raises(FaultInjected):
            focused_sample(index, max_rows=8)
    finally:
        FAULTS.disarm()
    # Disarmed, the same harvest completes.
    assert len(focused_sample(index, max_rows=8)) == 8
