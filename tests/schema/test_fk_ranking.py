"""FK-candidate ranking: oracle schemas pin the order, properties pin
the score shape (monotone components, deterministic ties, clipping)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.values import canonical_value
from repro.relation.csv_io import read_csv
from repro.schema import profile_schema
from repro.schema.catalog import CrossTableInd
from repro.schema.fk import (
    SCORE_WEIGHTS,
    ColumnFacts,
    fk_score,
    name_similarity,
    rank_fk_candidates,
)
from repro.schema.job import _column_facts

from .conftest import seeded_schema, write_schema

unit = st.floats(0.0, 1.0, allow_nan=False)


# -- oracle schema ----------------------------------------------------------


ORACLE = {
    "customers": (
        ["id", "region"],
        [[str(100 + i), "ns"[i % 2]] for i in range(12)],
    ),
    "orders": (
        ["order_id", "customer_id", "qty"],
        [
            [str(i), str(100 + (i * 5) % 12), str(1 + i % 3)]
            for i in range(24)
        ],
    ),
    "audit": (
        # qty-like tiny-domain column also ⊆ customers.id? No: values 1-3
        # are not customer ids, but the flag column ⊆ orders.qty is a
        # coincidental small-domain inclusion that must rank *below* the
        # genuine FK.
        ["flag"],
        [[str(1 + i % 2)] for i in range(10)],
    ),
}


def test_oracle_schema_pins_the_ranking(tmp_path):
    catalog = profile_schema(write_schema(tmp_path / "s", ORACLE), seed=0)
    assert catalog.ok
    ranked = [str(candidate.ind) for candidate in catalog.fk_candidates]
    # The genuine FK outranks every coincidental inclusion.
    assert ranked[0] == "orders.customer_id ⊆ customers.id"
    assert "audit.flag ⊆ orders.qty" in ranked
    assert ranked.index("orders.customer_id ⊆ customers.id") < ranked.index(
        "audit.flag ⊆ orders.qty"
    )
    top = catalog.fk_candidates[0]
    # Exact component values from the oracle's construction: orders
    # reference every customer id (coverage 1), customers.id is a key
    # (ratio 1), and the compound name match is near-perfect.
    assert top.coverage == 1.0
    assert top.cardinality_ratio == 1.0
    assert top.name_similarity == name_similarity(
        "customer_id", "customers", "id"
    )
    assert math.isclose(
        top.score,
        fk_score(1.0, 1.0, top.name_similarity),
    )
    # Ranking is deterministic: a re-run reproduces it exactly.
    again = profile_schema(write_schema(tmp_path / "t", ORACLE), seed=0)
    assert [
        (str(c.ind), c.score) for c in again.fk_candidates
    ] == [(str(c.ind), c.score) for c in catalog.fk_candidates]


# -- scoring properties -----------------------------------------------------


@given(unit, unit, unit, unit)
def test_score_is_monotone_in_every_component(a, b, c, delta):
    for index in range(3):
        low = [a, b, c]
        high = list(low)
        high[index] = min(1.0, high[index] + delta)
        assert fk_score(*high) >= fk_score(*low)


@given(unit, unit, unit)
def test_score_stays_in_unit_interval(a, b, c):
    assert 0.0 <= fk_score(a, b, c) <= 1.0


def test_weights_sum_to_one():
    assert math.isclose(sum(SCORE_WEIGHTS.values()), 1.0)


def _ind(n):
    return CrossTableInd(f"t{n}", "c", "ref", "k")


def test_coverage_clips_at_one_and_empty_dependent_is_skipped():
    facts = {
        ("t0", "c"): ColumnFacts(distinct=8, non_null=8),
        ("t1", "c"): ColumnFacts(distinct=0, non_null=0),
        ("ref", "k"): ColumnFacts(distinct=4, non_null=4),
    }
    ranked = rank_fk_candidates([_ind(0), _ind(1)], facts)
    # The empty (all-NULL) dependent is evidence of nothing: dropped.
    assert [c.ind for c in ranked] == [_ind(0)]
    # 8 distinct over a 4-value domain clips to full coverage.
    assert ranked[0].coverage == 1.0


def test_referenced_key_likeness_orders_candidates():
    # Same dependent facts and names; only the referenced side's
    # key-likeness differs — the more unique column must win.
    inds = [
        CrossTableInd("child", "x", "keys", "u"),
        CrossTableInd("child", "x", "dupes", "u"),
    ]
    facts = {
        ("child", "x"): ColumnFacts(distinct=3, non_null=9),
        ("keys", "u"): ColumnFacts(distinct=6, non_null=6),
        ("dupes", "u"): ColumnFacts(distinct=6, non_null=18),
    }
    ranked = rank_fk_candidates(inds, facts)
    assert ranked[0].ind.referenced_table == "keys"
    assert ranked[0].cardinality_ratio == 1.0
    assert ranked[1].cardinality_ratio == pytest.approx(6 / 18)


def test_ties_break_lexicographically_and_input_order_is_irrelevant():
    inds = [
        CrossTableInd("b", "c", "ref", "k"),
        CrossTableInd("a", "c", "ref", "k"),
    ]
    facts = {
        ("a", "c"): ColumnFacts(distinct=2, non_null=4),
        ("b", "c"): ColumnFacts(distinct=2, non_null=4),
        ("ref", "k"): ColumnFacts(distinct=4, non_null=4),
    }
    forward = rank_fk_candidates(inds, facts)
    reverse = rank_fk_candidates(list(reversed(inds)), facts)
    assert forward == reverse
    assert [c.ind.dependent_table for c in forward] == ["a", "b"]


def test_limit_keeps_the_best(tmp_path):
    catalog = profile_schema(
        write_schema(tmp_path / "s", ORACLE), seed=0, max_fk_candidates=1
    )
    full = profile_schema(write_schema(tmp_path / "t", ORACLE), seed=0)
    assert len(catalog.fk_candidates) == 1
    assert catalog.fk_candidates[0] == full.fk_candidates[0]


def test_name_similarity_prefers_compound_match():
    compound = name_similarity("customer_id", "customers", "id")
    unrelated = name_similarity("qty", "customers", "id")
    assert compound > 0.8 > unrelated


@pytest.mark.parametrize("storage", ["encoded", "mmap"])
def test_column_facts_match_a_row_scan(tmp_path, storage):
    nulls = 0
    for seed in range(8):
        root = write_schema(tmp_path / f"s{seed}", seeded_schema(seed))
        for path in sorted(root.glob("*.csv")):
            relation = read_csv(path, storage=storage)
            expected = {}
            for index, name in enumerate(relation.column_names):
                values = [v for v in relation.column(index) if v is not None]
                nulls += relation.n_rows - len(values)
                expected[name] = ColumnFacts(
                    distinct=len({canonical_value(v) for v in values}),
                    non_null=len(values),
                )
            assert _column_facts(relation) == expected, path.name
    assert nulls > 0
