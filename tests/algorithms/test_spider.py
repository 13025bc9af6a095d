"""Tests for SPIDER, including the paper's Table 1 trace."""

from hypothesis import given

from repro.algorithms import spider, spider_on_relation
from repro.algorithms.spider import spider_across
from repro.algorithms.values import canonical_value
from repro.pli import RelationIndex
from repro.relation import Relation

from ..conftest import relations
from ..oracles import naive_inds


class TestPaperExample:
    def test_table1_execution(self):
        """Table 1: columns A={w,x,y}(+dupes), B={x,z}, C={w,x,z}; the
        merge invalidates candidates until only A ⊆ C survives... the
        paper's §2.1 narrative: A can still depend on C but not on B."""
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [
                ("w", "z", "x"),
                ("w", "x", "x"),
                ("x", "z", "w"),
                ("y", "z", "z"),
            ],
        )
        # distinct: A={w,x,y}, B={x,z}, C={w,x,z}
        result = spider_on_relation(rel)
        assert (0, 1) not in result  # A ⊄ B (B lacks w)
        assert (1, 2) in result  # B={x,z} ⊆ C={w,x,z}
        assert (0, 2) not in result  # A has y, C does not

    def test_group_intersection_step(self):
        """§2.1: attributes sharing the smallest value can only be
        included in one another."""
        rel = Relation.from_rows(
            ["A", "B", "C"],
            [("w", "x", "w"), ("x", "x", "x"), ("y", "y", "y"), ("z", "z", "z")],
        )
        result = spider_on_relation(rel)
        # A and C both contain w; B does not, so A ⊄ B.
        assert (0, 1) not in result


class TestSemantics:
    def test_identical_columns_mutual(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (2, 2)])
        assert spider_on_relation(rel) == [(0, 1), (1, 0)]

    def test_empty_relation_all_inds(self):
        rel = Relation.from_rows(["A", "B"], [])
        assert spider_on_relation(rel) == [(0, 1), (1, 0)]

    def test_all_null_column(self):
        rel = Relation.from_rows(["A", "B"], [(None, 1), (None, 2)])
        result = spider_on_relation(rel)
        assert (0, 1) in result
        assert (1, 0) not in result

    def test_values_compared_canonically(self):
        rel = Relation.from_rows(["A", "B"], [(1, "1"), (2, "2")])
        assert spider_on_relation(rel) == [(0, 1), (1, 0)]

    def test_single_column_no_candidates(self):
        rel = Relation.from_rows(["A"], [(1,)])
        assert spider_on_relation(rel) == []


class TestSpiderAcross:
    def test_foreign_key_between_relations(self):
        orders = Relation.from_rows(
            ["order_id", "customer"], [(1, "c1"), (2, "c2"), (3, "c1")]
        )
        customers = Relation.from_rows(
            ["customer_id", "name"], [("c1", "Ann"), ("c2", "Bob"), ("c3", "Cid")]
        )
        inds = spider_across([orders, customers])
        # orders.customer ⊆ customers.customer_id
        assert ((0, 1), (1, 0)) in inds
        # but not the reverse (c3 has no order)
        assert ((1, 0), (0, 1)) not in inds

    def test_single_relation_matches_spider(self):
        rel = Relation.from_rows(
            ["A", "B", "C"], [(1, 1, 2), (2, 2, 1), (1, 2, 2)]
        )
        across = spider_across([rel])
        flat = sorted((dep[1], ref[1]) for dep, ref in across)
        assert flat == spider_on_relation(rel)

    @given(
        relations(max_columns=3, max_rows=8, max_domain=2),
        relations(max_columns=3, max_rows=8, max_domain=2),
    )
    def test_matches_set_containment_oracle(self, left, right):
        tables = [left, right]
        value_sets = {
            (t, c): {
                canonical_value(v) for v in tables[t].column(c) if v is not None
            }
            for t in range(2)
            for c in range(tables[t].n_columns)
        }
        expected = sorted(
            (dep, ref)
            for dep in value_sets
            for ref in value_sets
            if dep != ref and value_sets[dep] <= value_sets[ref]
        )
        assert spider_across(tables) == expected


class TestAgainstOracle:
    @given(relations(max_columns=5, max_rows=12, allow_nulls=True))
    def test_matches_naive(self, rel):
        assert spider(RelationIndex(rel)) == sorted(naive_inds(rel))

    @given(relations(max_columns=4, max_rows=10))
    def test_shares_index_with_other_tasks(self, rel):
        """SPIDER must not disturb the shared index (holistic property)."""
        index = RelationIndex(rel)
        before = index.intersections
        spider(index)
        assert index.intersections == before  # no PLI work for INDs
