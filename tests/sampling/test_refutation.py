"""RefutationIndex: soundness always, completeness on full samples."""

from __future__ import annotations

import random

import pytest

from repro.pli.index import RelationIndex
from repro.relation.columnset import full_mask
from repro.sampling import RefutationIndex, focused_sample

from ..conftest import random_relation
from ..oracles import naive_fds, naive_uccs


def _vectors(relation):
    index = RelationIndex(relation)
    return index, [index.vector(c) for c in range(relation.n_columns)]


def _all_fd_candidates(n):
    for lhs in range(1 << n):
        for rhs in range(n):
            if not (lhs >> rhs & 1):
                yield lhs, rhs


def test_empty_mask_grouping_is_rejected():
    relation = random_relation(random.Random(0), "empty-mask")
    _, vectors = _vectors(relation)
    refutation = RefutationIndex(range(relation.n_rows), vectors)
    with pytest.raises(ValueError):
        refutation.groups(0)


def test_full_sample_refutation_is_exact():
    """Sampling every row makes refutation complete as well as sound:
    'refuted' must coincide with 'invalid per the brute-force oracle'."""
    rng = random.Random(7)
    for case in range(25):
        relation = random_relation(rng, f"full[{case}]")
        n = relation.n_columns
        _, vectors = _vectors(relation)
        refutation = RefutationIndex(range(relation.n_rows), vectors)

        valid_fds = set(naive_fds(relation))
        minimal_uccs = naive_uccs(relation)
        for lhs, rhs in _all_fd_candidates(n):
            if lhs == 0:
                # ∅ → rhs holds only for constant columns.
                holds = len(set(vectors[rhs])) <= 1
            else:
                # An FD holds iff some minimal valid FD's lhs is a subset.
                holds = any(
                    v_rhs == rhs and v_lhs & lhs == v_lhs
                    for v_lhs, v_rhs in valid_fds
                )
            assert refutation.refutes_fd(lhs, rhs) == (not holds), (
                f"full[{case}]: fd {lhs}->{rhs}"
            )

        for mask in range(1, 1 << n):
            unique = any(u & mask == u for u in minimal_uccs)
            assert refutation.refutes_ucc(mask) == (not unique), (
                f"full[{case}]: ucc {mask}"
            )


def test_partial_sample_refutation_is_sound():
    """Whatever a partial sample refutes must genuinely be invalid."""
    rng = random.Random(11)
    for case in range(25):
        relation = random_relation(
            rng, f"part[{case}]", max_rows=20, max_domain=3
        )
        n = relation.n_columns
        index, vectors = _vectors(relation)
        rows = focused_sample(index, max_rows=5, seed=case, per_cluster=2)
        refutation = RefutationIndex(rows, vectors)
        full = RefutationIndex(range(relation.n_rows), vectors)

        for lhs, rhs in _all_fd_candidates(n):
            if refutation.refutes_fd(lhs, rhs):
                assert full.refutes_fd(lhs, rhs), (
                    f"part[{case}]: unsound fd refutation {lhs}->{rhs}"
                )
        for mask in range(1, 1 << n):
            if refutation.refutes_ucc(mask):
                assert full.refutes_ucc(mask), (
                    f"part[{case}]: unsound ucc refutation {mask}"
                )


def test_empty_lhs_and_empty_mask_queries():
    relation = random_relation(random.Random(3), "edges", max_rows=10)
    _, vectors = _vectors(relation)
    refutation = RefutationIndex(range(relation.n_rows), vectors)
    # Empty-mask UCC: refuted iff at least two rows exist at all.
    assert refutation.refutes_ucc(0) == (relation.n_rows >= 2)
    # Trivial FDs are never refuted.
    n = relation.n_columns
    for rhs in range(n):
        assert not refutation.refutes_fd(full_mask(n), rhs)


def test_batched_refuted_rhs_matches_per_rhs_queries():
    """``refuted_rhs`` must agree bit-for-bit with ``refutes_fd`` over
    every lhs mask and rhs subset — it is an optimization of the query
    shape, not of the answer."""
    rng = random.Random(13)
    for case in range(15):
        relation = random_relation(rng, f"batch[{case}]", max_rows=15)
        n = relation.n_columns
        index, vectors = _vectors(relation)
        rows = focused_sample(index, max_rows=8, seed=case, per_cluster=2)
        for refutation in (
            RefutationIndex(rows, vectors),
            RefutationIndex(range(relation.n_rows), vectors),
        ):
            universe = full_mask(n)
            for lhs in range(1 << n):
                rhs_mask = rng.randrange(1 << n) if case % 2 else universe
                expected = 0
                for rhs in range(n):
                    if rhs_mask >> rhs & 1 and refutation.refutes_fd(
                        lhs, rhs
                    ):
                        expected |= 1 << rhs
                assert refutation.refuted_rhs(lhs, rhs_mask) == expected, (
                    f"batch[{case}]: lhs={lhs} rhs_mask={rhs_mask}"
                )


def test_groupings_are_memoized():
    relation = random_relation(random.Random(5), "memo", max_rows=12)
    _, vectors = _vectors(relation)
    refutation = RefutationIndex(range(relation.n_rows), vectors)
    mask = full_mask(relation.n_columns)
    first = refutation.groups(mask)
    assert refutation.groups(mask) is first
