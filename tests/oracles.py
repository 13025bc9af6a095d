"""Brute-force discovery oracles.

These implementations follow the *definitions* of INDs, UCCs, and FDs
directly, with no pruning beyond trivially implied minimality filtering.
They are exponential and meant exclusively as ground truth for the test
suite: every optimized algorithm in :mod:`repro` is cross-validated against
them on small inputs (including hypothesis-generated random relations).
:func:`legacy_intersect` is the same kind of reference one layer down: the
seed PLI kernel that the array-backed ``PLI.intersect`` is diffed against.
"""

from __future__ import annotations

from itertools import combinations

from repro.algorithms.values import canonical_value
from repro.pli.pli import PLI
from repro.relation.columnset import bits, is_proper_subset, mask_of
from repro.relation.relation import Relation

__all__ = [
    "naive_inds", "naive_uccs", "naive_fds", "is_unique", "holds_fd",
    "legacy_intersect",
]


def naive_inds(relation: Relation) -> list[tuple[int, int]]:
    """All unary INDs as ``(dependent, referenced)`` index pairs.

    NULLs are skipped on both sides; an all-NULL column is included in
    every other column (vacuous truth), matching SPIDER.
    """
    value_sets = [
        {canonical_value(v) for v in relation.column(i) if v is not None}
        for i in range(relation.n_columns)
    ]
    return [
        (dep, ref)
        for dep in range(relation.n_columns)
        for ref in range(relation.n_columns)
        if dep != ref and value_sets[dep] <= value_sets[ref]
    ]


def is_unique(relation: Relation, mask: int) -> bool:
    """Definition check: no duplicate value combination in the projection."""
    columns = [relation.column(i) for i in bits(mask)]
    seen: set[tuple[object, ...]] = set()
    for row in zip(*columns) if columns else ():
        if row in seen:
            return False
        seen.add(row)
    # The empty projection is unique only on relations with at most one row.
    return bool(columns) or relation.n_rows <= 1


def naive_uccs(relation: Relation) -> list[int]:
    """All minimal UCCs as bitmasks, by exhaustive level-wise scan."""
    n = relation.n_columns
    minimal: list[int] = []
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = mask_of(combo)
            if any(is_proper_subset(found, mask) for found in minimal):
                continue
            if is_unique(relation, mask):
                minimal.append(mask)
    return sorted(minimal)


def holds_fd(relation: Relation, lhs_mask: int, rhs_index: int) -> bool:
    """Definition check: equal lhs projections imply equal rhs values."""
    lhs_columns = [relation.column(i) for i in bits(lhs_mask)]
    rhs_column = relation.column(rhs_index)
    witness: dict[tuple[object, ...], object] = {}
    for row_id in range(relation.n_rows):
        key = tuple(col[row_id] for col in lhs_columns)
        value = rhs_column[row_id]
        if key in witness:
            if witness[key] != value:
                return False
        else:
            witness[key] = value
    return True


def naive_fds(relation: Relation, include_empty_lhs: bool = False) -> list[tuple[int, int]]:
    """All minimal non-trivial FDs as ``(lhs_mask, rhs_index)`` pairs.

    With ``include_empty_lhs`` (off by default, matching the paper's
    level-1 lattice start), constant columns yield ``∅ → A`` and suppress
    all larger left-hand sides for that rhs.
    """
    n = relation.n_columns
    result: list[tuple[int, int]] = []
    for rhs in range(n):
        minimal_lhs: list[int] = []
        start = 0 if include_empty_lhs else 1
        others = [c for c in range(n) if c != rhs]
        for k in range(start, n):
            for combo in combinations(others, k):
                lhs = mask_of(combo)
                if any(is_proper_subset(found, lhs) for found in minimal_lhs):
                    continue
                if holds_fd(relation, lhs, rhs):
                    minimal_lhs.append(lhs)
        result.extend((lhs, rhs) for lhs in minimal_lhs)
    return sorted(result)


def legacy_intersect(left: PLI, right: PLI) -> PLI:
    """The seed kernel's intersection, kept as a differential reference.

    Rebuilds a probe dictionary over the larger side on every call and
    routes the result through the normalizing public constructor — exactly
    the behaviour the array-backed kernel replaces.  Used by the
    differential test suite to prove the new path produces identical PLIs.
    """
    if left.n_rows != right.n_rows:
        raise ValueError(
            f"cannot intersect PLIs over {left.n_rows} and {right.n_rows} rows"
        )
    small, large = (
        (left, right)
        if left.n_clustered_rows <= right.n_clustered_rows
        else (right, left)
    )
    probe: dict[int, int] = {}
    for cluster_id, cluster in enumerate(large.clusters):
        for row in cluster:
            probe[row] = cluster_id
    result: list[list[int]] = []
    for cluster in small.clusters:
        groups: dict[int, list[int]] = {}
        for row in cluster:
            other_cluster = probe.get(row)
            if other_cluster is not None:
                groups.setdefault(other_cluster, []).append(row)
        for group in groups.values():
            if len(group) >= 2:
                result.append(group)
    return PLI(result, left.n_rows)
