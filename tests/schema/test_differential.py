"""Schema differential suite: ~50 random seeds, one exact catalog.

The schema job promises one catalog regardless of execution strategy
(serial vs. process pool), and that catalog is exact.  Every seed writes
a fresh random schema to disk, profiles it serially, checks every
table's metadata and the cross-table INDs against brute-force oracles,
and asserts the canonical catalog form
(:func:`~repro.metadata.serialize.canonical_catalog_dumps` — metadata,
fingerprints, dedup structure, cross INDs, FK scores, and deterministic
counters; no wall-clock) is byte-identical under a process pool.  Pools
are expensive to spawn, so ``jobs=2`` runs on a rotating subset of the
seeds.
"""

from __future__ import annotations

import pytest

from repro.algorithms.naive import naive_fds, naive_inds, naive_uccs
from repro.metadata.serialize import canonical_catalog_dumps
from repro.relation.csv_io import read_csv
from repro.schema import profile_schema

from ..conftest import fds_as_pairs, inds_as_pairs, uccs_as_masks
from .conftest import naive_cross_inds, seeded_schema, write_schema

SEEDS = range(50)


@pytest.mark.parametrize("seed", SEEDS)
def test_catalog_identity_across_configurations(seed, tmp_path):
    root = write_schema(tmp_path / "schema", seeded_schema(seed))
    reference = profile_schema(root, seed=0)
    assert reference.ok
    canon = canonical_catalog_dumps(reference)

    # Every profiled table agrees with the brute-force oracles.
    for table in reference.tables:
        if table.duplicate_of is not None:
            continue
        relation, result = read_csv(root / table.path), table.result
        where = f"seed {seed}: {table.name}"
        assert fds_as_pairs(result, relation) == naive_fds(relation), where
        assert uccs_as_masks(result, relation) == naive_uccs(relation), where
        assert inds_as_pairs(result, relation) == naive_inds(relation), where

    if seed % 7 == 0:  # pool spawns are the expensive variant
        pooled = profile_schema(root, seed=0, jobs=2)
        assert canonical_catalog_dumps(pooled) == canon

    # The cross-table phase agrees with the naive per-pair oracle.
    assert {
        (
            ind.dependent_table,
            ind.dependent_column,
            ind.referenced_table,
            ind.referenced_column,
        )
        for ind in reference.cross_inds
    } == naive_cross_inds(root)
