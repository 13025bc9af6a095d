"""Schema differential suite: ~50 random seeds, one catalog identity.

The schema job promises one catalog regardless of execution strategy:
serial vs. process pool, sampling-refutation on vs. off.  Every seed
writes a fresh random schema to disk, profiles it on the reference
configuration, and asserts the canonical
catalog form (:func:`~repro.metadata.serialize.canonical_catalog_dumps`
— metadata, fingerprints, dedup structure, cross INDs, FK scores, and
deterministic counters; no wall-clock) is byte-identical on each variant
configuration.  Process pools are expensive to spawn, so ``jobs=2`` runs
on a rotating subset of the seeds; the cheap variants run on all of
them.
"""

from __future__ import annotations

import pytest

from repro.metadata.serialize import canonical_catalog_dumps
from repro.schema import profile_schema

from .conftest import naive_cross_inds, seeded_schema, write_schema

SEEDS = range(50)


@pytest.mark.parametrize("seed", SEEDS)
def test_catalog_identity_across_configurations(seed, tmp_path):
    root = write_schema(tmp_path / "schema", seeded_schema(seed))
    reference = profile_schema(root, seed=0)
    assert reference.ok
    canon = canonical_catalog_dumps(reference)

    exact = profile_schema(root, seed=0, sampling=False)
    assert canonical_catalog_dumps(exact) == canon

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
