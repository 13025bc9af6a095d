"""The exactness contract: ``IncrementalProfiler.maintain`` must produce
results bit-identical to profiling the grown relation from scratch.

Seeded random relations are split into a base and an append batch; the
maintained result is compared (``same_metadata``) against a fresh
profile of the whole relation, which samples like every profile, and
against the brute-force oracle, which is exact — across every algorithm
the profiler dispatches to, every kernel backend and every storage mode.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.naive import naive_fds, naive_inds, naive_uccs
from repro.incremental import IncrementalProfiler
from repro.pli import available_backends, use_backend
from repro.relation import Relation
from repro.relation.encoded import STORAGE_MODES

from ..conftest import (
    encoded_in,
    fds_as_pairs,
    inds_as_pairs,
    random_relation,
    uccs_as_masks,
)

SEED = 20160315
ALGORITHMS = ("muds", "holistic_fun", "baseline")


def _split_cases(seed: int, n_cases: int, min_rows: int = 4):
    """Seeded (base_rows, batch_rows, names) splits with non-empty batches."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n_cases:
        relation = random_relation(rng, f"case-{len(cases)}", max_rows=14)
        rows = list(relation.iter_rows())
        if len(rows) < min_rows:
            continue
        cut = rng.randint(1, len(rows) - 1)
        cases.append((list(relation.column_names), rows[:cut], rows[cut:]))
    return cases


def _check_maintained(
    names, base_rows, batch_rows, algorithm, exact=False, storage=None
):
    """Compare with a fresh profile, or with ``exact`` the oracle.

    ``storage=None`` keeps the relations' columns values (encoded in
    memory on first use); a mode encodes them there up front."""

    def build(rows):
        relation = Relation.from_rows(names, rows, name="grown")
        return relation if storage is None else encoded_in(relation, storage)

    grown = build(base_rows)
    profiler = IncrementalProfiler(algorithm=algorithm, seed=0)
    prior = profiler.profile_base(grown)
    maintained = profiler.maintain(grown, batch_rows, prior)
    whole = build(base_rows + batch_rows)
    assert grown.fingerprint() == whole.fingerprint()
    where = f"{algorithm} on base={base_rows} batch={batch_rows}"
    if exact:
        assert fds_as_pairs(maintained, whole) == naive_fds(whole), where
        assert uccs_as_masks(maintained, whole) == naive_uccs(whole), where
        assert inds_as_pairs(maintained, whole) == naive_inds(whole), where
        return
    fresh = IncrementalProfiler(algorithm=algorithm, seed=0)
    assert maintained.same_metadata(fresh.profile_base(whole)), where


@pytest.mark.parametrize("exact", [False, True], ids=["sampling", "exact"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_maintained_equals_from_scratch(algorithm, exact):
    for names, base_rows, batch_rows in _split_cases(SEED, 20):
        _check_maintained(names, base_rows, batch_rows, algorithm, exact)


@pytest.mark.parametrize("storage_mode", STORAGE_MODES)
@pytest.mark.parametrize("backend_name", available_backends())
def test_backend_storage_matrix(backend_name, storage_mode, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    with use_backend(backend_name):
        for names, base_rows, batch_rows in _split_cases(SEED + 7, 6):
            _check_maintained(
                names, base_rows, batch_rows, "muds", storage=storage_mode
            )


def test_multiple_batches_compose():
    for names, base_rows, batch_rows in _split_cases(SEED + 29, 6, min_rows=6):
        half = len(batch_rows) // 2 or 1
        grown = Relation.from_rows(names, base_rows, name="grown")
        profiler = IncrementalProfiler(algorithm="muds", seed=0)
        result = profiler.profile_base(grown)
        result = profiler.maintain(grown, batch_rows[:half], result)
        result = profiler.maintain(grown, batch_rows[half:], result)
        whole = Relation.from_rows(names, base_rows + batch_rows, name="grown")
        fresh = IncrementalProfiler(algorithm="muds", seed=0).profile_base(whole)
        assert result.same_metadata(fresh)


def test_empty_batch_returns_prior():
    names, base_rows, _ = _split_cases(SEED + 31, 1)[0]
    grown = Relation.from_rows(names, base_rows, name="grown")
    profiler = IncrementalProfiler(algorithm="muds", seed=0)
    prior = profiler.profile_base(grown)
    assert profiler.maintain(grown, [], prior) is prior


def test_mismatched_prior_rejected():
    grown = Relation.from_rows(["A", "B"], [(1, 2), (2, 3)], name="grown")
    other = Relation.from_rows(["X", "Y"], [(1, 2), (2, 3)], name="other")
    profiler = IncrementalProfiler(algorithm="muds", seed=0)
    prior = profiler.profile_base(other)
    with pytest.raises(ValueError, match="columns"):
        profiler.maintain(grown, [(3, 4)], prior)


def test_profile_base_warms_the_shared_store():
    # Regression: ``store or PliStore()`` in the profilers treated an
    # *empty* shared store as absent (PliStore defines __len__), so the
    # base profile built its substrate in a private store and maintain()
    # re-built everything from row 0.
    grown = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y")], name="warm")
    profiler = IncrementalProfiler(algorithm="muds", seed=0)
    profiler.profile_base(grown)
    assert grown in profiler.store
    assert profiler.store.builds == 1
    profiler.maintain(grown, [(3, "x")], profiler.profile_base(grown))
    # The append delta-merged into the warm index: no second build.
    assert profiler.store.builds == 1


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        IncrementalProfiler(algorithm="nope")
