"""Differential validation of the array-backed PLI kernel.

Three guarantees, checked on ~200 randomized relations drawn from the
workload generators in :mod:`repro.datasets.generators`:

1. the probe-vector ``intersect`` path produces PLIs identical to the
   seed kernel's cluster-set path (kept as
   :func:`tests.oracles.legacy_intersect`), and ``refines`` agrees with the
   Lemma-1 cardinality formulation on the same inputs — under *every*
   column-storage mode (encoded / mmap);
2. TANE, FUN, and MUDS produce identical minimal FDs when all driven
   through one shared :class:`~repro.pli.PliStore`;
3. the storage modes are interchangeable: identical clusters, identical
   discovered metadata, and identical kernel counters — and every storage
   mode's single-column views equal the value-grouping reference
   (:func:`~repro.pli.pli.pli_from_column` /
   :func:`~repro.pli.pli.value_vector`).
"""

import itertools

import pytest

from repro.algorithms.fun import fun
from repro.algorithms.tane import tane
from repro.core.muds import Muds
from repro.datasets.generators import ionosphere_like, ncvoter_like, uniprot_like
from repro.pli import KERNEL_STATS, PliStore, RelationIndex
from repro.pli.pli import pli_from_column, value_vector
from repro.relation.encoded import STORAGE_MODES

from ..conftest import encoded_in
from ..oracles import legacy_intersect

# ~200 randomized relations: 3 generators x seeds x sizes.  Small rows keep
# the quadratic all-pairs intersection sweep fast.
_CASES = (
    [("uniprot", uniprot_like, rows, cols, seed)
     for rows, cols, seed in itertools.product((30, 60), (4, 6, 10), range(12))]
    + [("ionosphere", lambda r, c, s: ionosphere_like(c, n_rows=r, seed=s), rows, cols, seed)
       for rows, cols, seed in itertools.product((40, 80), (6, 8, 10), range(12))]
    + [("ncvoter", ncvoter_like, rows, cols, seed)
       for rows, cols, seed in itertools.product((30, 60), (5, 8, 12), range(10))]
)
assert len(_CASES) >= 200


def _build(name, factory, rows, cols, seed):
    if name == "ionosphere":
        return factory(rows, cols, seed)
    return factory(rows, n_columns=cols, seed=seed)


@pytest.mark.parametrize("storage_mode", STORAGE_MODES)
@pytest.mark.parametrize(
    "name, factory, rows, cols, seed",
    _CASES,
    ids=[f"{c[0]}-{c[2]}x{c[3]}-s{c[4]}" for c in _CASES],
)
def test_new_kernel_matches_legacy_on_generated_relations(
    name, factory, rows, cols, seed, storage_mode
):
    relation = encoded_in(_build(name, factory, rows, cols, seed), storage_mode)
    index = RelationIndex(relation)
    plis = [index.column_pli(c) for c in range(relation.n_columns)]
    vectors = [index.vector(c) for c in range(relation.n_columns)]

    for left, right in itertools.combinations(range(relation.n_columns), 2):
        via_probe = plis[left].intersect(plis[right])
        via_clusters = legacy_intersect(plis[left], plis[right])
        assert via_probe == via_clusters, (
            f"kernel divergence intersecting columns {left},{right} "
            f"of {relation.name}"
        )
        # refines must agree with Lemma 1's cardinality formulation.
        for lhs, rhs in ((left, right), (right, left)):
            joint = legacy_intersect(plis[lhs], plis[rhs])
            assert plis[lhs].refines(vectors[rhs]) == (
                plis[lhs].distinct_count == joint.distinct_count
            )


@pytest.mark.parametrize("seed", range(4))
def test_tane_fun_muds_agree_through_one_shared_store(seed):
    relation = uniprot_like(80, n_columns=8, seed=seed)
    store = PliStore()
    tane_fds = sorted(tane(store.index_for(relation)).fds)
    fun_fds = sorted(fun(store.index_for(relation)).fds)
    muds_result = Muds(seed=seed, store=store).profile(relation)
    muds_fds = sorted(
        (fd.lhs_mask(relation.column_names),
         relation.column_names.index(fd.rhs))
        for fd in muds_result.fds
    )
    assert tane_fds == fun_fds == muds_fds
    assert store.builds == 1  # one substrate served all three algorithms


def test_fd_signatures_agree_on_ncvoter_geometry():
    relation = ncvoter_like(120, n_columns=10, seed=3)
    store = PliStore()
    index = store.index_for(relation)
    tane_result = tane(index)
    fun_result = fun(index)
    assert sorted(tane_result.fds) == sorted(fun_result.fds)
    assert sorted(tane_result.minimal_keys) == sorted(fun_result.minimal_uccs)
    assert store.builds == 1


# -- storage interchangeability -----------------------------------------------


def _profile(relation, seed, storage_mode):
    """One full MUDS + TANE + FUN pass on a fresh substrate over a twin
    of ``relation`` encoded in ``storage_mode``; returns the discovered
    metadata, the composite clusters, and the kernel deltas."""
    relation = encoded_in(relation, storage_mode)
    before = KERNEL_STATS.snapshot()
    store = PliStore()
    index = store.index_for(relation)
    tane_result = tane(index)
    fun_result = fun(index)
    muds_result = Muds(seed=seed, store=store).profile(relation)
    counters = KERNEL_STATS.delta(before)
    clusters = {
        column: index.column_pli(column).clusters
        for column in range(relation.n_columns)
    }
    pair_clusters = {
        (left, right): index.column_pli(left)
        .intersect(index.column_pli(right))
        .clusters
        for left, right in itertools.combinations(range(relation.n_columns), 2)
    }
    columns = [
        (
            index.column_pli(column),
            list(index.vector(column)),
            index.distinct_values(column),
        )
        for column in range(relation.n_columns)
    ]
    return {
        "tane_fds": sorted(tane_result.fds),
        "fun_fds": sorted(fun_result.fds),
        "muds_fds": sorted(str(fd) for fd in muds_result.fds),
        "uccs": sorted(str(ucc) for ucc in muds_result.uccs),
        "inds": sorted(str(ind) for ind in muds_result.inds),
        "clusters": clusters,
        "pair_clusters": pair_clusters,
        "columns": columns,
        "counters": counters,
    }


_INTERCHANGE_CASES = [
    (uniprot_like, 60, 8, 0),
    (uniprot_like, 90, 6, 3),
    (ncvoter_like, 80, 8, 1),
    (lambda r, n_columns, seed: ionosphere_like(
        n_columns, n_rows=r, seed=seed
    ), 70, 7, 2),
]
_INTERCHANGE_IDS = [
    "uniprot-60x8", "uniprot-90x6", "ncvoter-80x8", "ionosphere-70x7"
]


@pytest.mark.parametrize(
    "factory, rows, cols, seed", _INTERCHANGE_CASES, ids=_INTERCHANGE_IDS
)
def test_storage_modes_are_interchangeable(factory, rows, cols, seed):
    """The columnar-storage contract: dictionary encoding is a bijective
    re-labelling, so every mode's single-column PLI, value vector and
    distinct-value list equal grouping the column's values directly
    (the reference :func:`pli_from_column` / :func:`value_vector`), and
    swapping encoded / mmap storage changes nothing observable —
    bit-identical clusters, metadata, and kernel counters (the kernel
    must count the same work whichever storage fed it).
    """
    relation = factory(rows, n_columns=cols, seed=seed)
    reference = [
        (pli_from_column(values), value_vector(values), list(dict.fromkeys(values)))
        for values in map(relation.column, range(relation.n_columns))
    ]
    profiles = {
        mode: _profile(relation, seed, mode) for mode in STORAGE_MODES
    }
    for mode, profile in profiles.items():
        assert profile["columns"] == reference, mode
    baseline, candidate = profiles["encoded"], profiles["mmap"]
    assert candidate["clusters"] == baseline["clusters"]
    assert candidate["pair_clusters"] == baseline["pair_clusters"]
    for key in ("tane_fds", "fun_fds", "muds_fds", "uccs", "inds"):
        assert candidate[key] == baseline[key], (
            f"{key} diverged between encoded and mmap storage"
        )
    assert candidate["counters"] == baseline["counters"]
