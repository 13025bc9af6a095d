"""Differential suite: results with sampling equal the exact results.

The refutation engine's contract is that it only *refutes* candidates
(every sample violation is a real violation) and never accepts one, so
discovered minimal FDs, minimal UCCs, and unary INDs are exactly what a
computation without sampling finds.  The computation without sampling
here is the brute-force oracle (:mod:`tests.oracles`), checked
on 200 seeded random relations for every algorithm that consults the
engine: TANE, FUN, DUCC, SPIDER (standalone entry points), plus the MUDS
and Holistic FUN profilers end to end.

Every relation has more rows than the sample cap
(:data:`~repro.sampling.harvester.MAX_ROWS`), so every harvested sample
is *partial*: the engine must forward unrefuted-but-invalid candidates
to the exact path rather than guess.  The SPIDER value-probe prefilter
gets its own soundness property below.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms.ducc import ducc_on_relation
from repro.algorithms.fun import fun_on_relation
from repro.algorithms.spider import spider_on_relation
from repro.algorithms.tane import tane_on_relation
from repro.algorithms.values import canonical_value
from repro.core.holistic_fun import HolisticFun
from repro.core.muds import Muds
from repro.pli.store import PliStore
from repro.relation.relation import Relation
from repro.sampling.harvester import MAX_ROWS
from repro.sampling.planner import probe_ind_refs

from .conftest import (
    fds_as_pairs,
    inds_as_pairs,
    random_relation,
    uccs_as_masks,
)
from .oracles import naive_fds, naive_inds, naive_uccs

SEED = 20160316
N_BATCHES = 5
RELATIONS_PER_BATCH = 20


def _tall_relation(rng: random.Random, tag: str) -> Relation:
    """A duplicate-free random relation with more rows than ``MAX_ROWS``.

    Small per-column domains keep FD/UCC/IND structure dense (their
    product is only grown until enough distinct rows exist).  A last
    column that is a function of the first plants an FD no sample can
    refute, so the exact path has to confirm it.
    """
    n_columns = rng.randint(2, 5)
    # Up to 5x the cap: FUN consults the sample only for free sets of at
    # least 4 * MAX_ROWS clustered rows.
    n_rows = rng.randint(MAX_ROWS + 1, 5 * MAX_ROWS)
    domains = [rng.randint(2, 8) for _ in range(n_columns)]
    while math.prod(domains) < 2 * n_rows:
        domains[rng.randrange(n_columns)] += 3
    seen: set[tuple[int, ...]] = set()
    rows: list[tuple[int, ...]] = []
    while len(rows) < n_rows:
        row = tuple(rng.randrange(domain) for domain in domains)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    planted = [rng.randrange(3) for _ in range(domains[0])]
    rows = [row + (planted[row[0]],) for row in rows]
    names = [chr(ord("A") + i) for i in range(n_columns + 1)]
    return Relation.from_rows(names, rows, name=tag)


def _assert_sample_is_partial(store: PliStore, relation: Relation) -> bool:
    """A run that consulted the sample harvested a partial one; a run
    that asked no FD or UCC question harvested nothing.  Returns whether
    the sample was consulted."""
    planner = store.index_for(relation).planner
    consulted = planner.fd_queries + planner.ucc_queries > 0
    assert planner.harvest_rows == (MAX_ROWS if consulted else 0)
    assert MAX_ROWS < relation.n_rows
    return consulted


@pytest.mark.parametrize("batch", range(N_BATCHES))
def test_algorithms_identical_with_and_without_sampling(batch: int) -> None:
    rng = random.Random(SEED + batch)
    for index in range(RELATIONS_PER_BATCH):
        tag = f"diff[{batch}.{index}]"
        relation = _tall_relation(rng, tag)
        fds, uccs = naive_fds(relation), naive_uccs(relation)

        # A fresh store per algorithm: a PLI another algorithm memoized
        # would answer the check before the sample is consulted.
        assert tane_on_relation(relation, store=PliStore()).fds == fds, (
            f"{tag}: tane FDs"
        )

        result = fun_on_relation(relation, store=PliStore())
        assert result.fds == fds, f"{tag}: fun FDs"
        assert sorted(result.minimal_uccs) == uccs, f"{tag}: fun UCCs"

        result = ducc_on_relation(
            relation, rng=random.Random(0), store=PliStore()
        )
        assert sorted(result.minimal_uccs) == uccs, f"{tag}: ducc UCCs"

        store = PliStore()
        assert spider_on_relation(relation, store=store) == naive_inds(
            relation
        ), f"{tag}: spider INDs"
        # SPIDER's value probes read value lists: no row sample is drawn.
        assert not _assert_sample_is_partial(store, relation)


@pytest.mark.parametrize("batch", range(N_BATCHES))
def test_profilers_identical_with_and_without_sampling(batch: int) -> None:
    rng = random.Random(SEED - 1 - batch)
    for index in range(RELATIONS_PER_BATCH):
        tag = f"diffprof[{batch}.{index}]"
        relation = _tall_relation(rng, tag)
        fds, uccs = naive_fds(relation), naive_uccs(relation)
        inds = naive_inds(relation)
        for name, profiler in (("muds", Muds()), ("hfun", HolisticFun())):
            result = profiler.profile(relation)
            consulted = _assert_sample_is_partial(profiler.store, relation)
            # DUCC consults the sample on every input; FUN only for free
            # sets of at least 4 * MAX_ROWS clustered rows.
            assert consulted or name == "hfun", f"{tag}: {name} sample"
            assert fds_as_pairs(result, relation) == fds, f"{tag}: {name}"
            assert uccs_as_masks(result, relation) == uccs, f"{tag}: {name}"
            assert inds_as_pairs(result, relation) == inds, f"{tag}: {name}"


def test_ind_probes_clear_only_non_inds() -> None:
    """Every pair the value-probe prefilter clears is a non-IND, whatever
    the probe count; probing every value clears exactly the non-INDs."""
    rng = random.Random(SEED + 99)
    for index in range(100):
        relation = random_relation(rng, f"probe[{index}]", max_columns=6)
        n = relation.n_columns
        value_lists = [
            sorted({canonical_value(v) for v in relation.column(c)})
            for c in range(n)
        ]
        pairs = {(d, r) for d in range(n) for r in range(n) if d != r}
        non_inds = pairs - set(naive_inds(relation))
        widest = max(map(len, value_lists))
        for probes in (1, 2, max(widest, 1)):
            refs, _, refuted = probe_ind_refs(value_lists, probes, index)
            cleared = {(d, r) for d, r in pairs if not refs[d] >> r & 1}
            assert cleared <= non_inds, f"probe[{index}]: {probes} probes"
            assert refuted == len(cleared)
            if probes >= widest:
                assert cleared == non_inds, f"probe[{index}]: every value"
