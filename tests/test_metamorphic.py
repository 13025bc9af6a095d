"""Metamorphic invariants of the discovery algorithms.

Minimal FDs, minimal UCCs, and unary INDs are properties of the *set* of
tuples and of the *named* columns — not of row order, column order, or
tuple multiplicity (except UCCs, which duplicates destroy completely).
This suite generates ~150 seeded random relations (stdlib ``random``; no
hypothesis shrinking needed because every case is already tiny and its
seed is printed in the test id) and checks, for all six algorithms:

* row permutation leaves every result unchanged;
* column permutation leaves every result unchanged modulo the index
  relabeling (comparing name-based signatures makes this automatic);
* duplicate-row injection leaves FDs and INDs unchanged and makes the
  minimal-UCC set empty (no column combination distinguishes two equal
  rows — the reason the pipeline's §3 preprocessing dedups first);
* the base relation's results agree with the brute-force oracle
  (:mod:`repro.algorithms.naive`).

Every case runs in both storage modes: each relation's columns are
encoded in memory (the default, plain test ids) or spilled to mmap
files (ids prefixed ``mmap-``) before the algorithms see it.

Each algorithm is compared on the metadata it actually discovers:
MUDS and Holistic FUN on all three kinds, TANE on FDs, FUN on FDs and
UCCs, DUCC on UCCs, SPIDER on unary INDs, both through the shared index
and across relations (``spider_across`` over the one relation).
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.ducc import ducc_on_relation
from repro.algorithms.fun import fun_on_relation
from repro.algorithms.naive import naive_fds, naive_inds, naive_uccs
from repro.algorithms.spider import spider_across, spider_on_relation
from repro.algorithms.tane import tane_on_relation
from repro.core.holistic_fun import HolisticFun
from repro.core.muds import Muds
from repro.metadata.results import fd_signature, ucc_signature
from repro.relation.relation import Relation

from .conftest import (
    encoded_in,
    inject_duplicates as _inject_duplicates,
    permute_columns as _permute_columns,
    permute_rows as _permute_rows,
    random_relation,
    storage_params,
)

SEED = 20160315  # EDBT 2016; fixed so CI failures reproduce locally
N_BATCHES = 10
RELATIONS_PER_BATCH = 15


# -- name-based signatures ---------------------------------------------------
#
# Mask/index outputs are translated to column *names* before comparison.
# Names travel with their columns under permutation, so "invariant modulo
# index relabeling" becomes plain equality of these signatures.


def _names_of(mask: int, names: tuple[str, ...]) -> frozenset[str]:
    return frozenset(
        names[i] for i in range(len(names)) if (mask >> i) & 1
    )


def _fd_sig(pairs, names):
    return frozenset((_names_of(lhs, names), names[rhs]) for lhs, rhs in pairs)


def _ucc_sig(masks, names):
    return frozenset(_names_of(mask, names) for mask in masks)


def _ind_sig(pairs, names):
    return frozenset((names[dep], names[ref]) for dep, ref in pairs)


def _signatures(relation: Relation) -> dict[str, frozenset]:
    """Run all six algorithms; name-based signatures keyed ``alg.kind``."""
    sigs: dict[str, frozenset] = {}
    for alg, profiler in (("muds", Muds(seed=0)), ("hfun", HolisticFun())):
        result = profiler.profile(relation)
        sigs[f"{alg}.fds"] = fd_signature(result.fds)
        sigs[f"{alg}.uccs"] = ucc_signature(result.uccs)
        sigs[f"{alg}.inds"] = frozenset(
            (ind.dependent, ind.referenced) for ind in result.inds
        )
    names = relation.column_names
    sigs["tane.fds"] = _fd_sig(tane_on_relation(relation).fds, names)
    fun_result = fun_on_relation(relation)
    sigs["fun.fds"] = _fd_sig(fun_result.fds, names)
    sigs["fun.uccs"] = _ucc_sig(fun_result.minimal_uccs, names)
    sigs["ducc.uccs"] = _ucc_sig(
        ducc_on_relation(relation, rng=random.Random(0)).minimal_uccs, names
    )
    sigs["spider.inds"] = _ind_sig(spider_on_relation(relation), names)
    sigs["spider_across.inds"] = _ind_sig(
        [(dep[1], ref[1]) for dep, ref in spider_across([relation])], names
    )
    return sigs


def _oracle(relation: Relation) -> dict[str, frozenset]:
    names = relation.column_names
    return {
        "fds": _fd_sig(naive_fds(relation), names),
        "uccs": _ucc_sig(naive_uccs(relation), names),
        "inds": _ind_sig(naive_inds(relation), names),
    }


# -- the suite ---------------------------------------------------------------
#
# The generators live in tests/conftest.py (random_relation,
# permute_rows/permute_columns/inject_duplicates), shared with the
# sampling-differential suite.


@pytest.mark.parametrize("batch, storage", storage_params(range(N_BATCHES)))
def test_metamorphic_invariants(batch: int, storage: str) -> None:
    rng = random.Random(SEED + batch)

    def signatures(relation: Relation) -> dict[str, frozenset]:
        return _signatures(encoded_in(relation, storage))

    for index in range(RELATIONS_PER_BATCH):
        tag = f"meta[{batch}.{index}]"
        relation = random_relation(rng, tag)
        base = signatures(relation)

        # Oracle agreement on the base relation.
        oracle = _oracle(relation)
        for key, sig in base.items():
            kind = key.split(".", 1)[1]
            assert sig == oracle[kind], (
                f"{tag}: {key} disagrees with the naive oracle"
            )

        # Row permutation: everything invariant.
        permuted = signatures(_permute_rows(relation, rng))
        assert permuted == base, f"{tag}: results changed under row permutation"

        # Column permutation: invariant modulo relabeling (name signatures).
        relabeled = signatures(_permute_columns(relation, rng))
        assert relabeled == base, (
            f"{tag}: results changed under column permutation"
        )

        # Duplicate rows: FDs and INDs invariant, minimal UCCs vanish.
        if relation.n_rows:
            duplicated = signatures(_inject_duplicates(relation, rng))
            for key, sig in duplicated.items():
                kind = key.split(".", 1)[1]
                if kind == "uccs":
                    assert sig == frozenset(), (
                        f"{tag}: {key} nonempty despite duplicate rows"
                    )
                else:
                    assert sig == base[key], (
                        f"{tag}: {key} changed under duplicate injection"
                    )


# -- append-split invariance -------------------------------------------------
#
# Feeding a relation as one base plus k-1 append batches through the
# incremental profiler is just another way of *presenting* the same set
# of tuples, so the maintained catalog must be canonically identical to
# the whole-relation profile for every split — including k=1 (a plain
# base profile through the incremental dispatch).


@pytest.mark.parametrize("k, storage", storage_params([1, 2, 5]))
def test_append_split_is_metamorphic_identity(k: int, storage: str) -> None:
    from repro.incremental import IncrementalProfiler
    from repro.metadata.serialize import canonical_metadata_dumps

    rng = random.Random(SEED + 977 * k)
    for index in range(12):
        tag = f"split[{k}.{index}]"
        relation = random_relation(rng, tag, max_rows=14)
        rows = list(relation.iter_rows())
        names = list(relation.column_names)
        whole = IncrementalProfiler(algorithm="muds", seed=0).profile_base(
            encoded_in(Relation.from_rows(names, rows, name=tag), storage)
        )
        chunk = -(-len(rows) // k) if rows else 1
        batches = [rows[i * chunk : (i + 1) * chunk] for i in range(k)]
        grown = encoded_in(Relation.from_rows(names, batches[0], name=tag), storage)
        profiler = IncrementalProfiler(algorithm="muds", seed=0)
        result = profiler.profile_base(grown)
        for batch in batches[1:]:
            result = profiler.maintain(grown, batch, result)
        assert canonical_metadata_dumps(result) == canonical_metadata_dumps(
            whole
        ), f"{tag}: k={k} append split changed the catalog"
