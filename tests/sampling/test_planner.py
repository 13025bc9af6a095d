"""ValidationPlanner: lazy harvest, intersection savings, deadline guard."""

from __future__ import annotations

import pytest

from repro import trace
from repro.core.holistic_fun import HolisticFun
from repro.core.muds import Muds
from repro.datasets.generators import uniprot_like
from repro.guard import Budget, guarded
from repro.pli.index import RelationIndex
from repro.pli.store import PliStore
from repro.relation.relation import Relation
from repro.sampling import ValidationPlanner

from ..conftest import fds_as_pairs, inds_as_pairs, uccs_as_masks
from ..oracles import naive_fds, naive_inds, naive_uccs


def _relation() -> Relation:
    return uniprot_like(200, seed=2)


def _bypassed(index: RelationIndex) -> RelationIndex:
    """``index`` with its planner on the exact-only bypass path: asked
    for its sample under a nearly spent deadline, the planner refuses to
    harvest, for good."""
    with guarded(Budget(deadline_seconds=0.09, checkpoint_stride=1_000_000)):
        assert index.planner.refutation() is None
    return index


def test_planner_is_lazy_and_harvests_once():
    index = RelationIndex(_relation())
    planner = index.planner
    assert planner.harvest_rows == 0  # nothing until the first query
    first = planner.refutation()
    assert first is not None
    assert planner.harvest_rows == first.n_rows > 0
    assert planner.refutation() is first


def test_index_planner_pair_frees_by_refcount_alone():
    """The planner's back-reference is weak, so dropping the last
    reference to an index reclaims it immediately — no collector pass.

    Per-pair profiling sweeps build one fresh index per column pair;
    under encoded storage so few Python objects are allocated that
    automatic gc passes are rare, and a strong index<->planner cycle
    would pin every pair's column PLIs (and their kernel arrays) until
    one ran — gigabytes over a large sweep."""
    import gc
    import weakref

    index = RelationIndex(_relation())
    ref = weakref.ref(index)
    gc.disable()
    try:
        del index
        assert ref() is None
    finally:
        gc.enable()


def test_planner_reports_a_collected_index():
    """A standalone planner that outlives its index fails loudly, not
    with a dangling reference."""
    planner = ValidationPlanner(RelationIndex(_relation()))
    with pytest.raises(ReferenceError):
        planner.index


def test_refutations_save_intersections():
    relation = _relation()
    sampled = RelationIndex(relation)
    exact = _bypassed(RelationIndex(relation))
    on = Muds(seed=0, store=_store_of(sampled)).profile(relation)
    off = Muds(seed=0, store=_store_of(exact)).profile(relation)
    assert on.same_metadata(off)
    assert exact.planner.stats()["sampling_exact_avoided"] == 0
    planner = sampled.planner
    assert planner.fd_refuted + planner.ucc_refuted + planner.ind_refuted > 0
    assert sampled.intersections < exact.intersections
    stats = planner.stats()
    assert stats["sampling_exact_avoided"] == (
        planner.fd_refuted + planner.ucc_refuted + planner.ind_refuted
    )
    # The counters surface through the kernel-counter seam too.
    assert sampled.kernel_counters()["sampling_exact_avoided"] > 0


def _store_of(index: RelationIndex) -> PliStore:
    """A store pre-seeded with one already-built index."""
    store = PliStore()
    store._indexes[index.relation.fingerprint()] = (index.relation, index)
    return store


def test_deadline_guard_bypasses_harvest():
    """With less deadline left than min_harvest_seconds, the planner must
    refuse to harvest and pass everything to the exact path — sampling
    never turns an ok run into a timeout."""
    # 0.09s remaining < the 0.1s floor: deterministically below the bar.
    index = _bypassed(RelationIndex(_relation()))
    assert index.planner.bypassed
    assert index.planner.stats()["sampling_bypassed"] == 1
    # Bypassed is permanent for this planner: exact path everywhere,
    # including outside the budget scope.
    assert not index.planner.refutes_fd(1, 1)
    assert not index.planner.refutes_ucc(1)
    assert index.planner.refuted_rhs(1, 6) == 0
    assert index.planner.prefilter_ind_refs([["a"], ["b"]]) is None


def test_tight_deadline_profile_matches_unbudgeted_results():
    """End to end: a sampled profile under a nearly-spent deadline still
    completes (the tiny input needs far less than the deadline) and its
    metadata matches the brute-force oracle."""
    relation = uniprot_like(60, seed=5)
    with guarded(Budget(deadline_seconds=30.0)):
        budgeted = Muds(seed=0).profile(relation)
    assert fds_as_pairs(budgeted, relation) == naive_fds(relation)
    assert uccs_as_masks(budgeted, relation) == naive_uccs(relation)
    assert inds_as_pairs(budgeted, relation) == naive_inds(relation)


def test_no_budget_means_no_bypass():
    index = RelationIndex(_relation())
    assert index.planner.refutation() is not None
    assert not index.planner.bypassed


def test_prefilter_clears_refuted_pairs_only():
    # The planner holds its index weakly (the index owns the planner in
    # normal use), so a standalone planner needs the index kept alive.
    index = RelationIndex(_relation())
    planner = ValidationPlanner(index)
    values = [["a", "b"], ["a", "b", "c"], ["z"]]
    refs = planner.prefilter_ind_refs(values)
    assert refs is not None
    # Column 0 ⊆ column 1 survives; everything involving column 2's
    # disjoint values is refuted.
    assert refs[0] >> 1 & 1
    assert not refs[0] >> 2 & 1
    assert not refs[1] >> 0 & 1  # "c" missing from column 0
    assert not refs[2] >> 0 & 1 and not refs[2] >> 1 & 1
    assert planner.ind_refuted > 0


def test_ind_prefilter_alone_harvests_nothing():
    """SPIDER's value probes read value lists, not rows: a profile whose
    FD and UCC phases never consult the sample harvests none."""
    counters = HolisticFun().profile(uniprot_like(400, seed=0)).counters
    assert counters["sampling_rows"] == 0
    assert counters["sampling_fd_queries"] == 0
    assert counters["sampling_ucc_queries"] == 0
    assert counters["sampling_ind_queries"] == 90
    assert counters["sampling_ind_refuted"] == 90


def test_sample_harvested_once_on_first_fd_query():
    tracer = trace.enable()
    try:
        counters = HolisticFun().profile(uniprot_like(600, n_columns=6)).counters
    finally:
        trace.disable()
    harvests = [
        record
        for record in tracer.events
        if record["name"] == "sampling.harvest" and record["type"] == "end"
    ]
    assert len(harvests) == 1
    assert counters["sampling_rows"] > 0
    assert counters["sampling_fd_queries"] > 0


def test_batched_refuted_rhs_counts_per_candidate():
    """The batched FD query must account queries/refutations per rhs bit,
    matching what the equivalent per-rhs queries would have recorded."""
    index = RelationIndex(_relation())
    planner = index.planner
    universe = (1 << index.n_columns) - 1
    refuted = planner.refuted_rhs(1, universe)
    assert refuted & 1 == 0  # trivial rhs never refuted
    assert planner.fd_queries == index.n_columns - 1
    assert planner.fd_refuted == refuted.bit_count()
    # The batched answer coincides with the per-rhs query path.
    per_rhs = [
        rhs
        for rhs in range(1, index.n_columns)
        if planner.refutes_fd(1, rhs)
    ]
    assert refuted == sum(1 << rhs for rhs in per_rhs)
