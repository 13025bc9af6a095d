"""FUN: level-wise functional dependency discovery (§2.3).

Novelli & Cicchetti's FUN walks the attribute lattice bottom-up but
materializes only *free sets* — column combinations whose cardinality
strictly exceeds every proper subset's (Definition 1).  Minimal FD
left-hand sides are always free sets, so non-free combinations can be
dropped wholesale; unique free sets (the minimal UCCs, Lemma 3) are
key-pruned because no proper superset of a key can carry a minimal FD.

Where the original FUN avoids PLI intersections for pruned sets by a
recursive cardinality look-up, this implementation reaches the same goal
more directly: right-hand sides are validated through partition refinement
against per-column value vectors (Lemma 1 as an equality test), so PLIs
are built exactly once per free set and never for pruned combinations.

FUN's free-set traversal necessarily visits every minimal UCC (Lemma 3);
:func:`fun` therefore returns them as well, which is all that *Holistic
FUN* (§3.2) adds on top of the shared input pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..guard import BudgetExceeded, checkpoint
from ..lattice.lattice import apriori_gen
from ..pli.index import RelationIndex
from ..pli.pli import PLI
from ..pli.store import PliStore
from ..relation.columnset import bit, direct_subsets, full_mask, iter_bits
from ..relation.relation import Relation
from ..sampling.harvester import MAX_ROWS

__all__ = ["fun", "fun_on_relation", "FunResult"]


@dataclass(slots=True)
class FunResult:
    """Output of a FUN run."""

    #: Minimal non-trivial FDs as ``(lhs_mask, rhs_index)``.
    fds: list[tuple[int, int]]
    #: Minimal UCCs encountered as unique free sets (Lemma 3 guarantees
    #: this is the complete set).
    minimal_uccs: list[int]
    #: Number of refinement (FD validity) checks performed.
    fd_checks: int
    #: Number of PLI intersections performed.
    intersections: int
    #: Number of free sets materialized (traversal footprint).
    free_sets: int


def fun(index: RelationIndex) -> FunResult:
    """Discover all minimal FDs (and minimal UCCs) of the indexed relation.

    Left-hand sides start at lattice level 1, matching the paper: FDs with
    an empty left-hand side (constant columns) are not emitted; their
    single-column consequences (``B → A`` for constant ``A``) are.
    """
    n = index.n_columns
    n_rows = index.n_rows
    universe = full_mask(n)
    fds: list[tuple[int, int]] = []
    uccs: list[int] = []
    fd_checks = 0
    intersections = 0
    free_sets = 0

    vectors = [index.vector(column) for column in range(n)]
    # Stage-1 refutation seam.  FUN's level PLIs are level-local (never in
    # the shared cache), so the sample is consulted directly, one batched
    # query per free set: a refuted rhs skips the refinement scan
    # entirely.  Because FUN validates by refinement (early-abort probe
    # scans), a sample query only pays for itself when the free set's
    # clustered rows dwarf the sample — hence the per-node cost gate
    # below, plus a permanent cutoff after the first consulted level that
    # yields no refutations (sample groupings only refine toward empty as
    # lhs masks grow).
    planner = index.planner
    consult_sample = True
    # A refuted rhs skips a scan of up to n_clustered_rows probe entries;
    # the sample query costs up to MAX_ROWS per rhs.  Demand a 4x margin
    # so early-aborting exact scans still lose to the sample on average.
    consult_floor = 4 * MAX_ROWS
    # Current level of free sets: mask -> PLI.
    level: dict[int, PLI] = {bit(c): index.column_pli(c) for c in range(n)}
    cards: dict[int, int] = {mask: pli.distinct_count for mask, pli in level.items()}
    # Closures of the previous level (level 0 determines nothing, as the
    # lattice starts at level 1).
    closures_prev: dict[int, int] = {}

    level_number = 1
    ckpt = _ckpt.ACTIVE
    if ckpt is not None:
        state = ckpt.resume("fun")
        if state is not None:
            # The frontier dict's iteration order is semantic (apriori_gen
            # walks it), so it round-trips as an ordered pair list, never
            # sorted.  ``consult_sample`` carries the zero-yield cutoff
            # across the kill.
            level_number = state["level"]
            level = {
                mask: _ckpt.pli_from_state(pli)
                for mask, pli in _ckpt.mask_dict(state["frontier"]).items()
            }
            cards = _ckpt.mask_dict(state["cards"])
            closures_prev = _ckpt.mask_dict(state["closures_prev"])
            fds = [tuple(fd) for fd in state["fds"]]
            uccs = list(state["uccs"])
            fd_checks = state["fd_checks"]
            intersections = state["intersections"]
            free_sets = state["free_sets"]
            consult_sample = state["consult_sample"]
    try:
        while level:
            tracer = _trace.ACTIVE
            level_span = (
                tracer.span("fun.level", level=level_number, free_sets=len(level))
                if tracer is not None
                else _trace.NULL_SPAN
            )
            level_span.__enter__()
            checks_before = fd_checks
            fds_before = len(fds)
            free_sets += len(level)
            closures_cur: dict[int, int] = {}
            keys: set[int] = set()
            level_refuted = 0
            level_consulted = False
            for mask, pli in level.items():
                checkpoint()
                determined = 0
                rhs_mask = universe & ~mask
                refuted = 0
                if consult_sample and pli.n_clustered_rows >= consult_floor:
                    level_consulted = True
                    refuted = planner.refuted_rhs(mask, rhs_mask)
                    level_refuted += refuted.bit_count()
                for rhs in iter_bits(rhs_mask):
                    fd_checks += 1
                    if refuted >> rhs & 1:
                        continue
                    if pli.refines(vectors[rhs]):
                        determined |= bit(rhs)
                closures_cur[mask] = determined
                inherited = 0
                for sub in direct_subsets(mask):
                    if sub:
                        inherited |= closures_prev.get(sub, 0)
                for rhs in iter_bits(determined & ~inherited):
                    fds.append((mask, rhs))
                if cards[mask] == n_rows:
                    # Unique free set == minimal UCC (Lemma 3); key pruning.
                    uccs.append(mask)
                    keys.add(mask)

            survivors = [mask for mask in level if mask not in keys]
            candidates = apriori_gen(survivors)
            next_level: dict[int, PLI] = {}
            next_cards: dict[int, int] = {}
            for candidate in candidates:
                checkpoint()
                high = 1 << (candidate.bit_length() - 1)
                parent = candidate ^ high
                pli = level[parent].intersect(
                    index.column_pli(high.bit_length() - 1)
                )
                intersections += 1
                card = pli.distinct_count
                # Free iff strictly more distinct combinations than every
                # direct subset (Definition 1).
                if all(cards[sub] < card for sub in direct_subsets(candidate)):
                    next_level[candidate] = pli
                    next_cards[candidate] = card
            level_span.set(
                candidates_generated=len(candidates),
                pruned_keys=len(keys),
                pruned_nonfree=len(candidates) - len(next_level),
                validated=fd_checks - checks_before,
                fds_found=len(fds) - fds_before,
            )
            level_span.__exit__(None, None, None)
            # Sample groupings only refine (toward empty) as lhs masks
            # grow, so a consulted level with zero refutations marks the
            # point where consulting costs more than the refinement scans
            # it could skip; stop for the rest of the lattice.  Levels
            # where the cost gate skipped every node don't count — they
            # say nothing about the sample's remaining power.
            if consult_sample and level_consulted and level_refuted == 0:
                consult_sample = False
            closures_prev = closures_cur
            level = next_level
            cards = next_cards
            level_number += 1
            if ckpt is not None:
                ckpt.boundary(
                    "fun",
                    {
                        "level": level_number,
                        "frontier": _ckpt.mask_items(
                            {m: _ckpt.pli_state(p) for m, p in level.items()}
                        ),
                        "cards": _ckpt.mask_items(cards),
                        "closures_prev": _ckpt.mask_items(closures_prev),
                        "fds": fds,
                        "uccs": uccs,
                        "fd_checks": fd_checks,
                        "intersections": intersections,
                        "free_sets": free_sets,
                        "consult_sample": consult_sample,
                    },
                )
    except BudgetExceeded as error:
        level_span.__exit__(None, None, None)
        # FDs/UCCs emitted before the budget ran out are sound (minimal
        # per the levels completed); attach them for graceful degradation.
        error.partial = FunResult(
            fds=sorted(fds),
            minimal_uccs=sorted(uccs),
            fd_checks=fd_checks,
            intersections=intersections,
            free_sets=free_sets,
        )
        raise

    fds.sort()
    uccs.sort()
    return FunResult(
        fds=fds,
        minimal_uccs=uccs,
        fd_checks=fd_checks,
        intersections=intersections,
        free_sets=free_sets,
    )


def fun_on_relation(relation: Relation, store: PliStore | None = None) -> FunResult:
    """FUN over the shared PLI store (a private store when omitted)."""
    return fun((store if store is not None else PliStore()).index_for(relation))
