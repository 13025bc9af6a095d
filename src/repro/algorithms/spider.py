"""SPIDER: unary inclusion dependency discovery (§2.1, Table 1).

Bauckmann et al.'s SPIDER runs in two phases.  The *sorting phase* turns
every column into a sorted, duplicate-free value list.  The *comparison
phase* sweeps all lists simultaneously in value order: at each step the
group of attributes sharing the current smallest value can only be included
in one another, so each member's referenced-candidate set is intersected
with the group.  Attributes whose list is exhausted drop out; what remains
of each candidate set at the end are the valid INDs.

In the holistic setting (§3) the duplicate-free value lists come for free
from the value→positions grouping performed during PLI construction, which
is why :func:`spider` consumes a :class:`~repro.pli.index.RelationIndex`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..guard import checkpoint
from ..pli.index import RelationIndex
from ..pli.store import PliStore
from ..relation.relation import Relation
from ..sampling.harvester import IND_PROBE_VALUES, SEED
from ..sampling.planner import probe_ind_refs
from .values import canonical_value

__all__ = ["spider", "spider_on_relation", "spider_across"]


def _sorted_distinct(values: Iterable) -> list[str]:
    """SPIDER's sorting phase for one column: its duplicate-free values
    (a column dictionary), canonicalized, without NULL, in sorted order."""
    return sorted({canonical_value(v) for v in values if v is not None})


def _merge_candidates(
    sorted_values: list[list[str]],
    initial_refs: list[int] | None = None,
    checkpoint_stage: str | None = None,
) -> list[int]:
    """SPIDER's comparison phase over sorted duplicate-free value lists.

    Returns, per attribute, the bitmask of attributes it can still be
    included in: at every merge step, the group of attributes holding the
    current smallest value can only be included in one another.

    ``initial_refs`` seeds the candidate sets (the sampling prefilter's
    already-refuted pairs); the merge only ever narrows them, so an empty
    seed short-circuits the sweep.

    With ``checkpoint_stage`` set and a checkpoint session active, the
    merge cursor (refs + per-attribute cursors) is saved every
    ``merge_stride`` steps and restored on resume.  The heap is rebuilt
    from the cursors: its pending entries are exactly the ``(value,
    attr)`` pairs at each unexhausted cursor, and a heap pops a fixed
    element set in a unique order, so the replayed sweep is identical.
    """
    n = len(sorted_values)
    all_attrs = (1 << n) - 1
    ckpt = _ckpt.ACTIVE if checkpoint_stage is not None else None
    steps = 0
    state = ckpt.resume(checkpoint_stage) if ckpt is not None else None
    if state is not None:
        refs = list(state["refs"])
        cursors = list(state["cursors"])
        steps = state["steps"]
        heap: list[tuple[str, int]] = [
            (sorted_values[attr][cursors[attr]], attr)
            for attr in range(n)
            if cursors[attr] < len(sorted_values[attr])
        ]
    else:
        if initial_refs is None:
            refs = [all_attrs & ~(1 << attr) for attr in range(n)]
        else:
            refs = list(initial_refs)
            if not any(refs):
                return refs
        cursors = [0] * n
        heap = [
            (values[0], attr) for attr, values in enumerate(sorted_values) if values
        ]
    heapq.heapify(heap)
    while heap:
        # Cooperative guard point per merge step; SPIDER attaches no
        # partial output (candidate sets only converge from above, so a
        # truncated merge would over-report INDs).
        checkpoint()
        smallest = heap[0][0]
        group = 0
        members: list[int] = []
        while heap and heap[0][0] == smallest:
            __, attr = heapq.heappop(heap)
            group |= 1 << attr
            members.append(attr)
        for attr in members:
            refs[attr] &= group & ~(1 << attr)
        for attr in members:
            cursors[attr] += 1
            values = sorted_values[attr]
            if cursors[attr] < len(values):
                heapq.heappush(heap, (values[cursors[attr]], attr))
        steps += 1
        if ckpt is not None and steps % ckpt.merge_stride == 0:
            ckpt.boundary(
                checkpoint_stage,
                {"refs": refs, "cursors": cursors, "steps": steps},
            )
    return refs


def spider(index: RelationIndex) -> list[tuple[int, int]]:
    """Discover all unary INDs; returns ``(dependent, referenced)`` pairs.

    NULLs are ignored (a NULL never violates an inclusion); an all-NULL
    column is therefore included in every other column.
    """
    n = index.n_columns
    # Sorting phase — duplicate-free lists from the shared PLI build.
    with _trace.span("spider.sort", columns=n):
        sorted_values = [
            _sorted_distinct(index.distinct_values(column)) for column in range(n)
        ]
    # Stage 1: sampled value probes against the full referenced sets clear
    # candidate pairs with an exact witness before the merge sweep starts.
    # A resumed merge skips the prefilter: its effect is already embedded
    # in the restored candidate sets.
    ckpt = _ckpt.ACTIVE
    resuming = ckpt is not None and ckpt.resume("spider") is not None
    initial_refs = (
        None if resuming else index.planner.prefilter_ind_refs(sorted_values)
    )
    with _trace.span("spider.merge", columns=n) as merge_span:
        refs = _merge_candidates(sorted_values, initial_refs, checkpoint_stage="spider")
        inds = sorted(
            (dependent, referenced)
            for dependent in range(n)
            for referenced in range(n)
            if dependent != referenced and refs[dependent] >> referenced & 1
        )
        merge_span.set(inds=len(inds))
    return inds


def spider_on_relation(
    relation: Relation, store: PliStore | None = None
) -> list[tuple[int, int]]:
    """SPIDER over the shared PLI store (a private store when omitted)."""
    return spider((store if store is not None else PliStore()).index_for(relation))


def spider_across(
    relations: Sequence[Relation],
    checkpoint_stage: str | None = None,
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Unary INDs across several relations — SPIDER's original setting.

    The holistic algorithms restrict IND discovery to one relation because
    UCCs and FDs are single-relation concepts (§2.1), but SPIDER itself
    merges any set of sorted value lists.  Returns pairs of
    ``(relation_index, column_index)`` locators, dependent first; INDs
    between columns of the *same* relation are included.  Each column's
    value list comes from its dictionary, as in :func:`spider`.

    The seeded value-probe prefilter runs over the *union* of all
    relations' columns.  The probe is pure set membership, so prefiltering
    is an exact refutation step: it only clears pairs a missing value
    disproves.

    With ``checkpoint_stage`` set and a checkpoint session active, the
    merge saves its cursor every ``merge_stride`` steps under that stage
    and a later run resumes from the last saved boundary; a resumed merge
    skips the prefilter, whose effect is already embedded in the restored
    candidate sets (same contract as :func:`spider`).
    """
    locators: list[tuple[int, int]] = []
    sorted_values: list[list[str]] = []
    with _trace.span("spider.sort", relations=len(relations)) as sort_span:
        for relation_index, relation in enumerate(relations):
            for column in range(relation.n_columns):
                locators.append((relation_index, column))
                sorted_values.append(
                    _sorted_distinct(relation.encoding(column).dictionary)
                )
        sort_span.set(columns=len(locators))
    ckpt = _ckpt.ACTIVE if checkpoint_stage is not None else None
    resuming = ckpt is not None and ckpt.resume(checkpoint_stage) is not None
    initial_refs = None
    if not resuming:
        initial_refs, _, _ = probe_ind_refs(
            sorted_values, IND_PROBE_VALUES, SEED
        )
    with _trace.span("spider.merge", columns=len(locators)) as merge_span:
        refs = _merge_candidates(
            sorted_values, initial_refs, checkpoint_stage=checkpoint_stage
        )
        inds = sorted(
            (locators[dependent], locators[referenced])
            for dependent in range(len(locators))
            for referenced in range(len(locators))
            if dependent != referenced and refs[dependent] >> referenced & 1
        )
        merge_span.set(inds=len(inds))
    return inds
