"""Delta-PLI maintenance: fold an append batch into existing partitions.

Appending rows to a relation can only *grow* a stripped partition —
existing clusters gain rows or new clusters are born; no cluster ever
shrinks or splits.  This module exploits that monotonicity to maintain a
single-column PLI in ``O(batch + affected clusters)`` instead of
regrouping all ``n`` rows:

* :class:`ColumnDelta` keeps, per dictionary code (= dense value id),
  the running occurrence count and the first row the code appeared in.
  Because codes are assigned in first-seen order, the canonical cluster
  position of an existing code's cluster is simply the number of smaller
  codes with count ≥ 2 — rank arithmetic replaces a full re-sort.
* :func:`merge_column` extends the affected clusters in place (batch row
  ids are all larger than existing ids, so sortedness is free), births
  clusters for values reaching multiplicity two, and merges the born
  clusters into the canonical order with one linear pass.

The merge also reports the batch rows that *can* pair up on the column
(their value existed before, or recurs within the batch).  Composite
PLIs are perturbed only when the per-column perturbed sets intersect
over all of the composite's columns — a new agreeing pair on a column
set must put some batch row into every member column's perturbed set —
so a batch that only touches disjoint columns leaves the composite
cache intact (the sizes are re-wrapped for the new row count).
Perturbed composites are not rebuilt either: they are deferred, and on
their next request :func:`merge_composite` folds the jointly-perturbed
batch rows into the old composite clusters directly — grouping them by
member-code tuple, matching groups against cluster representatives, and
resolving old-singleton partners by scanning the smallest per-column
collider set — falling back to a full rebuild only when that scan would
approach a full pass anyway.  Deferring (instead of merging eagerly at
append time) matters because a warm cache holds far more composites
than any one re-validation pass touches.

Counter accounting: every merge bumps ``KERNEL_STATS.delta_merges`` and
charges ``delta_reclustered_rows`` with the rows it actually moved, so
benchmarks can prove the work is proportional to the batch, not the
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .. import trace as _trace
from .pli import KERNEL_STATS, PLI

__all__ = ["AppendDelta", "ColumnDelta", "merge_column", "merge_composite"]


class ColumnDelta:
    """Per-column occurrence state carried across appends.

    ``counts[code]`` is how many rows hold ``code`` so far and
    ``first_rows[code]`` the first row that held it.  The value-to-code
    map lives in the column's
    :class:`~repro.relation.encoded.EncodedColumn`.
    """

    __slots__ = ("counts", "first_rows")

    def __init__(self, counts: list[int], first_rows: list[int]):
        self.counts = counts
        self.first_rows = first_rows

    @classmethod
    def from_codes(cls, codes: Sequence[int], n_codes: int) -> "ColumnDelta":
        """Seed the state with one pass over a column's existing codes."""
        counts = [0] * n_codes
        first_rows = [0] * n_codes
        for row, code in enumerate(codes):
            if counts[code] == 0:
                first_rows[code] = row
            counts[code] += 1
        return cls(counts, first_rows)


@dataclass(slots=True)
class AppendDelta:
    """What one append batch did to a relation's PLI substrate."""

    #: Row count before / after the batch.
    old_n_rows: int
    new_n_rows: int
    #: First pre-append occurrence of each batch value that existed
    #: before — the "collision partners" the refutation sample adds to
    #: the appended rows.
    partner_rows: tuple[int, ...] = ()
    #: Per column: the batch rows that can join an agreeing pair on that
    #: column (value existed before or recurs within the batch).
    perturbed: list[set[int]] = field(default_factory=list)
    #: Per column: values first seen in this batch (raw, in first-seen
    #: order) — the seed of the incremental IND re-validation merge.
    new_values: list[list[Any]] = field(default_factory=list)
    #: Composite cache entries kept (re-wrapped) vs. deferred to a lazy
    #: delta-merge on their next request (an unrequested deferral lapses
    #: at the next append).
    kept_composites: int = 0
    deferred_composites: int = 0

    @property
    def batch_rows(self) -> range:
        return range(self.old_n_rows, self.new_n_rows)


def merge_column(
    pli: PLI,
    delta: ColumnDelta,
    batch_codes: Sequence[int],
    batch_start: int,
    new_n_rows: int,
) -> tuple[PLI, set[int], set[int], dict[int, tuple[int, ...]]]:
    """Fold one batch of codes into a single-column PLI.

    ``batch_codes[k]`` is the dense value id of row ``batch_start + k``.
    Advances ``delta`` in place and returns ``(new_pli, perturbed,
    partners, colliders)`` where ``perturbed`` holds the batch rows that
    can pair up on this column, ``partners`` the first pre-append row of
    every batch value that already existed, and ``colliders`` maps each
    such value's code to *all* its pre-append rows (the candidate pool
    :func:`merge_composite` scans for old-singleton partners).

    The returned PLI is canonical by construction: batch row ids exceed
    every existing id, so extending a cluster keeps it sorted and keeps
    its canonical position (its minimum is unchanged); born clusters are
    merged in by smallest row id with one linear pass.
    """
    counts = delta.counts
    first_rows = delta.first_rows
    groups: dict[int, list[int]] = {}
    for offset, code in enumerate(batch_codes):
        rows = groups.get(code)
        if rows is None:
            groups[code] = [batch_start + offset]
        else:
            rows.append(batch_start + offset)

    n_known = len(counts)
    # Canonical positions of the clusters being extended: codes ascend in
    # first-seen order, so cluster position == rank among codes with
    # count >= 2.  One bounded scan computes every needed rank.
    extending = sorted(
        code for code in groups if code < n_known and counts[code] >= 2
    )
    rank_of: dict[int, int] = {}
    if extending:
        rank = 0
        targets = iter(extending)
        target = next(targets)
        for code in range(extending[-1] + 1):
            if code == target:
                rank_of[code] = rank
                target = next(targets, -1)
            if counts[code] >= 2:
                rank += 1

    clusters = list(pli.clusters)
    born: list[tuple[int, ...]] = []
    perturbed: set[int] = set()
    partners: set[int] = set()
    colliders: dict[int, tuple[int, ...]] = {}
    reclustered = 0
    for code, new_rows in groups.items():
        count = counts[code] if code < n_known else 0
        if count >= 2:
            position = rank_of[code]
            colliders[code] = pli.clusters[position]
            clusters[position] = clusters[position] + tuple(new_rows)
            reclustered += len(new_rows)
            perturbed.update(new_rows)
            partners.add(first_rows[code])
        elif count == 1:
            colliders[code] = (first_rows[code],)
            born.append((first_rows[code], *new_rows))
            reclustered += len(new_rows) + 1
            perturbed.update(new_rows)
            partners.add(first_rows[code])
        elif len(new_rows) >= 2:
            born.append(tuple(new_rows))
            reclustered += len(new_rows)
            perturbed.update(new_rows)
        # count == 0 with a single batch row: a brand-new singleton value,
        # stripped from the partition and unable to pair with anything.

    # Advance the occurrence state.
    for code, new_rows in groups.items():
        if code >= len(counts):
            counts.extend([0] * (code + 1 - len(counts)))
            first_rows.extend([0] * (code + 1 - len(first_rows)))
        if counts[code] == 0:
            first_rows[code] = new_rows[0]
        counts[code] += len(new_rows)

    if born:
        born.sort()
        clusters = _merge_canonical(clusters, born)
    merged = PLI._from_canonical(tuple(clusters), new_n_rows)

    KERNEL_STATS.delta_merges += 1
    KERNEL_STATS.delta_reclustered_rows += reclustered
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.count("pli.delta_merges")
        tracer.count("pli.delta_reclustered_rows", reclustered)
    return merged, perturbed, partners, colliders


def merge_composite(
    pli: PLI,
    columns: Sequence[int],
    vectors: Sequence[Sequence[int]],
    joint_rows: Sequence[int],
    colliders: Sequence[dict[int, tuple[int, ...]]],
    new_n_rows: int,
) -> PLI | None:
    """Fold a batch into a composite PLI without touching old rows.

    ``joint_rows`` are the (ascending) batch rows perturbed on *every*
    member column — the only rows that can enter an agreeing pair on the
    column set.  They are grouped by member-code tuple; a group either
    extends the old cluster whose representative shares its tuple, pairs
    with at most one old singleton (two matching old rows would already
    have been a cluster), or forms a cluster among themselves.

    The singleton search scans the smallest per-column collider set of
    the group (``colliders[column][code]`` = the pre-append rows of a
    batch-colliding value).  Its total cost is budgeted at a fraction of
    a full pass; beyond that ``None`` is returned and the caller falls
    back to the chained-intersection rebuild — the worst case stays a
    rebuild, never a rebuild plus a completed wasted scan.
    """
    member_vectors = [vectors[column] for column in columns]
    groups: dict[tuple[int, ...], list[int]] = {}
    for row in joint_rows:
        key = tuple(vector[row] for vector in member_vectors)
        rows = groups.get(key)
        if rows is None:
            groups[key] = [row]
        else:
            rows.append(row)

    clusters = list(pli.clusters)
    rep_position: dict[tuple[int, ...], int] = {}
    for position, cluster in enumerate(clusters):
        rep = cluster[0]
        rep_position[
            tuple(vector[rep] for vector in member_vectors)
        ] = position

    budget = pli.n_rows // 4 + 64
    born: list[tuple[int, ...]] = []
    reclustered = 0
    for key, rows in groups.items():
        position = rep_position.get(key)
        if position is not None:
            clusters[position] = clusters[position] + tuple(rows)
            reclustered += len(rows)
            continue
        candidates: tuple[int, ...] | None = None
        for member, code in enumerate(key):
            old_rows = colliders[columns[member]].get(code)
            if old_rows is None:
                # The value is batch-born on this column: no old row can
                # share the full tuple.
                candidates = ()
                break
            if candidates is None or len(old_rows) < len(candidates):
                candidates = old_rows
        partner = -1
        if candidates:
            budget -= len(candidates)
            if budget < 0:
                return None
            for old_row in candidates:
                if all(
                    vector[old_row] == code
                    for vector, code in zip(member_vectors, key)
                ):
                    partner = old_row
                    break
        if partner >= 0:
            born.append((partner, *rows))
            reclustered += len(rows) + 1
        elif len(rows) >= 2:
            born.append(tuple(rows))
            reclustered += len(rows)
        # A lone batch row with no partner stays a stripped singleton.

    if born:
        born.sort()
        clusters = _merge_canonical(clusters, born)
    merged = PLI._from_canonical(tuple(clusters), new_n_rows)

    KERNEL_STATS.delta_merges += 1
    KERNEL_STATS.delta_reclustered_rows += reclustered
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.count("pli.delta_merges")
        tracer.count("pli.delta_reclustered_rows", reclustered)
    return merged


def _merge_canonical(
    clusters: list[tuple[int, ...]], born: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Merge two smallest-row-ordered cluster lists into one."""
    merged: list[tuple[int, ...]] = []
    i = j = 0
    while i < len(clusters) and j < len(born):
        if clusters[i][0] <= born[j][0]:
            merged.append(clusters[i])
            i += 1
        else:
            merged.append(born[j])
            j += 1
    merged.extend(clusters[i:])
    merged.extend(born[j:])
    return merged
