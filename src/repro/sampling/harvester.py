"""Deterministic, focused row sampling for the refutation engine.

The harvester picks the rows most likely to *witness* violations.  A pair
of rows can only violate an FD candidate ``X → A`` (or duplicate a UCC
candidate ``X``) if it agrees on every column of ``X`` — which means both
rows sit in the same single-column PLI cluster of *each* column in ``X``.
Rows that are singletons in every column can never collide with anything,
so uniform sampling wastes most of its budget on them.  Focused sampling
therefore walks the single-column clusters largest-first, round-robin
across columns, drawing a bounded number of rows per cluster (two rows of
the same cluster are the minimum that can witness anything), and only
tops the sample up with uniform leftovers — only empty-lhs
(constant-column) checks read those, since any two rows can refute a
constant.  SPIDER's IND value probes read value lists, not sampled rows.

Everything is seeded and size-capped, so a harvest is a pure function of
the relation: reruns, parallel workers, and differential tests all see
the same sample.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..faults import FAULTS, SAMPLING_HARVEST
from ..relation.columnset import bit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pli.index import RelationIndex

__all__ = [
    "IND_PROBE_VALUES",
    "MAX_ROWS",
    "MIN_HARVEST_SECONDS",
    "PER_CLUSTER",
    "SEED",
    "focused_sample",
]

#: Size cap on the harvested sample.  Refutation queries scan at most
#: this many positions, which bounds the stage-1 overhead paid by
#: candidates that survive to the exact path.
MAX_ROWS = 128
#: Seed for the in-cluster, top-up and IND-probe draws (deterministic
#: harvests).
SEED = 0
#: Rows drawn from one single-column cluster per round-robin visit; at
#: least two (a lone cluster member witnesses nothing).
PER_CLUSTER = 8
#: Distinct values sampled per dependent column by SPIDER's IND
#: prefilter; each is probed against the full referenced value set, so a
#: miss is an exact refutation.
IND_PROBE_VALUES = 8
#: Deadline guard: when an active :class:`~repro.guard.Budget` has less
#: wall-clock remaining than this, harvesting is skipped entirely and
#: every candidate goes straight to the exact path — sampling must never
#: convert an ``ok`` run into a ``timeout``.
MIN_HARVEST_SECONDS = 0.1


def focused_sample(
    index: "RelationIndex",
    max_rows: int = MAX_ROWS,
    seed: int = SEED,
    per_cluster: int = PER_CLUSTER,
) -> list[int]:
    """Harvest a deterministic row sample of ``index``'s relation.

    Returns sorted row ids, at most ``max_rows`` of them.  Each selected
    row trips the :data:`~repro.faults.SAMPLING_HARVEST` fault point, so
    the fault campaign can interrupt a harvest mid-flight.
    """
    n_rows = index.n_rows
    cap = min(max_rows, n_rows)
    if cap <= 1:
        # One row witnesses nothing; keep the degenerate sample empty.
        return []
    rng = random.Random(seed)
    chosen: set[int] = set()

    def add(row: int) -> None:
        if FAULTS.armed:
            FAULTS.trip(SAMPLING_HARVEST)
        chosen.add(row)

    # Per-column clusters, largest first.  ``peek`` keeps the harvest
    # invisible to the counted cache traffic the harness reports.
    per_column: list[list[tuple[int, ...]]] = []
    for column in range(index.n_columns):
        pli = index.cache.peek(bit(column))
        if pli is not None and pli.clusters:
            per_column.append(sorted(pli.clusters, key=len, reverse=True))

    rank = 0
    while len(chosen) < cap and any(rank < len(c) for c in per_column):
        for clusters in per_column:
            if rank >= len(clusters):
                continue
            budget_left = cap - len(chosen)
            if budget_left <= 0:
                break
            cluster = clusters[rank]
            take = min(per_cluster, len(cluster), budget_left)
            picked = (
                rng.sample(cluster, take) if take < len(cluster) else cluster
            )
            for row in picked:
                add(row)
        rank += 1

    # Top up with uniform leftovers for empty-lhs checks.
    if len(chosen) < cap:
        rest = [row for row in range(n_rows) if row not in chosen]
        for row in rng.sample(rest, cap - len(chosen)):
            add(row)
    return sorted(chosen)
