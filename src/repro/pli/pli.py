"""Position list indexes (PLIs), a.k.a. stripped partitions.

A PLI for a column combination ``X`` lists, for every value combination that
occurs more than once, the set of row ids sharing it (§2.2 of the paper).
Clusters of size one carry no information for uniqueness or refinement
checks and are *stripped*.

Three operations drive all UCC/FD discovery:

* :func:`pli_from_column` — build the PLI of a single column,
* :meth:`PLI.intersect` — combine ``PLI(X)`` and ``PLI(Y)`` into
  ``PLI(X ∪ Y)`` by grouping the clustered rows of one side by the cluster
  ids of the other,
* :meth:`PLI.refines` — the partition-refinement FD check of Lemma 1:
  ``X → A  ⇔  |X| = |X ∪ {A}|``, evaluated without materializing
  ``PLI(X ∪ {A})`` by probing a dense value vector of ``A``.

The kernel keeps a dual representation.  The canonical stripped-cluster
form (sorted tuples of sorted row ids) defines equality and hashing; on top
of it every PLI lazily materializes a memoized **cluster-id probe vector**
(one entry per row, ``-1`` for stripped rows).  The probe vector replaces
the per-intersect probe-dict rebuild of the naive kernel: once built it is
reused by every subsequent intersection against the same PLI — which is
the dominant access pattern of the level-wise and random-walk algorithms,
all of which intersect the same single-column PLIs over and over.

The probe vector is a flat ``list`` rather than an ``array('i')``: CPython
boxes a fresh ``int`` on every ``array`` subscript, which slows the hot
intersection loop; a list subscript just returns the stored object.  The
density (one slot per row) is what matters, not the 4-byte element width.

NULL semantics: ``None`` is treated as a regular value equal to itself, the
Metanome default for FD/UCC discovery.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from .. import guard as _guard
from .. import trace as _trace

__all__ = [
    "PLI",
    "KernelStats",
    "KERNEL_STATS",
    "pli_from_column",
    "value_vector",
    "pli_from_vector",
]


class KernelStats:
    """Process-wide counters of the PLI kernel.

    The harness snapshots these around each algorithm execution to report
    per-run kernel activity (intersections performed, probe vectors built
    vs. reused) next to the cache statistics — the Fig. 8-style cost
    accounting of the shared substrate.
    """

    __slots__ = (
        "intersections",
        "probe_builds",
        "probe_reuses",
        "refine_calls",
        "refine_cluster_scans",
        "delta_merges",
        "delta_reclustered_rows",
    )

    def __init__(self) -> None:
        self.intersections = 0
        self.probe_builds = 0
        self.probe_reuses = 0
        self.refine_calls = 0
        self.refine_cluster_scans = 0
        self.delta_merges = 0
        self.delta_reclustered_rows = 0

    def reset(self) -> None:
        """Zero all counters (tests and benchmark isolation)."""
        self.intersections = 0
        self.probe_builds = 0
        self.probe_reuses = 0
        self.refine_calls = 0
        self.refine_cluster_scans = 0
        self.delta_merges = 0
        self.delta_reclustered_rows = 0

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict."""
        return {
            "pli_intersections": self.intersections,
            "probe_builds": self.probe_builds,
            "probe_reuses": self.probe_reuses,
            "refine_calls": self.refine_calls,
            "refine_cluster_scans": self.refine_cluster_scans,
            "delta_merges": self.delta_merges,
            "delta_reclustered_rows": self.delta_reclustered_rows,
        }

    def delta(self, before: Mapping[str, int]) -> dict[str, int]:
        """Counter increments since an earlier :meth:`snapshot`.

        The counters themselves are process-lifetime monotone — nothing
        resets them between executions — so every per-run attribution
        must be snapshot/delta bracketing, never a raw read.  This is
        the one supported way to do that bracketing (the harness wraps
        each profiler call with it)."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.snapshot().items()
        }

    def __repr__(self) -> str:
        return (
            f"KernelStats(intersections={self.intersections}, "
            f"probe_builds={self.probe_builds}, probe_reuses={self.probe_reuses})"
        )


#: The kernel's shared counter instance (single-threaded substrate).
KERNEL_STATS = KernelStats()


def value_vector(values: Sequence[Any]) -> list[int]:
    """Map a column to dense value ids (equal values share one id).

    The resulting vector is the probe side of :meth:`PLI.refines` and a
    compact surrogate for the raw column in all positional algorithms.
    """
    ids: dict[Any, int] = {}
    vector: list[int] = []
    for value in values:
        identifier = ids.setdefault(value, len(ids))
        vector.append(identifier)
    return vector


class PLI:
    """A stripped partition over ``n_rows`` rows.

    ``clusters`` holds only id-groups of size ≥ 2, each sorted ascending;
    the clusters themselves are ordered by their smallest row id so that
    equal partitions have equal representations.

    The public constructor *validates*: row ids must lie in
    ``[0, n_rows)`` and no row may belong to two clusters — either
    corruption would otherwise surface only later, as silently wrong
    cluster ids in :meth:`probe_vector` or an ``IndexError`` mid
    intersection.  Duplicate row ids *within* one cluster are harmless
    repetition and are deduplicated (a cluster collapsing below two
    distinct rows is stripped like any singleton).
    """

    __slots__ = ("clusters", "n_rows", "_probe")

    def __init__(self, clusters: Sequence[Sequence[int]], n_rows: int):
        normalized = []
        seen: set[int] = set()
        for cluster in clusters:
            unique = set(cluster)
            if len(unique) < 2:
                continue
            for row in unique:
                if not 0 <= row < n_rows:
                    raise ValueError(
                        f"row id {row!r} outside the partition's "
                        f"[0, {n_rows}) row range"
                    )
            if seen & unique:
                overlap = sorted(seen & unique)
                raise ValueError(
                    f"row id(s) {overlap} appear in more than one cluster; "
                    "a partition's clusters must be disjoint"
                )
            seen |= unique
            normalized.append(tuple(sorted(unique)))
        normalized.sort()
        self.clusters: tuple[tuple[int, ...], ...] = tuple(normalized)
        self.n_rows = n_rows
        self._probe: list[int] | None = None

    @classmethod
    def _from_canonical(
        cls, clusters: tuple[tuple[int, ...], ...], n_rows: int
    ) -> "PLI":
        """Trusted constructor for already-canonical clusters.

        ``clusters`` must contain only size-≥2 tuples, each sorted
        ascending, ordered by smallest row id.  The kernel's own operations
        produce exactly that shape, so re-normalizing (the public
        constructor's per-cluster sort plus global sort) would be wasted
        work on the hot path.
        """
        pli = object.__new__(cls)
        pli.clusters = clusters
        pli.n_rows = n_rows
        pli._probe = None
        return pli

    # -- derived measures --------------------------------------------------

    @property
    def n_clusters(self) -> int:
        """Number of (stripped) clusters."""
        return len(self.clusters)

    @property
    def n_clustered_rows(self) -> int:
        """Total number of rows that appear in some cluster."""
        return sum(len(cluster) for cluster in self.clusters)

    @property
    def error(self) -> int:
        """TANE's ``e`` measure: rows that would need to be removed to make
        the column combination unique (``Σ|c| - #clusters``)."""
        return self.n_clustered_rows - self.n_clusters

    @property
    def distinct_count(self) -> int:
        """Cardinality ``|X|_r`` of the projection (Lemma 1's measure)."""
        return self.n_rows - self.error

    @property
    def is_unique(self) -> bool:
        """True iff the column combination is a UCC (empty stripped PLI)."""
        return not self.clusters

    # -- probe vector ------------------------------------------------------

    def probe_vector(self) -> list[int]:
        """Per-row cluster ids as a flat list; ``-1`` marks rows outside
        every cluster (stripped singletons).

        Built lazily on first use and memoized for the lifetime of the PLI:
        the level-wise and random-walk algorithms intersect the same
        (single-column) PLIs against ever-changing partners, so the probe
        side is paid once and amortized across every later intersection.
        Do not mutate the returned list.
        """
        probe = self._probe
        tracer = _trace.ACTIVE
        if probe is not None:
            KERNEL_STATS.probe_reuses += 1
            if tracer is not None:
                tracer.count("pli.probe_reuses")
            return probe
        KERNEL_STATS.probe_builds += 1
        if tracer is not None:
            tracer.count("pli.probe_builds")
        probe = [-1] * self.n_rows
        for cluster_id, cluster in enumerate(self.clusters):
            for row in cluster:
                probe[row] = cluster_id
        self._probe = probe
        return probe

    # -- algebra -------------------------------------------------------------

    def intersect(self, other: "PLI") -> "PLI":
        """Return the PLI of the united column combination.

        One pass over the smaller side's clustered rows: rows are grouped
        by their cluster id in ``other``, i.e. by the pair
        ``(cluster_a, cluster_b)``; groups of size ≥ 2 survive.  The
        result enters the trusted constructor already canonical.

        When an execution guard is active (:mod:`repro.guard`) the call
        charges the budget with the clustered rows it materialized and may
        raise :class:`~repro.guard.BudgetExceeded`; intersections are the
        unit of work every budget meters.
        """
        if self.n_rows != other.n_rows:
            raise ValueError(
                f"cannot intersect PLIs over {self.n_rows} and {other.n_rows} rows"
            )
        # Scan the side with fewer clustered rows; probe the other.  The
        # probe representation is memoized on the probed PLI, so repeatedly
        # intersecting against the same PLI (the single-column generators)
        # pays its construction exactly once.
        small, large = (
            (self, other)
            if self.n_clustered_rows <= other.n_clustered_rows
            else (other, self)
        )
        KERNEL_STATS.intersections += 1
        result, clustered_rows = _intersect(small, large)
        budget = _guard.ACTIVE
        tracer = _trace.ACTIVE
        if tracer is not None:
            # Counters on the innermost open span (rolled up outward)
            # — no event objects, so tracing a lattice walk cannot
            # flood the buffer.  Counted before the budget charge so
            # the intersection that trips the budget is still traced.
            tracer.count("pli.intersections")
            tracer.count("pli.clustered_rows", clustered_rows)
        if budget is not None:
            budget.charge_intersection(clustered_rows)
        return PLI._from_canonical(result, self.n_rows)

    def refines(self, vector: Sequence[int]) -> bool:
        """Partition-refinement FD check (Lemma 1).

        ``self`` is ``PLI(X)`` and ``vector`` the dense value vector of a
        candidate right-hand side ``A``; returns True iff ``X → A``, i.e.
        every cluster of ``X`` is value-constant in ``A``.

        ``vector`` must have exactly one entry per row of the partitioned
        relation; mismatched lengths (e.g. a vector built from a projected
        relation) are rejected instead of surfacing as an opaque
        ``IndexError`` mid-scan.

        The scan aborts at the first violating row.
        ``refine_cluster_scans`` is accounted at cluster granularity, once
        per call: a False return on the k-th canonical cluster charges k
        scans, so the abort position stays observable without a per-row
        counter increment on this hot path.
        """
        if len(vector) != self.n_rows:
            raise ValueError(
                f"probe vector has {len(vector)} entries but the PLI spans "
                f"{self.n_rows} rows"
            )
        stats = KERNEL_STATS
        stats.refine_calls += 1
        scanned = 0
        for cluster in self.clusters:
            scanned += 1
            first = vector[cluster[0]]
            for row in cluster[1:]:
                if vector[row] != first:
                    stats.refine_cluster_scans += scanned
                    return False
        stats.refine_cluster_scans += scanned
        return True

    def to_vector(self, singleton_id: int = -1) -> list[int]:
        """Inverse view: per-row cluster ids, stripped rows get unique ids.

        Useful to chain refinement checks and to rebuild probe tables once.
        Rows outside every cluster receive distinct negative ids when
        ``singleton_id`` is -1 (the default), so the vector is itself a
        valid value vector of the column combination.
        """
        vector = list(range(-1, -self.n_rows - 1, -1)) if singleton_id == -1 else [
            singleton_id
        ] * self.n_rows
        for cluster_id, cluster in enumerate(self.clusters):
            for row in cluster:
                vector[row] = cluster_id
        return vector

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PLI):
            return self.n_rows == other.n_rows and self.clusters == other.clusters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n_rows, self.clusters))

    def __repr__(self) -> str:
        return f"PLI({self.n_clusters} clusters over {self.n_rows} rows)"


def _intersect(
    small: PLI, large: PLI
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Group ``small``'s clustered rows by their cluster id in ``large``
    via the memoized probe vector and a flat bucket table (no hashing on
    the per-row path).

    Returns ``(canonical clusters, clustered rows)``.
    """
    if not small.clusters or not large.clusters:
        # Trivially empty: nothing to group, so don't build (or count)
        # a probe vector for it.
        return (), 0
    probe = large.probe_vector()
    # Partner -1 (stripped in ``large``) lands in the one extra slot
    # at index -1 and is dropped during the sweep of touched slots.
    buckets: list[list[int] | None] = [None] * (len(large.clusters) + 1)
    result: list[tuple[int, ...]] = []
    append = result.append
    for cluster in small.clusters:
        touched: list[int] = []
        mark = touched.append
        for row in cluster:
            partner = probe[row]
            group = buckets[partner]
            if group is None:
                buckets[partner] = [row]
                mark(partner)
            else:
                group.append(row)
        for partner in touched:
            group = buckets[partner]
            buckets[partner] = None
            if partner >= 0 and len(group) >= 2:
                append(tuple(group))
    # Rows within a group ascend (cluster order); clusters are
    # disjoint, so ordering by first element is full canonical order.
    result.sort()
    return tuple(result), sum(map(len, result))


def pli_from_column(values: Sequence[Any]) -> PLI:
    """Build the stripped PLI of one column."""
    groups: dict[Any, list[int]] = {}
    for row, value in enumerate(values):
        group = groups.get(value)
        if group is None:
            groups[value] = [row]
        else:
            group.append(row)
    # Insertion order is first-occurrence order, so clusters already ascend
    # by smallest row id and rows ascend within each cluster: canonical.
    return PLI._from_canonical(
        tuple(tuple(g) for g in groups.values() if len(g) >= 2), len(values)
    )


def pli_from_vector(vector: Sequence[int]) -> PLI:
    """Build a PLI from a dense value vector (ids as produced by
    :func:`value_vector` or :meth:`PLI.to_vector`)."""
    return pli_from_column(vector)
